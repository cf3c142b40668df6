// Lock-order cycle detection.
//
// Builds a directed lock-acquisition graph across every TU: an edge
// A -> B means "somewhere, B is acquired while A is held". Three edge
// sources feed the graph:
//
//   1. lexical nesting — two lock scopes in one function body where the
//      inner guard is declared inside the outer's extent;
//   2. `// analock: requires(m)` summaries — a function that demands m
//      held on entry orders m before every lock it acquires itself;
//   3. call-through — a call made while holding A into a function whose
//      transitive acquisition closure contains B orders A before B.
//
// Any edge that lies on a directed cycle is a potential deadlock and is
// reported at its acquisition site (rule lock-order-cycle), with the
// cycle spelled out in the message. Reporting every edge of the cycle
// (not just one) lets the developer fix whichever site is cheapest.
//
// Mutex identity is name-based. Member mutexes (`mu_`) are qualified by
// their owning class ("ThreadPool::mu_"), dotted paths (`sync.m`) by
// the function that owns the local, so distinct objects that happen to
// share a field name do not alias across classes.
#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"

namespace analock::analysis {

namespace {

constexpr int kClosureDepth = 6;

/// A lock-acquisition site contributing a graph edge.
struct EdgeSite {
  std::string from;
  std::string to;
  const SourceFile* source = nullptr;
  std::size_t offset = 0;
};

std::string normalize_lock_name(const std::string& raw,
                                const FunctionDef& fn) {
  std::string name = raw;
  if (name.rfind("this->", 0) == 0) name.erase(0, 6);
  const bool dotted = name.find('.') != std::string::npos ||
                      name.find("->") != std::string::npos;
  if (dotted) {
    // A path through a local or member object: scope it to the
    // function so `sync.m` here never aliases `sync.m` elsewhere.
    return fn.qualified_name + "/" + name;
  }
  if (!fn.class_name.empty() && !name.empty() && name.back() == '_') {
    return fn.class_name + "::" + name;
  }
  return name;
}

/// Transitive set of locks a function acquires (itself or through
/// calls), memoized per definition.
class AcquisitionClosure {
 public:
  explicit AcquisitionClosure(const CallGraph& graph) : graph_(graph) {}

  const std::set<std::string>& of(const FunctionRef& root) {
    const auto [it, fresh] = memo_.try_emplace(&root.def());
    if (fresh) {
      graph_.walk(root, kClosureDepth, [&](const FunctionRef& ref) {
        for (const LockHold& hold : ref.def().locks) {
          it->second.insert(normalize_lock_name(hold.mutex_name, ref.def()));
        }
        return CallGraph::Walk::kDescend;
      });
    }
    return it->second;
  }

 private:
  const CallGraph& graph_;
  std::map<const FunctionDef*, std::set<std::string>> memo_;
};

/// True when a directed path `from` -> ... -> `to` exists.
bool path_exists(const std::map<std::string, std::set<std::string>>& adj,
                 const std::string& from, const std::string& to,
                 std::vector<std::string>* path_out) {
  std::map<std::string, std::string> parent;
  std::vector<std::string> queue{from};
  parent[from] = "";
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::string node = queue[head];
    if (node == to) {
      if (path_out != nullptr) {
        path_out->clear();
        for (std::string cur = to; !cur.empty(); cur = parent[cur]) {
          path_out->push_back(cur);
        }
        std::reverse(path_out->begin(), path_out->end());
      }
      return true;
    }
    const auto it = adj.find(node);
    if (it == adj.end()) continue;
    for (const std::string& next : it->second) {
      if (parent.count(next) > 0) continue;
      parent[next] = node;
      queue.push_back(next);
    }
  }
  return false;
}

std::string short_name(const std::string& qualified) {
  const std::size_t slash = qualified.rfind('/');
  if (slash != std::string::npos) return qualified.substr(slash + 1);
  return qualified;
}

}  // namespace

void run_lock_order_analysis(const std::vector<ParsedFile>& files,
                             const CallGraph& graph,
                             std::vector<Finding>& out) {
  AcquisitionClosure closure(graph);
  std::vector<EdgeSite> sites;

  for (const ParsedFile& file : files) {
    for (const FunctionDef& fn : file.functions) {
      // 1. Lexical nesting inside one body.
      for (const LockHold& outer : fn.locks) {
        const std::string outer_name = normalize_lock_name(outer.mutex_name, fn);
        for (const LockHold& inner : fn.locks) {
          if (&inner == &outer) continue;
          if (inner.begin_offset <= outer.begin_offset ||
              inner.begin_offset >= outer.end_offset) {
            continue;
          }
          const std::string inner_name =
              normalize_lock_name(inner.mutex_name, fn);
          if (inner_name == outer_name) continue;
          sites.push_back(
              {outer_name, inner_name, file.source, inner.begin_offset});
        }
      }
      // 2. requires(m) summary: m precedes every acquisition here.
      if (!fn.requires_mutex.empty()) {
        const std::string req = normalize_lock_name(fn.requires_mutex, fn);
        for (const LockHold& hold : fn.locks) {
          const std::string held = normalize_lock_name(hold.mutex_name, fn);
          if (held == req) continue;
          sites.push_back({req, held, file.source, hold.begin_offset});
        }
      }
      // 3. Call-through: calls made while holding a lock pull in the
      // callee's transitive acquisitions.
      for (const CallSite& call : fn.calls) {
        std::vector<const LockHold*> held_here;
        for (const LockHold& hold : fn.locks) {
          if (hold.begin_offset <= call.offset &&
              call.offset < hold.end_offset) {
            held_here.push_back(&hold);
          }
        }
        if (held_here.empty()) continue;
        for (const FunctionRef& ref : graph.resolve(call)) {
          for (const std::string& acquired : closure.of(ref)) {
            for (const LockHold* hold : held_here) {
              const std::string held =
                  normalize_lock_name(hold->mutex_name, fn);
              if (held == acquired) continue;
              sites.push_back({held, acquired, file.source, call.offset});
            }
          }
        }
      }
    }
  }

  std::map<std::string, std::set<std::string>> adj;
  for (const EdgeSite& site : sites) {
    adj[site.from].insert(site.to);
  }

  std::set<std::string> reported;  // file:line:from:to dedupe
  for (const EdgeSite& site : sites) {
    std::vector<std::string> back_path;
    if (!path_exists(adj, site.to, site.from, &back_path)) continue;

    const int line = site.source->line_of(site.offset);
    const std::string key = site.source->path + ":" +
                            std::to_string(line) + ":" + site.from + ":" +
                            site.to;
    if (!reported.insert(key).second) continue;

    std::string cycle = short_name(site.from) + " -> " + short_name(site.to);
    for (std::size_t i = 1; i < back_path.size(); ++i) {
      cycle += " -> " + short_name(back_path[i]);
    }
    out.push_back(make_finding(
        *site.source, site.offset, "lock-order-cycle",
        "acquiring '" + short_name(site.to) + "' while holding '" +
            short_name(site.from) + "' completes a lock-order cycle: " +
            cycle +
            "; a concurrent thread taking the opposite order deadlocks"));
  }
}

}  // namespace analock::analysis
