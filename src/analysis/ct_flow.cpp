// Constant-time flow analysis.
//
// The taint pass stops key material leaking through *data* channels
// (logs, metrics, streams). This pass closes the *timing* channel: a
// secret-dependent branch, a secret table index, a division whose
// latency depends on its operands, or an early loop exit all modulate
// execution time with key bits, which a remote attacker can sample at
// activation-protocol scale.
//
// Rules:
//
//   secret-branch   if/while/ternary/switch conditions (and short-
//                   circuit &&/|| in return expressions) tainted by
//                   key/PUF material, directly or through a call whose
//                   parameter reaches a branch inside the callee.
//   secret-index    subscripts and pointer arithmetic on secrets
//                   (data-dependent memory access pattern).
//   vartime-op      '/' or '%' on secret operands, secret-bounded loop
//                   trip counts, and early return/break inside a loop
//                   over key material.
//   ct-leak-call    secrets passed to known variable-time callees
//                   (memcmp/strcmp/std::find/map lookups).
//
// The secret oracle is the shared name convention (is_secret_identifier)
// plus the .bits()/.to_hex() accessors; taint is deliberately nominal,
// NOT type-based, so evaluator/attack code sweeping public *candidate*
// keys (Key64-typed but benign-named) stays quiet. Per-function
// summaries (returns-secret, param-flows-to-branch/index/vartime) are
// computed over the cross-TU call graph to a fixed point.
//
// Escape hatches, both auditable in review:
//
//   // analock: ct_safe              on a function definition vouches it
//                                    is constant-time: its body is
//                                    exempt and calls into it never leak
//                                    (analock::ct_equal is blessed
//                                    implicitly as the sanctioned
//                                    comparator).
//   // analock: declassified(reason) on a line marks the values released
//                                    there as deliberately public (e.g.
//                                    SNR results derived from locked
//                                    behaviour); the reason must be
//                                    non-empty or the annotation is
//                                    ignored.
//
// Length and presence are public by policy — `x.size()`, `x.empty()`,
// `x.has_value()` chains are stripped before tainting, mirroring
// ct_equal's own early length check.
#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "analysis/analyses.h"

namespace analock::analysis {

namespace {

constexpr int kMaxRounds = 8;

/// True for member-call names that collide with the std:: vocabulary
/// (atomic load/store, smart-pointer get, optional value, ...). Such
/// calls are opaque to cross-TU name resolution: `enabled_.load()` must
/// not resolve to a repo function that happens to be called `load`.
bool is_std_vocab_name(std::string_view base_name) {
  static const std::set<std::string_view> kStdNames = {
      "load", "store", "exchange", "get", "value",
      "reset", "swap", "data", "read",
  };
  return kStdNames.count(base_name) > 0;
}

bool is_opaque_member_call(const CallSite& call) {
  return call.callee != call.base_name && is_std_vocab_name(call.base_name);
}

/// First secret-named identifier in `expr` that is used as *data*. An
/// identifier immediately followed by '(' is a callee: its secrecy is
/// judged by its summary, because a function merely *named*
/// install_wrapped_key is not itself key material.
std::string first_secret_name(std::string_view expr) {
  std::string witness;
  for_each_identifier(expr, [&](std::string_view ident, std::size_t begin) {
    const std::size_t next = skip_space(expr, begin + ident.size());
    const bool is_callee = next < expr.size() && expr[next] == '(';
    if (!is_callee && is_secret_identifier(ident)) witness = ident;
    return witness.empty();
  });
  return witness;
}

/// Per-function constant-time summary, fixed-pointed over the call
/// graph. A ct_safe function's summary is all-clear by assertion.
struct CtSummary {
  std::vector<char> to_branch;
  std::vector<char> to_index;
  std::vector<char> to_vartime;
  std::vector<std::string> branch_via;
  std::vector<std::string> index_via;
  std::vector<std::string> vartime_via;
  bool returns_tainted = false;
};

struct CtContext {
  const CallGraph* graph = nullptr;
  std::map<const FunctionDef*, CtSummary> summaries;
  std::set<std::string, std::less<>> blessed;  ///< ct_safe + ct_equal
  /// Lines (and the line below each) carrying a non-empty
  /// `// analock: declassified(reason)`.
  std::map<const SourceFile*, std::set<int>> declassified;

  bool is_declassified(const SourceFile& source, std::size_t offset) const {
    const auto it = declassified.find(&source);
    if (it == declassified.end()) return false;
    return it->second.count(source.line_of(offset)) > 0;
  }
};

/// Walks a postfix chain backwards from `pos` (exclusive) over
/// identifier characters, member links, and balanced ()/[] groups.
/// Returns the chain's start index.
std::size_t chain_start(std::string_view text, std::size_t pos) {
  std::size_t p = pos;
  while (p > 0) {
    const char c = text[p - 1];
    if (is_word_char(c)) {
      --p;
      continue;
    }
    if (c == ')' || c == ']') {
      const char open = c == ')' ? '(' : '[';
      int d = 0;
      std::size_t k = p;
      bool balanced = false;
      while (k > 0) {
        --k;
        if (text[k] == c) ++d;
        if (text[k] == open && --d == 0) {
          balanced = true;
          break;
        }
      }
      if (!balanced) break;
      p = k;
      continue;
    }
    if (c == '.') {
      --p;
      continue;
    }
    if (p >= 2 && ((c == '>' && text[p - 2] == '-') ||
                   (c == ':' && text[p - 2] == ':'))) {
      p -= 2;
      continue;
    }
    break;
  }
  return p;
}

/// Blanks blessed constant-time calls (`ct_equal(...)` and ct_safe
/// functions) and public-shape accessor chains (`x.size()`,
/// `x.has_value()`, ...) so their operands don't register as taint: the
/// comparator's boolean result and container lengths/presence are
/// sanctioned releases. Accessors count only with an empty argument
/// list: `.count(key)` stays a lookup.
std::string strip_sanctioned(std::string_view expr, const CtContext& ctx) {
  std::string text(expr);
  for_each_call(text, [&](const TextCall& call) {
    std::size_t close = text.size();
    if (ctx.blessed.count(call.name) > 0) {
      close = close_paren(text, call.open);
    } else if (call.member && is_public_shape_accessor(call.name)) {
      const std::size_t next = skip_space(text, call.open + 1);
      if (next < text.size() && text[next] == ')') close = next;
    }
    if (close < text.size()) {
      for (std::size_t k = chain_start(text, call.begin); k <= close; ++k) {
        text[k] = ' ';
      }
    }
    return true;
  });
  return text;
}

/// Non-empty witness when `expr` (already stripped of sanctioned
/// subexpressions) carries key material: a secret-named identifier, a
/// raw-word accessor, or the first call whose summary says it returns
/// secrets.
std::string ct_witness_stripped(std::string_view expr,
                                const CtContext& ctx) {
  std::string witness = first_secret_name(expr);
  if (!witness.empty()) return witness;
  if (has_secret_accessor(expr)) return "bits()/to_hex() accessor";

  ctx.graph->for_each_callee_in(expr, [&](const TextCall& call,
                                          const FunctionRef& ref) {
    if (call.member && is_std_vocab_name(call.name)) return true;
    if (!ctx.summaries.at(&ref.def()).returns_tainted) return true;
    witness = std::string(call.name) + "() returns key material";
    return false;
  });
  return witness;
}

std::string ct_witness(std::string_view expr, const CtContext& ctx) {
  return ct_witness_stripped(strip_sanctioned(expr, ctx), ctx);
}

const char* condition_kind_name(ConditionSite::Kind kind) {
  switch (kind) {
    case ConditionSite::Kind::kIf:
      return "if";
    case ConditionSite::Kind::kWhile:
      return "while";
    case ConditionSite::Kind::kDoWhile:
      return "do-while";
    case ConditionSite::Kind::kSwitch:
      return "switch";
    case ConditionSite::Kind::kTernary:
      return "ternary";
  }
  return "branch";
}

struct BranchText {
  std::string text;
  std::size_t offset = 0;
  const char* kind = "if";
};

/// Explicit conditions plus short-circuit &&/|| return expressions
/// (evaluation order makes those branches too).
std::vector<BranchText> branch_texts(const FunctionDef& fn) {
  std::vector<BranchText> out;
  out.reserve(fn.conditions.size() + fn.returns.size());
  for (const ConditionSite& cond : fn.conditions) {
    out.push_back({cond.text, cond.offset, condition_kind_name(cond.kind)});
  }
  for (const ReturnExpr& ret : fn.returns) {
    if (ret.text.find("&&") != std::string::npos ||
        ret.text.find("||") != std::string::npos) {
      out.push_back({ret.text, ret.offset, "short-circuit return"});
    }
  }
  return out;
}

/// Known variable-time library callees. Member/qualified lookups
/// (map.find, std::find) compare element-by-element; the C comparators
/// bail at the first differing byte.
bool is_vartime_callee(const CallSite& call) {
  static const std::set<std::string_view> kFreeFns = {
      "memcmp", "strcmp", "strncmp", "strcasecmp", "bcmp",
      "strstr", "strchr",
  };
  static const std::set<std::string_view> kLookups = {
      "find",        "count",       "at",          "lower_bound",
      "upper_bound", "equal_range", "binary_search", "contains",
      "search",
  };
  if (kFreeFns.count(call.base_name) > 0) return true;
  // Lookups need a receiver or std:: qualifier so a local helper named
  // `find` is not mistaken for a container probe.
  return kLookups.count(call.base_name) > 0 && call.callee != call.base_name;
}

void collect_declassified(const std::vector<ParsedFile>& files,
                          CtContext& ctx) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    std::set<int>& lines = ctx.declassified[&source];
    const int line_count = static_cast<int>(source.line_starts.size());
    for (int line = 1; line <= line_count; ++line) {
      const std::string_view text = source.line_text(line);
      const std::size_t tag = text.find("analock:");
      if (tag == std::string_view::npos) continue;
      const std::size_t ann = text.find("declassified(", tag);
      if (ann == std::string_view::npos) continue;
      const std::size_t open = ann + 13;
      const std::size_t close = text.find(')', open);
      if (close == std::string_view::npos) continue;
      // An empty reason is not an audit trail: the annotation is
      // ignored so the finding still surfaces.
      if (skip_space(text.substr(0, close), open) == close) continue;
      lines.insert(line);
      lines.insert(line + 1);
    }
  }
}

void compute_summaries(const CallGraph& graph, CtContext& ctx) {
  // Blessed names first: witnesses during initialization already need
  // the full set.
  ctx.blessed.insert("ct_equal");
  for (const FunctionRef& ref : graph.all()) {
    if (ref.def().is_ct_safe) ctx.blessed.insert(ref.def().base_name);
  }

  // Direct facts.
  for (const FunctionRef& ref : graph.all()) {
    const FunctionDef& fn = ref.def();
    const SourceFile& source = *ref.file->source;
    CtSummary s;
    s.to_branch.assign(fn.params.size(), 0);
    s.to_index.assign(fn.params.size(), 0);
    s.to_vartime.assign(fn.params.size(), 0);
    s.branch_via.assign(fn.params.size(), std::string());
    s.index_via.assign(fn.params.size(), std::string());
    s.vartime_via.assign(fn.params.size(), std::string());
    if (!fn.is_ct_safe) {
      const std::vector<BranchText> branches = branch_texts(fn);
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const std::string& name = fn.params[i].name;
        if (name.empty()) continue;
        for (const BranchText& b : branches) {
          if (ctx.is_declassified(source, b.offset)) continue;
          if (contains_word(strip_sanctioned(b.text, ctx), name)) {
            s.to_branch[i] = 1;
            s.branch_via[i] = fn.base_name;
            break;
          }
        }
        for (const SubscriptSite& sub : fn.subscripts) {
          if (ctx.is_declassified(source, sub.offset)) continue;
          if (contains_word(strip_sanctioned(sub.index_text, ctx), name)) {
            s.to_index[i] = 1;
            s.index_via[i] = fn.base_name;
            break;
          }
        }
        for (const DivModSite& dm : fn.divmods) {
          if (ctx.is_declassified(source, dm.offset)) continue;
          if (contains_word(strip_sanctioned(dm.lhs, ctx), name) ||
              contains_word(strip_sanctioned(dm.rhs, ctx), name)) {
            s.to_vartime[i] = 1;
            s.vartime_via[i] = fn.base_name;
            break;
          }
        }
        if (s.to_vartime[i] == 0) {
          for (const LoopSite& loop : fn.loops) {
            if (ctx.is_declassified(source, loop.offset)) continue;
            if (contains_word(strip_sanctioned(loop.bound_text, ctx),
                              name)) {
              s.to_vartime[i] = 1;
              s.vartime_via[i] = fn.base_name;
              break;
            }
          }
        }
      }
    }
    // Base returns-secret: oracle names and raw accessors in a return
    // expression (declassified returns are deliberate releases).
    for (const ReturnExpr& ret : fn.returns) {
      if (ctx.is_declassified(source, ret.offset)) continue;
      const std::string stripped = strip_sanctioned(ret.text, ctx);
      if (has_secret_accessor(stripped) ||
          !first_secret_name(stripped).empty()) {
        s.returns_tainted = true;
        break;
      }
    }
    ctx.summaries.emplace(&fn, std::move(s));
  }

  // Fixed point: compose returns-secret through return-expression call
  // chains, and param flows through argument passing. Monotone boolean
  // facts, so the loop terminates; the round cap is a safety valve
  // against resolver ambiguity blowups.
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const FunctionRef& ref : graph.all()) {
      const FunctionDef& fn = ref.def();
      const SourceFile& source = *ref.file->source;
      CtSummary& s = ctx.summaries.at(&fn);

      if (!s.returns_tainted) {
        for (const ReturnExpr& ret : fn.returns) {
          if (ctx.is_declassified(source, ret.offset)) continue;
          const std::string stripped = strip_sanctioned(ret.text, ctx);
          if (!ct_witness_stripped(stripped, ctx).empty()) {
            s.returns_tainted = true;
            changed = true;
            break;
          }
        }
      }

      if (fn.is_ct_safe) continue;
      for (const CallSite& call : fn.calls) {
        if (ctx.blessed.count(call.base_name) > 0) continue;
        if (is_opaque_member_call(call)) continue;
        if (ctx.is_declassified(source, call.offset)) continue;
        for (const FunctionRef& callee_ref : ctx.graph->resolve(call)) {
          const FunctionDef& callee = callee_ref.def();
          if (&callee == &fn) continue;
          const CtSummary& cs = ctx.summaries.at(&callee);
          for (std::size_t i = 0; i < fn.params.size(); ++i) {
            const std::string& pname = fn.params[i].name;
            if (pname.empty()) continue;
            for (std::size_t a = 0;
                 a < call.args.size() && a < cs.to_branch.size(); ++a) {
              if (!contains_word(call.args[a], pname)) continue;
              if (cs.to_branch[a] != 0 && s.to_branch[i] == 0) {
                s.to_branch[i] = 1;
                s.branch_via[i] =
                    callee.base_name + " -> " + cs.branch_via[a];
                changed = true;
              }
              if (cs.to_index[a] != 0 && s.to_index[i] == 0) {
                s.to_index[i] = 1;
                s.index_via[i] =
                    callee.base_name + " -> " + cs.index_via[a];
                changed = true;
              }
              if (cs.to_vartime[a] != 0 && s.to_vartime[i] == 0) {
                s.to_vartime[i] = 1;
                s.vartime_via[i] =
                    callee.base_name + " -> " + cs.vartime_via[a];
                changed = true;
              }
            }
          }
        }
      }
    }
    if (!changed) break;
  }
}

void report(const std::vector<ParsedFile>& files, const CtContext& ctx,
            std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    const std::size_t first = out.size();
    for (const FunctionDef& fn : file.functions) {
      if (fn.is_ct_safe) continue;

      for (const BranchText& b : branch_texts(fn)) {
        const std::string witness = ct_witness(b.text, ctx);
        if (witness.empty()) continue;
        out.push_back(make_finding(
            source, b.offset, "secret-branch",
            "key material (" + witness + ") decides a " + b.kind +
                " condition; timing reveals the secret — restructure "
                "branch-free (ct_equal / masked select) or annotate "
                "'// analock: declassified(reason)'"));
      }

      for (const SubscriptSite& sub : fn.subscripts) {
        const std::string witness = ct_witness(sub.index_text, ctx);
        if (witness.empty()) continue;
        out.push_back(make_finding(
            source, sub.offset, "secret-index",
            "key material (" + witness +
                ") used as a subscript; the memory access pattern leaks "
                "the key through cache timing"));
      }
      // Pointer arithmetic on secrets: a pointer-typed local whose
      // initializer offsets by key material.
      for (const VarDecl& local : fn.locals) {
        if (local.type.find('*') == std::string::npos) continue;
        if (local.init.empty()) continue;
        if (local.init.find('+') == std::string::npos &&
            local.init.find('-') == std::string::npos) {
          continue;
        }
        const std::string witness = ct_witness(local.init, ctx);
        if (witness.empty()) continue;
        out.push_back(make_finding(
            source, local.offset, "secret-index",
            "key material (" + witness +
                ") used as a pointer offset; the memory access pattern "
                "leaks the key through cache timing"));
      }

      for (const DivModSite& dm : fn.divmods) {
        const std::string witness = ct_witness(dm.lhs + " " + dm.rhs, ctx);
        if (witness.empty()) continue;
        out.push_back(make_finding(
            source, dm.offset, "vartime-op",
            "variable-time division/modulo on key material (" + witness +
                "); hardware divide latency is operand-dependent — use "
                "branch-free arithmetic"));
      }
      for (const LoopSite& loop : fn.loops) {
        const std::string witness = ct_witness(loop.bound_text, ctx);
        if (witness.empty()) continue;
        out.push_back(make_finding(
            source, loop.offset, "vartime-op",
            "loop trip count bounded by key material (" + witness +
                "); iteration count is observable timing"));
        for (const ReturnExpr& ret : fn.returns) {
          if (ret.offset > loop.body_begin && ret.offset < loop.body_end) {
            out.push_back(make_finding(
                source, ret.offset, "vartime-op",
                "early return inside a loop over key material (" + witness +
                    "); exit position reveals how far the secret matched"));
          }
        }
        for (const std::size_t brk : fn.break_offsets) {
          if (brk > loop.body_begin && brk < loop.body_end) {
            out.push_back(make_finding(
                source, brk, "vartime-op",
                "early break inside a loop over key material (" + witness +
                    "); exit position reveals how far the secret matched"));
          }
        }
      }

      for (const CallSite& call : fn.calls) {
        if (ctx.blessed.count(call.base_name) > 0) continue;
        if (is_vartime_callee(call)) {
          std::string probe = call.callee;
          for (const std::string& arg : call.args) {
            probe += ' ';
            probe += arg;
          }
          const std::string witness = ct_witness(probe, ctx);
          if (!witness.empty()) {
            out.push_back(make_finding(
                source, call.offset, "ct-leak-call",
                "key material (" + witness +
                    ") passed to variable-time callee " + call.callee +
                    "; use analock::ct_equal or a fixed-shape scan"));
          }
          continue;
        }
        // Interprocedural: a tainted argument into a parameter that
        // reaches a branch/index/vartime op inside the callee chain.
        if (is_opaque_member_call(call)) continue;
        for (const FunctionRef& callee_ref : ctx.graph->resolve(call)) {
          const FunctionDef& callee = callee_ref.def();
          if (&callee == &fn) continue;
          const CtSummary& cs = ctx.summaries.at(&callee);
          bool reported = false;
          for (std::size_t a = 0;
               a < call.args.size() && a < cs.to_branch.size(); ++a) {
            const std::string witness = ct_witness(call.args[a], ctx);
            if (witness.empty()) continue;
            if (cs.to_branch[a] != 0) {
              out.push_back(make_finding(
                  source, call.offset, "secret-branch",
                  "key material (" + witness +
                      ") reaches a branch through call chain " +
                      cs.branch_via[a]));
              reported = true;
            }
            if (cs.to_index[a] != 0) {
              out.push_back(make_finding(
                  source, call.offset, "secret-index",
                  "key material (" + witness +
                      ") reaches a subscript through call chain " +
                      cs.index_via[a]));
              reported = true;
            }
            if (cs.to_vartime[a] != 0) {
              out.push_back(make_finding(
                  source, call.offset, "vartime-op",
                  "key material (" + witness +
                      ") reaches a variable-time op through call chain " +
                      cs.vartime_via[a]));
              reported = true;
            }
            if (reported) break;
          }
          if (reported) break;
        }
      }
    }
    // A declassified line releases everything reported on it.
    const std::set<int>& released = ctx.declassified.at(&source);
    out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(first),
                             out.end(),
                             [&released](const Finding& f) {
                               return released.count(f.line) > 0;
                             }),
              out.end());
  }
}

}  // namespace

bool is_public_shape_accessor(std::string_view name) {
  return name == "size" || name == "empty" || name == "has_value" ||
         name == "length" || name == "capacity";
}

void run_ct_flow_analysis(const std::vector<ParsedFile>& files,
                          const CallGraph& graph, std::vector<Finding>& out) {
  CtContext ctx;
  ctx.graph = &graph;
  collect_declassified(files, ctx);
  compute_summaries(graph, ctx);
  report(files, ctx, out);
}

}  // namespace analock::analysis
