// Cross-translation-unit call graph over every parsed file.
//
// Functions are indexed by base name and by "Class::method" pairs;
// resolution is name-based (no overload or template resolution), which
// is the right precision/recall trade-off for a security lint: a call
// that MIGHT reach a leaking helper should be reported.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/parser.h"

namespace analock::analysis {

/// A function definition, located in its file.
struct FunctionRef {
  const ParsedFile* file = nullptr;
  std::size_t index = 0;  ///< into file->functions

  [[nodiscard]] const FunctionDef& def() const {
    return file->functions[index];
  }
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<ParsedFile>& files);

  /// All definitions across every TU.
  [[nodiscard]] const std::vector<FunctionRef>& all() const { return all_; }

  /// Resolves a call site to candidate definitions. Prefers a
  /// "Class::method" match when the callee chain is qualified or a
  /// member call; otherwise matches by base name.
  [[nodiscard]] std::vector<FunctionRef> resolve(const CallSite& call) const;

  /// Definitions with the given base name.
  [[nodiscard]] const std::vector<FunctionRef>* by_base(
      std::string_view name) const;

  /// Applies `fn(call, ref)` to each definition a call spelled in `expr`
  /// names (by base name): calls in position order, definitions in graph
  /// order, until `fn` returns false.
  template <typename Fn>
  void for_each_callee_in(std::string_view expr, Fn fn) const {
    for_each_call(expr, [&](const TextCall& call) {
      const std::vector<FunctionRef>* defs = by_base(call.name);
      if (defs == nullptr) return true;
      for (const FunctionRef& ref : *defs) {
        if (!fn(call, ref)) return false;
      }
      return true;
    });
  }

  /// What a walk does after entering a definition.
  enum class Walk { kDescend, kPrune, kStop };

  /// Depth-first walk from `root` through resolved calls, in call order
  /// and at most `max_depth` calls deep. Each definition is entered once,
  /// at its first reach; `enter(ref)` decides whether to follow its
  /// calls or end the walk. Returns true when `enter` stopped it.
  template <typename Enter>
  bool walk(const FunctionRef& root, int max_depth, Enter enter) const {
    std::set<const FunctionDef*> entered;
    const auto visit = [&](const auto& self, const FunctionRef& ref,
                           int depth) -> bool {
      if (depth < 0 || !entered.insert(&ref.def()).second) return false;
      const Walk next = enter(ref);
      if (next != Walk::kDescend) return next == Walk::kStop;
      for (const CallSite& call : ref.def().calls) {
        for (const FunctionRef& callee : resolve(call)) {
          if (self(self, callee, depth - 1)) return true;
        }
      }
      return false;
    };
    return visit(visit, root, max_depth);
  }

 private:
  std::vector<FunctionRef> all_;
  std::map<std::string, std::vector<FunctionRef>, std::less<>> by_base_;
};

}  // namespace analock::analysis
