// Lightweight syntactic extraction for the analock-verify engine.
//
// This is deliberately NOT a C++ front end. It recovers exactly the
// shapes the analyses need from the token stream of one file:
//
//   * function definitions (free, in-class, and out-of-line
//     Class::method), with qualified names, parameter lists, and body
//     token ranges;
//   * call expressions inside bodies, with the full callee chain
//     ("obs::event", "sink_->emit") and top-level-comma-split argument
//     texts;
//   * local variable declarations (name -> type text), return
//     expressions, lock-guard declarations with their lexical scope
//     extent, and range-for loops;
//   * class member declarations carrying `// analock: guarded_by(m)`
//     annotations, and function definitions carrying
//     `// analock: requires(m)`.
//
// Template bodies, lambdas, and macro invocations are all traversed as
// ordinary token runs: a lambda's calls are attributed to the enclosing
// function, which is the right granularity for taint and lock checks.
#pragma once

#include <cctype>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/model.h"

namespace analock::analysis {

struct Param {
  std::string type;  ///< declaration text minus the trailing name
  std::string name;  ///< empty for unnamed parameters
};

struct CallSite {
  std::string callee;       ///< full chain, spaces removed: "obs::event"
  std::string base_name;    ///< last identifier: "event"
  std::vector<std::string> args;  ///< top-level comma split, trimmed
  std::size_t offset = 0;   ///< offset of the callee's first token
};

struct VarDecl {
  std::string name;
  std::string type;
  std::string init;  ///< initializer text incl. delimiters, "" if none
  std::size_t offset = 0;
};

struct LockHold {
  std::string mutex_name;        ///< e.g. "mu_" (one entry per lock arg)
  std::size_t begin_offset = 0;  ///< where the guard is declared
  std::size_t end_offset = 0;    ///< end of its enclosing block scope
};

struct ReturnExpr {
  std::string text;
  std::size_t offset = 0;
};

struct MemberAccess {
  std::string name;
  std::size_t offset = 0;
};

struct RangeForLoop {
  std::string range_text;        ///< expression after ':'
  std::size_t body_begin = 0;    ///< offset just inside the loop body
  std::size_t body_end = 0;
};

struct CompoundAssign {
  std::string lhs;               ///< identifier on the left of +=/-=/*=
  std::size_t offset = 0;
};

/// One control-flow condition whose evaluation gates execution timing:
/// `if (...)`, `while (...)`, the trailing `while` of do-while,
/// `switch (...)`, or the expression before a ternary '?'. Classic
/// `for` middle clauses are recorded as LoopSite bounds instead.
struct ConditionSite {
  enum class Kind { kIf, kWhile, kDoWhile, kSwitch, kTernary };
  Kind kind = Kind::kIf;
  std::string text;        ///< condition expression text
  std::size_t offset = 0;  ///< offset of the controlling keyword / '?'
};

/// One subscript expression `base[index]` in a body (array declarators
/// `double buf[N]` are recorded too: a secret-sized buffer is itself a
/// variable-time allocation).
struct SubscriptSite {
  std::string index_text;  ///< text inside the brackets
  std::size_t offset = 0;  ///< offset of the '['
};

/// One '/' or '%' (including '/=', '%=') with its operand texts: the
/// left operand is the postfix chain directly before the operator, the
/// right operand runs to the next top-level expression boundary.
struct DivModSite {
  std::string lhs;
  std::string rhs;
  std::size_t offset = 0;
};

/// One loop with the expression controlling its trip count: the middle
/// clause of a classic `for`, a `while` condition, or a range-for range.
struct LoopSite {
  std::string bound_text;      ///< trip-count-controlling expression
  std::size_t offset = 0;      ///< offset of the loop keyword
  std::size_t body_begin = 0;  ///< offset just inside the loop body
  std::size_t body_end = 0;
};

/// One store: `head[sub] = rhs`, `head.field = rhs`, `head += rhs`, ...
/// `head` is the base identifier of the assigned chain, so `*jobs[s].dst
/// = v` records head "jobs" with subscript "s".
struct WriteSite {
  std::string head;        ///< base identifier of the assigned lvalue
  std::string subscript;   ///< concatenated [..] index texts, "" if none
  std::string rhs;         ///< right-hand-side text up to ';'
  bool is_compound = false;  ///< += or -= (read-modify-write)
  std::size_t offset = 0;
};

/// One `ThreadPool::parallel_for(n, [captures](begin, end) {...})` call:
/// the lambda body is a concurrent scope. Functions annotated
/// `// analock: parallel_region` are modeled the same way with their
/// whole body as the region and params named begin/end as induction
/// variables.
struct ParallelRegion {
  std::size_t body_begin = 0;    ///< offset just inside the lambda '{'
  std::size_t body_end = 0;      ///< offset of the matching '}'
  bool capture_default_copy = false;  ///< [=]
  std::vector<std::string> ref_captures;   ///< explicit &name captures
  std::vector<std::string> copy_captures;  ///< explicit by-value captures
  std::vector<std::string> params;  ///< lambda params (induction vars)
};

struct FunctionDef {
  std::string qualified_name;  ///< "ns::Class::method" or "free_fn"
  std::string class_name;      ///< enclosing/owner class, "" for free fns
  std::string base_name;       ///< unqualified name
  std::vector<Param> params;
  bool is_ctor_or_dtor = false;
  std::string requires_mutex;  ///< from `// analock: requires(m)`
  bool is_parallel_region = false;  ///< `// analock: parallel_region`
  bool is_thread_safe = false;      ///< `// analock: thread_safe`
  bool is_ct_safe = false;          ///< `// analock: ct_safe`
  std::size_t name_offset = 0;
  std::size_t body_begin = 0;  ///< offset just inside '{'
  std::size_t body_end = 0;    ///< offset of matching '}'

  // Body-level extraction.
  std::vector<CallSite> calls;
  std::vector<VarDecl> locals;
  std::vector<LockHold> locks;
  std::vector<ReturnExpr> returns;
  std::vector<MemberAccess> accesses;   ///< bare identifier occurrences
  std::vector<RangeForLoop> range_fors;
  std::vector<CompoundAssign> compound_assigns;
  std::vector<WriteSite> writes;
  std::vector<ParallelRegion> parallel_regions;
  std::vector<ConditionSite> conditions;
  std::vector<SubscriptSite> subscripts;
  std::vector<DivModSite> divmods;
  std::vector<LoopSite> loops;
  std::vector<std::size_t> break_offsets;  ///< offsets of `break` tokens
};

struct AnnotatedMember {
  std::string class_name;
  std::string member_name;
  std::string mutex_name;
};

/// Everything extracted from one file.
struct ParsedFile {
  const SourceFile* source = nullptr;
  std::vector<FunctionDef> functions;
  std::vector<AnnotatedMember> guarded_members;
  bool bit_exact = false;  ///< file carries `// analock: bit_exact`
};

/// Parses one file. `source` must outlive the returned ParsedFile.
[[nodiscard]] ParsedFile parse_file(const SourceFile& source);

/// Letters, digits and '_'.
[[nodiscard]] inline bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Whole-word containment ('_' counts as a word character).
[[nodiscard]] bool contains_word(std::string_view text, std::string_view word);

/// `text` without leading and trailing whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// Offset of the first non-whitespace character at or after `pos`;
/// text.size() when there is none.
[[nodiscard]] std::size_t skip_space(std::string_view text, std::size_t pos);

/// Offset of the ')' matching the '(' at `open`; text.size() when the
/// parentheses are unbalanced.
[[nodiscard]] std::size_t close_paren(std::string_view text, std::size_t open);

/// Applies `fn(identifier, offset)` to each identifier run of `text`
/// until it returns false. A run starts at a letter or '_', so the `ull`
/// of `1ull` is one too.
template <typename Fn>
void for_each_identifier(std::string_view text, Fn fn) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i + 1;
      while (j < n && is_word_char(text[j])) ++j;
      if (!fn(text.substr(i, j - i), i)) return;
      i = j;
    } else {
      ++i;
    }
  }
}

/// One call `name(` spelled in an expression text.
struct TextCall {
  std::string_view name;
  std::size_t begin = 0;  ///< offset of the name
  std::size_t open = 0;   ///< offset of the '('
  bool member = false;    ///< reached through '.' or '->'
};

/// Applies `fn` to each call in `text`, in position order, until it
/// returns false. `fn` may overwrite characters of the text it scans
/// (the scan resumes after the name), but not resize it.
template <typename Fn>
void for_each_call(std::string_view text, Fn fn) {
  for_each_identifier(text, [&](std::string_view name, std::size_t begin) {
    if (begin > 0 && is_word_char(text[begin - 1])) return true;  // `1ull`
    const std::size_t open = skip_space(text, begin + name.size());
    if (open >= text.size() || text[open] != '(') return true;
    const bool member =
        (begin >= 1 && text[begin - 1] == '.') ||
        (begin >= 2 && text[begin - 2] == '-' && text[begin - 1] == '>');
    return fn(TextCall{name, begin, open, member});
  });
}

/// Splits an argument list on top-level commas (respects (), [], {},
/// and <> nesting) and trims whitespace from each piece.
[[nodiscard]] std::vector<std::string> split_top_level_args(
    std::string_view args);

}  // namespace analock::analysis
