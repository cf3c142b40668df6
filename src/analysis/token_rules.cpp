// Per-file token rules: the checks one expression decides, with no
// dataflow and no fixed point. Each C++ source is tokenized once and
// walked once; a CMake file is scanned as comment-stripped text.
//
//   determinism-clock  system_clock / steady_clock / high_resolution_clock
//                      ::now(). Time must come through an injected
//                      obs::Clock so runs replay bit-exactly.
//   secret-compare     ==/!= whose operand chain names key material by
//                      the shared oracle (is_secret_identifier, plus the
//                      .bits()/.to_hex() accessors). An early-exit compare
//                      leaks the matching prefix through its latency; use
//                      analock::ct_equal. Library callees such as memcmp
//                      belong to ct-leak-call.
//   shift-overflow     a literal shifted by a literal count past its
//                      operand width (`1 << 40`, `1ull << 64`,
//                      `511ull << 56`).
//   build-hygiene      `#pragma STDC FP_CONTRACT ON` in a source, and
//                      -ffast-math / -funsafe-math-optimizations /
//                      -ffp-contract=fast / /fp:fast / -Ofast in a CMake
//                      file. Any of them voids the batch engine's
//                      bit-exactness contract.
//   rng-source         the ambient forms of the determinism pass's rule:
//                      std::random_device, rand()/srand(), time(nullptr),
//                      default-constructed engine temporaries
//                      (std::mt19937{}), and std::shuffle/std::sample
//                      whose engine argument is not sim-derived.
#include <bit>
#include <charconv>
#include <optional>
#include <string>

#include "analysis/analyses.h"
#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

class TokenPass {
 public:
  TokenPass(const SourceFile& source, std::vector<Finding>& out)
      : source_(source), toks_(tokenize(source.stripped)), out_(out) {}

  void run() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.is("==") || t.is("!=")) {
        check_compare(i);
      } else if (t.is("<<")) {
        check_shift(i);
      } else if (t.is("#")) {
        check_pragma(i);
      } else if (t.is_ident()) {
        check_clock(i);
        check_ambient_rng(i);
      }
    }
  }

 private:
  [[nodiscard]] bool at(std::size_t i, std::string_view text) const {
    return i < toks_.size() && toks_[i].is(text);
  }

  /// Token index of the bracket matching the one at `i`, scanning in the
  /// direction `step` (+1 from an opener, -1 from a closer); npos when
  /// unbalanced.
  [[nodiscard]] std::size_t match(std::size_t i, int step) const {
    int depth = 0;
    for (std::size_t j = i; j < toks_.size();
         j = step > 0 ? j + 1 : j - 1) {
      const std::string_view s = toks_[j].text;
      if (s == "(" || s == "[" || s == "{") depth += step;
      if (s == ")" || s == "]" || s == "}") depth -= step;
      if (depth == 0) return j;
      if (j == 0) break;
    }
    return std::string::npos;
  }

  /// A free call (or a std:: one): not reached through `.`/`->` and not
  /// qualified by another namespace.
  [[nodiscard]] bool is_free_name(std::size_t i) const {
    if (i == 0) return true;
    if (at(i - 1, ".") || at(i - 1, "->")) return false;
    if (at(i - 1, "::")) return i >= 2 && at(i - 2, "std");
    return true;
  }

  // ------------------------------------------------------ secret-compare

  /// Identifier token indices of the postfix chain (a.b->c(...)[...])
  /// that ends at token `end - 1`. Argument and subscript contents are
  /// skipped, and a parenthesized expression ends the chain unseen.
  [[nodiscard]] std::vector<std::size_t> chain_before(std::size_t end) const {
    std::vector<std::size_t> chain;
    std::size_t j = end;
    while (j > 0) {
      const Token& t = toks_[j - 1];
      if (t.is(")") || t.is("]")) {
        const std::size_t open = match(j - 1, -1);
        if (open == std::string::npos || open == 0) break;
        if (t.is(")") && !toks_[open - 1].is_ident()) break;
        j = open;
        continue;
      }
      if (!t.is_ident()) break;
      chain.push_back(--j);
      if (j == 0 || !(at(j - 1, ".") || at(j - 1, "->") || at(j - 1, "::"))) {
        break;
      }
      --j;
    }
    return chain;
  }

  /// The postfix chain that starts at token `begin`, after any prefix
  /// operators.
  [[nodiscard]] std::vector<std::size_t> chain_after(std::size_t begin) const {
    std::vector<std::size_t> chain;
    std::size_t j = begin;
    while (at(j, "!") || at(j, "~") || at(j, "*") || at(j, "&")) ++j;
    while (j < toks_.size() && toks_[j].is_ident()) {
      chain.push_back(j++);
      while (at(j, "(") || at(j, "[")) {
        const std::size_t close = match(j, +1);
        if (close == std::string::npos) return chain;
        j = close + 1;
      }
      if (!(at(j, ".") || at(j, "->") || at(j, "::"))) break;
      ++j;
    }
    return chain;
  }

  /// Witness text when an operand chain carries key material by the
  /// shared oracle. A callee name is not a witness (a function named
  /// load_config_key is not itself key material), except the raw-key
  /// accessors; length and presence are public by policy, so a chain
  /// through .size()/.empty()/.has_value()/... carries nothing.
  [[nodiscard]] std::string witness(const std::vector<std::size_t>& chain) const {
    std::string found;
    for (const std::size_t i : chain) {
      const std::string_view name = toks_[i].text;
      const bool called = at(i + 1, "(");
      const bool member = i > 0 && (at(i - 1, ".") || at(i - 1, "->"));
      if (called && member && is_public_shape_accessor(name)) return {};
      if (!found.empty()) continue;
      if (!called && is_secret_identifier(name)) {
        found = name;
      } else if (called && member && is_raw_key_accessor(name)) {
        found = name;
        found += "() accessor";
      }
    }
    return found;
  }

  void check_compare(std::size_t i) {
    if (i > 0 && at(i - 1, "operator")) return;
    std::string w = witness(chain_before(i));
    if (w.empty()) w = witness(chain_after(i + 1));
    if (w.empty()) return;
    out_.push_back(make_finding(
        source_, toks_[i].offset, "secret-compare",
        "early-exit " + std::string(toks_[i].text) + " on key material (" +
            w + "); use analock::ct_equal (lock/ct_equal.h)"));
  }

  // ------------------------------------------------------ shift-overflow

  struct IntLiteral {
    std::uint64_t value = 0;
    bool wide = false;  ///< 64-bit operand (LP64)
  };

  /// Parses an integer literal token ("511ull", "0x1F", "1'000u");
  /// nothing for floats and anything else.
  static std::optional<IntLiteral> int_literal(std::string_view text) {
    std::string digits(text);
    std::erase(digits, '\'');
    const bool hex = digits.size() > 2 && digits[0] == '0' &&
                     (digits[1] == 'x' || digits[1] == 'X');
    const char* first = digits.data() + (hex ? 2 : 0);
    const char* last = digits.data() + digits.size();
    IntLiteral out;
    const auto [end, ec] = std::from_chars(first, last, out.value, hex ? 16 : 10);
    if (ec != std::errc() || end == first) return std::nullopt;
    const std::string_view suffix(end, static_cast<std::size_t>(last - end));
    if (suffix.find_first_not_of("uUlL") != std::string_view::npos) {
      return std::nullopt;
    }
    // An 'l' suffix, or a literal too big for 32 bits, is 64-bit.
    out.wide = suffix.find_first_of("lL") != std::string_view::npos ||
               out.value > 0xFFFFFFFFu;
    return out;
  }

  void check_shift(std::size_t i) {
    if (i == 0 || i + 1 >= toks_.size()) return;
    const Token& lhs = toks_[i - 1];
    const Token& rhs = toks_[i + 1];
    if (lhs.kind != TokKind::kNumber || rhs.kind != TokKind::kNumber) return;
    const std::optional<IntLiteral> base = int_literal(lhs.text);
    const std::optional<IntLiteral> shift = int_literal(rhs.text);
    if (!base || !shift || shift->value < 32) return;
    const std::uint64_t limit = base->wide ? 63 : 31;
    const std::uint64_t top_bit =
        base->value == 0 ? 0 : std::bit_width(base->value) - 1;
    if (shift->value <= limit && top_bit + shift->value <= limit) return;
    out_.push_back(make_finding(
        source_, lhs.offset, "shift-overflow",
        "literal shift " + std::string(lhs.text) + " << " +
            std::string(rhs.text) + " overflows a " +
            std::to_string(limit + 1) +
            "-bit operand (UB); widen the operand "
            "(e.g. std::uint64_t{1} << n) or reduce the shift"));
  }

  // ------------------------------------------------------- build-hygiene

  void check_pragma(std::size_t i) {
    if (at(i + 1, "pragma") && at(i + 2, "STDC") &&
        at(i + 3, "FP_CONTRACT") && at(i + 4, "ON")) {
      out_.push_back(make_finding(
          source_, toks_[i].offset, "build-hygiene",
          "'#pragma STDC FP_CONTRACT ON' contracts a*b+c into one "
          "rounding, breaking the batch engine's bit-exactness contract"));
    }
  }

  // --------------------------------------------------- determinism-clock

  void check_clock(std::size_t i) {
    const std::string_view name = toks_[i].text;
    if ((name == "system_clock" || name == "steady_clock" ||
         name == "high_resolution_clock") &&
        at(i + 1, "::") && at(i + 2, "now")) {
      out_.push_back(make_finding(
          source_, toks_[i].offset, "determinism-clock",
          "ambient clock read " + std::string(name) +
              "::now(); inject an obs::Clock so runs replay bit-exactly"));
    }
  }

  // ---------------------------------------------------------- rng-source

  void check_ambient_rng(std::size_t i) {
    const std::string_view name = toks_[i].text;
    if (name == "random_device" && is_free_name(i)) {
      out_.push_back(make_finding(
          source_, toks_[i].offset, "rng-source",
          "std::random_device is ambient entropy; fork a seeded sim::Rng "
          "stream"));
    } else if ((name == "rand" || name == "srand") && at(i + 1, "(") &&
               is_free_name(i)) {
      out_.push_back(make_finding(
          source_, toks_[i].offset, "rng-source",
          std::string(name) +
              "() breaks seeded reproducibility; use sim::Rng"));
    } else if (name == "time" && at(i + 1, "(") && is_free_name(i)) {
      const std::size_t arg = i + 2;
      const bool seedless =
          at(arg, ")") || ((at(arg, "nullptr") || at(arg, "NULL") ||
                            at(arg, "0")) &&
                           at(arg + 1, ")"));
      if (seedless) {
        out_.push_back(make_finding(
            source_, toks_[i].offset, "rng-source",
            "time() used as seed material; seeds must be explicit and "
            "named"));
      }
    } else if (is_std_engine_name(name) && is_free_name(i) &&
               ((at(i + 1, "{") && at(i + 2, "}")) ||
                (at(i + 1, "(") && at(i + 2, ")")))) {
      out_.push_back(make_finding(
          source_, toks_[i].offset, "rng-source",
          "default-seeded std <random> engine temporary; derive the seed "
          "from a named sim::Rng stream (Rng::fork)"));
    } else if ((name == "shuffle" || name == "sample") && i >= 2 &&
               at(i - 1, "::") && at(i - 2, "std") && at(i + 1, "(")) {
      check_urbg(i);
    }
  }

  /// std::shuffle / std::sample draw from their last argument.
  void check_urbg(std::size_t i) {
    const std::size_t close = match(i + 1, +1);
    if (close == std::string::npos) return;
    std::size_t last = i + 2;  // first token of the last argument
    for (std::size_t j = i + 2; j < close; ++j) {
      const std::string_view s = toks_[j].text;
      if (s == "(" || s == "[" || s == "{") {
        j = match(j, +1);  // balanced: the call's own closer matched
      } else if (s == ",") {
        last = j + 1;
      }
    }
    if (last >= close) return;
    const std::size_t begin = toks_[last].offset;
    const std::string_view urbg = std::string_view(source_.stripped)
                                      .substr(begin, toks_[close].offset - begin);
    if (seed_is_sim_derived(urbg)) return;
    out_.push_back(make_finding(
        source_, toks_[i - 2].offset, "rng-source",
        "std::" + std::string(toks_[i].text) +
            " draws from an engine that is not derived from a seeded "
            "sim::Rng stream"));
  }

  const SourceFile& source_;
  const std::vector<Token> toks_;
  std::vector<Finding>& out_;
};

/// Value-unsafe FP flags; a CMake file's `#` comments are already blank.
void check_cmake_flags(const SourceFile& source, std::vector<Finding>& out) {
  static constexpr std::string_view kFlags[] = {
      "-ffast-math", "-funsafe-math-optimizations", "-ffp-contract=fast",
      "/fp:fast",    "-fp:fast",                    "-Ofast",
  };
  const std::string_view text = source.stripped;
  for (const std::string_view flag : kFlags) {
    for (std::size_t pos = text.find(flag); pos != std::string_view::npos;
         pos = text.find(flag, pos + 1)) {
      out.push_back(make_finding(
          source, pos, "build-hygiene",
          std::string(flag) +
              " reassociates or contracts floating point, so batch "
              "results would differ from the one-key path and across "
              "thread counts"));
    }
  }
}

}  // namespace

void run_token_rules(const SourceFile& source, std::vector<Finding>& out) {
  if (is_cmake_path(source.path)) {
    check_cmake_flags(source, out);
  } else {
    TokenPass(source, out).run();
  }
}

}  // namespace analock::analysis
