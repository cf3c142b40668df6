// Core data model of the analock-verify static-analysis engine.
//
// The engine (engine.h) loads every translation unit of interest as a
// SourceFile: the original text plus an offset-preserving "stripped"
// image with comments and string/char literals blanked out, so every
// downstream pass can match tokens without tripping over literal text
// while still reporting exact line/column positions in the original.
//
// Findings are the engine's only output currency. Each one carries a
// stable fingerprint (rule + path + normalized line text) so SARIF
// baselines survive unrelated line-number churn.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace analock::analysis {

/// One loaded translation unit (or header).
struct SourceFile {
  std::string path;      ///< display path (repo-relative when possible)
  std::string text;      ///< original contents
  std::string stripped;  ///< comments/strings blanked, same length as text
  std::vector<std::size_t> line_starts;  ///< offset of each line start

  /// 1-based line number of a character offset.
  [[nodiscard]] int line_of(std::size_t offset) const;
  /// 1-based column of a character offset.
  [[nodiscard]] int col_of(std::size_t offset) const;
  /// Original text of a 1-based line (no trailing newline).
  [[nodiscard]] std::string_view line_text(int line) const;
};

/// The analyzer's rule catalog. Every Finding::rule is one of these.
struct RuleInfo {
  const char* id;
  const char* short_description;
};

[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();
[[nodiscard]] bool is_known_rule(std::string_view rule);

/// One diagnostic.
struct Finding {
  std::string file;
  int line = 1;
  int col = 1;
  std::string rule;
  std::string message;
  std::string fingerprint;  ///< stable hash, see compute_fingerprint()

  /// GCC-style one-line rendering: file:line:col: warning: msg [rule]
  [[nodiscard]] std::string render() const;
};

/// A `rule` finding at character `offset` of `source` (no fingerprint
/// yet: the engine attaches it after suppression).
[[nodiscard]] Finding make_finding(const SourceFile& source,
                                   std::size_t offset, std::string rule,
                                   std::string message);

/// FNV-1a 64-bit hash (stable across platforms; used for fingerprints).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Stable identity of a finding: hashes rule, path, and the
/// whitespace-normalized original source line, so renumbering lines or
/// editing unrelated code does not invalidate a SARIF baseline entry.
[[nodiscard]] std::string compute_fingerprint(std::string_view rule,
                                              std::string_view path,
                                              std::string_view line_text);

}  // namespace analock::analysis
