// Offset-preserving C++ lexing for the analock-verify engine.
//
// strip_source() blanks comments and string/char literals while keeping
// the text the same length, so offsets and line numbers in the stripped
// image map 1:1 onto the original file. It understands raw string
// literals (R"delim(...)delim", including the u8R/uR/LR prefixes) and
// C++14 digit separators. CMake files (CMakeLists.txt, *.cmake) get
// strip_cmake() instead, which blanks only `#` comments.
//
// tokenize() then produces a flat token stream over the stripped text:
// identifiers, numbers (with C++14 digit separators), and punctuation,
// with multi-character operators the analyses care about (::, ->, <<,
// >>, ==, !=, +=, -=, &&, ||, <=, >=) kept as single tokens.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace analock::analysis {

/// Blanks comments and string/char literals; preserves length and
/// newlines so offsets stay aligned with the original text.
[[nodiscard]] std::string strip_source(std::string_view text);

/// True for CMake build files: a file named CMakeLists.txt or ending in
/// .cmake. The engine never parses these as C++.
[[nodiscard]] bool is_cmake_path(std::string_view path);

/// Blanks `#` comments in CMake text, preserving length and newlines.
/// Quoted arguments stay intact: compiler flags live in them.
[[nodiscard]] std::string strip_cmake(std::string_view text);

enum class TokKind : std::uint8_t {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,      ///< integer/float literal (digit separators folded in)
  kPunct,       ///< single punctuation char or multi-char operator
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;     ///< view into the stripped buffer
  std::size_t offset = 0;    ///< byte offset in the (stripped) file

  [[nodiscard]] bool is(std::string_view s) const { return text == s; }
  [[nodiscard]] bool is_ident() const { return kind == TokKind::kIdentifier; }
};

/// Tokenizes stripped text. The returned tokens view into `stripped`,
/// which must outlive them.
[[nodiscard]] std::vector<Token> tokenize(std::string_view stripped);

/// Offsets of each line start ("\n"-delimited), always starting with 0.
[[nodiscard]] std::vector<std::size_t> compute_line_starts(
    std::string_view text);

}  // namespace analock::analysis
