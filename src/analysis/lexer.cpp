#include "analysis/lexer.h"

namespace analock::analysis {

namespace {

// ASCII classification, inline: the <cctype> calls go through the locale
// tables on every character, and source text is ASCII where it matters.
bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool is_ident_char(char c) { return is_ident_start(c) || is_digit(c); }

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// True when text[i] begins a raw-string literal (R" with an optional
/// u8/u/U/L prefix); on success sets `start` to the index of the 'R'.
bool at_raw_string(std::string_view text, std::size_t i, std::size_t& start) {
  std::size_t r = i;
  if (r + 1 < text.size() && (text[r] == 'u' || text[r] == 'U' ||
                              text[r] == 'L')) {
    if (text[r] == 'u' && r + 2 < text.size() && text[r + 1] == '8') ++r;
    ++r;
  }
  if (r + 1 >= text.size() || text[r] != 'R' || text[r + 1] != '"') {
    return false;
  }
  // The prefix must not be the tail of a longer identifier.
  if (i > 0 && is_ident_char(text[i - 1])) return false;
  start = r;
  return true;
}

/// The multi-character operators kept as one token: :: -> << >> == !=
/// += -= *= /= && || <= >= ++ --.
bool is_two_char_op(char a, char b) {
  switch (a) {
    case ':': return b == ':';
    case '-': return b == '>' || b == '=' || b == '-';
    case '<': return b == '<' || b == '=';
    case '>': return b == '>' || b == '=';
    case '+': return b == '+' || b == '=';
    case '=': case '!': case '*': case '/': return b == '=';
    case '&': return b == '&';
    case '|': return b == '|';
    default: return false;
  }
}

void blank(std::string& out, std::size_t i) {
  if (out[i] != '\n') out[i] = ' ';
}

}  // namespace

std::string strip_source(std::string_view text) {
  std::string out(text);
  const std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    const char nxt = i + 1 < n ? text[i + 1] : '\0';
    if (c == '/' && nxt == '/') {
      while (i < n && text[i] != '\n') {
        out[i] = ' ';
        ++i;
      }
    } else if (c == '/' && nxt == '*') {
      out[i] = out[i + 1] = ' ';
      i += 2;
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        blank(out, i);
        ++i;
      }
      if (i < n) {
        out[i] = ' ';
        if (i + 1 < n) out[i + 1] = ' ';
        i += 2;
      }
    } else if (is_ident_start(c) || is_digit(c)) {
      std::size_t raw_r = 0;
      if (is_ident_start(c) && at_raw_string(text, i, raw_r)) {
        // R"delim( ... )delim"
        std::size_t j = raw_r + 2;  // past R"
        std::string delim;
        while (j < n && text[j] != '(') delim += text[j++];
        const std::string closer = ")" + delim + "\"";
        const std::size_t body = j + 1;
        const std::size_t end = text.find(closer, body);
        const std::size_t stop =
            end == std::string_view::npos ? n : end + closer.size();
        for (std::size_t k = i; k < stop; ++k) blank(out, k);
        i = stop;
        continue;
      }
      // Identifier or number: consume as a unit so that apostrophes used
      // as C++14 digit separators (0xA5A5'5A5A) and the suffix of an
      // identifier never open a char literal.
      ++i;
      while (i < n) {
        if (is_ident_char(text[i])) {
          ++i;
        } else if (text[i] == '\'' && i + 1 < n && is_ident_char(text[i + 1]) &&
                   is_ident_char(text[i - 1])) {
          i += 2;  // digit separator
        } else {
          break;
        }
      }
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      out[i] = ' ';
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          out[i] = ' ';
          blank(out, i + 1);
          i += 2;
          continue;
        }
        blank(out, i);
        ++i;
      }
      if (i < n) {
        out[i] = ' ';
        ++i;
      }
    } else {
      ++i;
    }
  }
  return out;
}

bool is_cmake_path(std::string_view path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  return name == "CMakeLists.txt" ||
         (name.size() > 6 && name.substr(name.size() - 6) == ".cmake");
}

std::string strip_cmake(std::string_view text) {
  std::string out(text);
  bool in_comment = false;
  for (char& c : out) {
    if (c == '\n') {
      in_comment = false;
    } else if (c == '#' || in_comment) {
      in_comment = true;
      c = ' ';
    }
  }
  return out;
}

std::vector<std::size_t> compute_line_starts(std::string_view text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::vector<Token> tokenize(std::string_view stripped) {
  std::vector<Token> tokens;
  tokens.reserve(stripped.size() / 4 + 8);
  const std::size_t n = stripped.size();
  std::size_t i = 0;
  while (i < n) {
    const char c = stripped[i];
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(stripped[j])) ++j;
      tokens.push_back(
          {TokKind::kIdentifier, stripped.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (is_digit(c)) {
      std::size_t j = i + 1;
      while (j < n &&
             (is_ident_char(stripped[j]) || stripped[j] == '\'' ||
              ((stripped[j] == '+' || stripped[j] == '-') &&
               (stripped[j - 1] == 'e' || stripped[j - 1] == 'E' ||
                stripped[j - 1] == 'p' || stripped[j - 1] == 'P')) ||
              (stripped[j] == '.' && j + 1 < n && is_digit(stripped[j + 1])))) {
        ++j;
      }
      tokens.push_back({TokKind::kNumber, stripped.substr(i, j - i), i});
      i = j;
      continue;
    }
    const std::size_t len =
        i + 1 < n && is_two_char_op(c, stripped[i + 1]) ? 2 : 1;
    tokens.push_back({TokKind::kPunct, stripped.substr(i, len), i});
    i += len;
  }
  return tokens;
}

}  // namespace analock::analysis
