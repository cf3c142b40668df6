#include "analysis/parser.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <set>

namespace analock::analysis {

namespace {

const std::set<std::string_view>& non_callee_keywords() {
  static const std::set<std::string_view> kw = {
      "if",     "for",      "while",  "switch",        "return",
      "catch",  "sizeof",   "alignof", "decltype",     "static_assert",
      "new",    "delete",   "throw",  "case",          "co_return",
      "co_await", "co_yield", "not",  "and",           "or",
  };
  return kw;
}

bool is_type_intro_keyword(std::string_view t) {
  return t == "const" || t == "constexpr" || t == "static" ||
         t == "mutable" || t == "volatile" || t == "auto" ||
         t == "unsigned" || t == "signed" || t == "typename" ||
         t == "inline" || t == "thread_local" || t == "register";
}

bool is_stmt_keyword(std::string_view t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "return" || t == "do" || t == "else" || t == "case" ||
         t == "break" || t == "continue" || t == "goto" || t == "try" ||
         t == "catch" || t == "throw" || t == "using" || t == "delete" ||
         t == "default" || t == "public" || t == "private" ||
         t == "protected";
}

/// Matching-bracket maps over a token stream (token index -> token
/// index). Unbalanced brackets match to the end of the stream.
struct BracketMap {
  std::vector<std::size_t> paren_close;  ///< index of ')' for each '('
  std::vector<std::size_t> brace_close;  ///< index of '}' for each '{'

  explicit BracketMap(const std::vector<Token>& toks)
      : paren_close(toks.size(), toks.size()),
        brace_close(toks.size(), toks.size()) {
    std::vector<std::size_t> parens;
    std::vector<std::size_t> braces;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string_view t = toks[i].text;
      if (t == "(") {
        parens.push_back(i);
      } else if (t == ")") {
        if (!parens.empty()) {
          paren_close[parens.back()] = i;
          parens.pop_back();
        }
      } else if (t == "{") {
        braces.push_back(i);
      } else if (t == "}") {
        if (!braces.empty()) {
          brace_close[braces.back()] = i;
          braces.pop_back();
        }
      }
    }
  }
};

struct ScopeEntry {
  enum class Kind { kNamespace, kClass } kind;
  std::string name;
  std::size_t close_tok;
};

struct ClassRange {
  std::string name;
  std::size_t begin_offset;
  std::size_t end_offset;
};

/// Text between two token indices in the stripped buffer.
std::string slice(const std::string& code, const std::vector<Token>& toks,
                  std::size_t first_tok, std::size_t last_tok_exclusive) {
  if (first_tok >= last_tok_exclusive || first_tok >= toks.size()) return {};
  const std::size_t begin = toks[first_tok].offset;
  const std::size_t end = last_tok_exclusive <= toks.size() &&
                                  last_tok_exclusive > 0
                              ? toks[last_tok_exclusive - 1].offset +
                                    toks[last_tok_exclusive - 1].text.size()
                              : code.size();
  if (end <= begin) return {};
  return trim(std::string_view(code).substr(begin, end - begin));
}

class FileParser {
 public:
  FileParser(const SourceFile& source, ParsedFile& out)
      : source_(source), out_(out) {
    // Preprocessor lines (and their backslash continuations) are noise
    // to a token-level parser: blank them before tokenizing.
    code_ = source.stripped;
    blank_preprocessor_lines();
    toks_ = tokenize(code_);
    brackets_ = std::make_unique<BracketMap>(toks_);
  }

  void run() {
    parse_outer();
    collect_guarded_members();
    detect_bit_exact();
  }

 private:
  void blank_preprocessor_lines() {
    bool continued = false;
    std::size_t i = 0;
    const std::size_t n = code_.size();
    while (i < n) {
      std::size_t line_end = code_.find('\n', i);
      if (line_end == std::string::npos) line_end = n;
      std::size_t first = i;
      while (first < line_end &&
             (code_[first] == ' ' || code_[first] == '\t')) {
        ++first;
      }
      const bool directive =
          continued || (first < line_end && code_[first] == '#');
      if (directive) {
        continued = line_end > i && code_[line_end - 1] == '\\';
        for (std::size_t k = i; k < line_end; ++k) code_[k] = ' ';
      } else {
        continued = false;
      }
      i = line_end + 1;
    }
  }

  // ------------------------------------------------------------- outer walk

  void parse_outer() {
    std::size_t i = 0;
    while (i < toks_.size()) {
      pop_scopes(i);
      const std::string_view t = toks_[i].text;
      if (t == "namespace") {
        i = handle_namespace(i);
      } else if ((t == "class" || t == "struct" || t == "union") &&
                 (i == 0 || toks_[i - 1].text != "enum")) {
        i = handle_class(i);
      } else if (t == "enum") {
        i = skip_enum(i);
      } else if (t == "template") {
        i = skip_template_params(i + 1);
      } else if (t == "(") {
        std::size_t next = i + 1;
        if (try_function_def(i, next)) {
          i = next;
        } else {
          ++i;
        }
      } else {
        ++i;
      }
    }
  }

  void pop_scopes(std::size_t i) {
    while (!scopes_.empty() && i >= scopes_.back().close_tok) {
      scopes_.pop_back();
    }
  }

  std::size_t handle_namespace(std::size_t i) {
    std::string name;
    std::size_t j = i + 1;
    while (j < toks_.size() && (toks_[j].is_ident() || toks_[j].is("::"))) {
      name += toks_[j].text;
      ++j;
    }
    if (j < toks_.size() && toks_[j].is("{")) {
      scopes_.push_back({ScopeEntry::Kind::kNamespace,
                         name.empty() ? std::string("<anon>") : name,
                         brackets_->brace_close[j]});
      return j + 1;
    }
    // Namespace alias or malformed: skip to ';'.
    while (j < toks_.size() && !toks_[j].is(";")) ++j;
    return j + 1;
  }

  std::size_t handle_class(std::size_t i) {
    std::string name;
    std::size_t j = i + 1;
    // First identifier (skipping attribute brackets) is the class name.
    while (j < toks_.size() && !toks_[j].is_ident() && !toks_[j].is("{") &&
           !toks_[j].is(";")) {
      ++j;
    }
    if (j < toks_.size() && toks_[j].is_ident()) {
      name = std::string(toks_[j].text);
      ++j;
    }
    // Scan to the body '{' or forward-declaration ';', skipping template
    // arguments in base clauses.
    int angle = 0;
    while (j < toks_.size()) {
      const std::string_view t = toks_[j].text;
      if (t == "<") {
        ++angle;
      } else if (t == ">") {
        angle = std::max(0, angle - 1);
      } else if (t == ">>") {
        angle = std::max(0, angle - 2);
      } else if (t == "(") {
        j = brackets_->paren_close[j];
      } else if (angle == 0 && t == "{") {
        const std::size_t close = brackets_->brace_close[j];
        scopes_.push_back({ScopeEntry::Kind::kClass, name, close});
        class_ranges_.push_back(
            {name, toks_[j].offset,
             close < toks_.size() ? toks_[close].offset : code_.size()});
        return j + 1;
      } else if (angle == 0 && t == ";") {
        return j + 1;
      }
      ++j;
    }
    return j;
  }

  std::size_t skip_enum(std::size_t i) {
    std::size_t j = i + 1;
    while (j < toks_.size() && !toks_[j].is("{") && !toks_[j].is(";")) ++j;
    if (j < toks_.size() && toks_[j].is("{")) {
      return brackets_->brace_close[j] + 1;
    }
    return j + 1;
  }

  std::size_t skip_template_params(std::size_t i) {
    if (i >= toks_.size() || !toks_[i].is("<")) return i;
    int depth = 0;
    while (i < toks_.size()) {
      const std::string_view t = toks_[i].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) return i + 1;
      } else if (t == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      } else if (t == "(") {
        i = brackets_->paren_close[i];
      }
      ++i;
    }
    return i;
  }

  /// Walks back from the '(' at `paren` collecting the declarator chain
  /// ("Registry::counter", "operator<<", "~JsonlSink"). Returns false
  /// when the preceding tokens are not a plausible function name.
  bool collect_name_chain(std::size_t paren, std::string& chain,
                          std::size_t& name_start_tok) const {
    if (paren == 0) return false;
    std::size_t j = paren - 1;
    std::vector<std::string_view> parts;
    if (!toks_[j].is_ident()) {
      // operator<<, operator==, operator(), ...
      if (toks_[j].kind == TokKind::kPunct && j >= 1 &&
          toks_[j - 1].is("operator")) {
        parts.push_back(toks_[j].text);
        parts.push_back(toks_[j - 1].text);
        j = j >= 2 ? j - 2 : 0;
      } else if (toks_[j].is("]") && j >= 2 && toks_[j - 1].is("[") &&
                 toks_[j - 2].is("operator")) {
        parts.push_back("[]");
        parts.push_back("operator");
        j = j >= 3 ? j - 3 : 0;
      } else {
        return false;
      }
    } else {
      if (non_callee_keywords().count(toks_[j].text) > 0) return false;
      parts.push_back(toks_[j].text);
      if (j == 0) {
        name_start_tok = 0;
        chain = std::string(parts[0]);
        return true;
      }
      --j;
    }
    // Optional destructor tilde and Class:: qualifiers.
    while (true) {
      if (toks_[j].is("~")) {
        parts.push_back("~");
        if (j == 0) break;
        --j;
        continue;
      }
      if (toks_[j].is("::") && j >= 1 && toks_[j - 1].is_ident()) {
        parts.push_back("::");
        parts.push_back(toks_[j - 1].text);
        if (j < 2) {
          j = 0;
          break;
        }
        j -= 2;
        continue;
      }
      ++j;  // j now points at the first token of the chain
      break;
    }
    name_start_tok = j;
    chain.clear();
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) chain += *it;
    return true;
  }

  /// Tries to recognize a function definition whose parameter list opens
  /// at token `paren`. On success records it and sets `resume` past the
  /// body.
  bool try_function_def(std::size_t paren, std::size_t& resume) {
    std::string chain;
    std::size_t name_start = 0;
    if (!collect_name_chain(paren, chain, name_start)) return false;
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= toks_.size()) return false;

    // Scan past trailing qualifiers to find '{' (definition), ';'
    // (declaration), or anything else (not a function).
    std::size_t j = close + 1;
    bool in_trailing_return = false;
    while (j < toks_.size()) {
      const std::string_view t = toks_[j].text;
      if (t == "{") {
        if (in_trailing_return && j >= 1 &&
            (toks_[j - 1].is_ident() || toks_[j - 1].is(">"))) {
          // Brace-init inside a trailing return type: skip it.
          j = brackets_->brace_close[j] + 1;
          continue;
        }
        break;
      }
      if (t == ";" || t == "=" || t == ",") return false;
      if (t == ":") {
        // Constructor initializer list: scan to the body '{'.
        j = skip_ctor_init_list(j + 1);
        break;
      }
      if (t == "const" || t == "noexcept" || t == "override" ||
          t == "final" || t == "mutable" || t == "&" || t == "&&" ||
          t == "throw") {
        ++j;
        continue;
      }
      if (t == "(") {  // noexcept(...), throw(...)
        j = brackets_->paren_close[j] + 1;
        continue;
      }
      if (t == "->") {
        in_trailing_return = true;
        ++j;
        continue;
      }
      if (in_trailing_return &&
          (toks_[j].is_ident() || t == "::" || t == "<" || t == ">" ||
           t == ">>" || t == "*" || t == "[" || t == "]")) {
        ++j;
        continue;
      }
      return false;
    }
    if (j >= toks_.size() || !toks_[j].is("{")) return false;

    const std::size_t body_open = j;
    const std::size_t body_close = brackets_->brace_close[body_open];

    FunctionDef def;
    def.name_offset = toks_[name_start].offset;
    assign_names(def, chain);
    def.params = parse_params(paren, close);
    def.body_begin = toks_[body_open].offset + 1;
    def.body_end = body_close < toks_.size() ? toks_[body_close].offset
                                             : code_.size();
    def.requires_mutex = find_requires_annotation(def);
    def.is_parallel_region = has_annotation_flag(def, "parallel_region");
    def.is_thread_safe = has_annotation_flag(def, "thread_safe");
    def.is_ct_safe = has_annotation_flag(def, "ct_safe");
    extract_body(def, body_open, body_close);
    out_.functions.push_back(std::move(def));
    resume = body_close + 1;
    return true;
  }

  std::size_t skip_ctor_init_list(std::size_t j) {
    // Inside "Ctor(...) : member_(expr), other_{expr} {". A '{' preceded
    // by an identifier or '>' is a brace initializer; one preceded by
    // ')' or '}' is the body.
    while (j < toks_.size()) {
      const std::string_view t = toks_[j].text;
      if (t == "(") {
        j = brackets_->paren_close[j] + 1;
        continue;
      }
      if (t == "{") {
        if (j >= 1 && (toks_[j - 1].is_ident() || toks_[j - 1].is(">"))) {
          j = brackets_->brace_close[j] + 1;
          continue;
        }
        return j;
      }
      ++j;
    }
    return j;
  }

  void assign_names(FunctionDef& def, const std::string& chain) const {
    // Split the chain on "::" to find base name and owner class.
    std::vector<std::string> comps;
    std::size_t pos = 0;
    while (true) {
      const std::size_t sep = chain.find("::", pos);
      if (sep == std::string::npos) {
        comps.push_back(chain.substr(pos));
        break;
      }
      comps.push_back(chain.substr(pos, sep - pos));
      pos = sep + 2;
    }
    def.base_name = comps.back();
    if (comps.size() > 1) {
      def.class_name = comps[comps.size() - 2];
    } else {
      for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        if (it->kind == ScopeEntry::Kind::kClass) {
          def.class_name = it->name;
          break;
        }
      }
    }
    std::string prefix;
    for (const ScopeEntry& s : scopes_) {
      prefix += s.name;
      prefix += "::";
    }
    def.qualified_name = prefix + chain;
    const std::string& base = def.base_name;
    def.is_ctor_or_dtor =
        (!def.class_name.empty() &&
         (base == def.class_name || base == "~" + def.class_name)) ||
        (!base.empty() && base[0] == '~');
  }

  std::vector<Param> parse_params(std::size_t paren,
                                  std::size_t close) const {
    std::vector<Param> params;
    const std::string text = slice(code_, toks_, paren + 1, close);
    if (text.empty() || text == "void") return params;
    for (const std::string& piece : split_top_level_args(text)) {
      if (piece.empty() || piece == "..." || piece == "void") continue;
      // Drop default arguments.
      std::string decl = piece;
      int depth = 0;
      for (std::size_t k = 0; k < decl.size(); ++k) {
        const char ch = decl[k];
        if (ch == '(' || ch == '[' || ch == '{' || ch == '<') ++depth;
        if (ch == ')' || ch == ']' || ch == '}' || ch == '>') --depth;
        if (ch == '=' && depth == 0 &&
            (k + 1 >= decl.size() || decl[k + 1] != '=')) {
          decl = trim(std::string_view(decl).substr(0, k));
          break;
        }
      }
      Param p;
      // The trailing identifier, if preceded by type text, is the name.
      std::size_t e = decl.size();
      while (e > 0 && is_word_char(decl[e - 1])) --e;
      const std::string tail = decl.substr(e);
      const std::string head = trim(std::string_view(decl).substr(0, e));
      if (!tail.empty() && !head.empty() &&
          !is_type_intro_keyword(tail) && tail != "int" &&
          tail != "double" && tail != "float" && tail != "char" &&
          tail != "bool" && tail != "long" && tail != "short") {
        p.name = tail;
        p.type = head;
      } else {
        p.type = decl;
      }
      params.push_back(std::move(p));
    }
    return params;
  }

  std::string find_requires_annotation(const FunctionDef& def) const {
    const int first = source_.line_of(def.name_offset);
    const int last = source_.line_of(def.body_begin);
    for (int line = std::max(1, first - 1); line <= last; ++line) {
      const std::string_view text = source_.line_text(line);
      const std::size_t tag = text.find("analock:");
      if (tag == std::string_view::npos) continue;
      const std::size_t req = text.find("requires(", tag);
      if (req == std::string_view::npos) continue;
      const std::size_t open = req + 9;
      const std::size_t end = text.find(')', open);
      if (end == std::string_view::npos) continue;
      return trim(text.substr(open, end - open));
    }
    return {};
  }

  /// `// analock: <flag>` on the signature lines (or the line above).
  bool has_annotation_flag(const FunctionDef& def,
                           std::string_view flag) const {
    const int first = source_.line_of(def.name_offset);
    const int last = source_.line_of(def.body_begin);
    for (int line = std::max(1, first - 1); line <= last; ++line) {
      const std::string_view text = source_.line_text(line);
      const std::size_t tag = text.find("analock:");
      if (tag == std::string_view::npos) continue;
      if (contains_word(text.substr(tag), flag)) return true;
    }
    return false;
  }

  /// File-level `// analock: bit_exact` marker anywhere in the file.
  void detect_bit_exact() {
    const std::string& text = source_.text;
    std::size_t pos = 0;
    while ((pos = text.find("bit_exact", pos)) != std::string::npos) {
      const std::string_view line =
          source_.line_text(source_.line_of(pos));
      if (line.find("analock:") != std::string_view::npos) {
        out_.bit_exact = true;
        return;
      }
      pos += 9;
    }
  }

  // -------------------------------------------------------------- body walk

  void extract_body(FunctionDef& def, std::size_t body_open,
                    std::size_t body_close) {
    std::set<std::size_t> decl_init_parens;
    std::vector<std::size_t> brace_stack;  // token indices of open braces
    bool at_stmt_start = true;
    std::size_t i = body_open + 1;
    while (i < body_close && i < toks_.size()) {
      const Token& tok = toks_[i];
      const std::string_view t = tok.text;

      if (t == "{") {
        brace_stack.push_back(i);
        at_stmt_start = true;
        ++i;
        continue;
      }
      if (t == "}") {
        if (!brace_stack.empty()) brace_stack.pop_back();
        at_stmt_start = true;
        ++i;
        continue;
      }
      if (t == ";") {
        at_stmt_start = true;
        ++i;
        continue;
      }

      if (t == "for" && i + 1 < body_close && toks_[i + 1].is("(")) {
        handle_range_for(def, i + 1, body_close);
        handle_for_init(def, i + 1, brace_stack, body_close,
                        decl_init_parens);
        handle_for_bound(def, i, i + 1, body_close);
        // Fall through: the loop contents still get generic extraction.
      }

      if ((t == "if" || t == "while" || t == "switch") &&
          i + 1 < body_close && toks_[i + 1].is("(")) {
        record_condition(def, i, i + 1, body_close);
      }
      // `if constexpr (...)` is resolved at compile time: no runtime
      // branch, so record_condition is skipped via the paren check above
      // (the token after `if` is `constexpr`, not `(`).

      if (t == "?") record_ternary(def, i, body_open);

      if (t == "[" && i > body_open + 1 &&
          (toks_[i - 1].is_ident() || toks_[i - 1].is(")") ||
           toks_[i - 1].is("]"))) {
        record_subscript(def, i, body_close);
      }

      if (t == "/" || t == "%") record_divmod(def, i, body_open, body_close);

      if (t == "break") def.break_offsets.push_back(tok.offset);

      if (t == "return") {
        std::size_t j = i + 1;
        int depth = 0;
        while (j < body_close) {
          const std::string_view rt = toks_[j].text;
          if (rt == "(" || rt == "[" || rt == "{") ++depth;
          if (rt == ")" || rt == "]" || rt == "}") --depth;
          if (rt == ";" && depth <= 0) break;
          ++j;
        }
        ReturnExpr ret;
        ret.text = slice(code_, toks_, i + 1, j);
        ret.offset = tok.offset;
        def.returns.push_back(std::move(ret));
        at_stmt_start = false;
        ++i;
        continue;
      }

      if (at_stmt_start && tok.is_ident() && !is_stmt_keyword(t)) {
        std::size_t consumed = 0;
        if (try_parse_decl(def, i, body_close, brace_stack, body_close,
                           decl_init_parens, consumed)) {
          i = consumed;
          at_stmt_start = false;
          continue;
        }
      }
      at_stmt_start = false;

      if (tok.is_ident() && i + 1 < body_close && toks_[i + 1].is("(") &&
          decl_init_parens.count(i + 1) == 0 &&
          non_callee_keywords().count(t) == 0) {
        record_call(def, i);
      }

      if (tok.is_ident()) {
        const bool qualified =
            i > 0 && (toks_[i - 1].is(".") || toks_[i - 1].is("::") ||
                      (toks_[i - 1].is("->") &&
                       !(i > 1 && toks_[i - 2].is("this"))));
        if (!qualified && non_callee_keywords().count(t) == 0 &&
            !is_stmt_keyword(t) && !is_type_intro_keyword(t)) {
          def.accesses.push_back({std::string(t), tok.offset});
        }
      }

      if (t == "+=" || t == "-=" || t == "*=" || t == "/=") {
        std::size_t j = i;
        // Walk back over a possible subscript to the assigned identifier.
        if (j > 0 && toks_[j - 1].is("]")) {
          int depth = 0;
          while (j > 0) {
            --j;
            if (toks_[j].is("]")) ++depth;
            if (toks_[j].is("[")) {
              if (--depth == 0) break;
            }
          }
        }
        if (j > 0 && toks_[j - 1].is_ident()) {
          def.compound_assigns.push_back(
              {std::string(toks_[j - 1].text), tok.offset});
        }
      }

      if (t == "=" || t == "+=" || t == "-=") {
        record_write(def, i, body_close);
      }
      ++i;
    }
  }

  /// Records a WriteSite for the assignment operator at token `op_tok`,
  /// walking the assigned lvalue chain back to its base identifier.
  /// Declaration initializers (`int x = ...`) are excluded via
  /// decl_assign_toks_.
  void record_write(FunctionDef& def, std::size_t op_tok,
                    std::size_t body_close) {
    if (decl_assign_toks_.count(op_tok) > 0) return;
    std::size_t j = op_tok;
    std::string subscript;
    std::vector<std::string_view> idents;  // nearest-first
    while (j > 0) {
      const Token& prev = toks_[j - 1];
      if (prev.is("]")) {
        // Walk back over one balanced subscript group.
        int depth = 0;
        std::size_t k = j;
        while (k > 0) {
          --k;
          if (toks_[k].is("]")) ++depth;
          if (toks_[k].is("[")) {
            if (--depth == 0) break;
          }
        }
        if (depth != 0 || k == 0) return;
        const std::string inner = slice(code_, toks_, k + 1, j - 1);
        subscript = subscript.empty() ? inner : inner + " " + subscript;
        j = k;
        continue;
      }
      if (prev.is_ident()) {
        idents.push_back(prev.text);
        if (j >= 2 && (toks_[j - 2].is(".") || toks_[j - 2].is("->") ||
                       toks_[j - 2].is("::"))) {
          j -= 2;
          continue;
        }
        break;
      }
      return;  // e.g. `)` of a call result, or an operator sequence
    }
    if (idents.empty()) return;
    std::string_view head = idents.back();
    // `this->member_ = v` assigns the member, not `this`.
    if (head == "this" && idents.size() >= 2) head = idents[idents.size() - 2];
    if (is_stmt_keyword(head) || is_type_intro_keyword(head)) return;

    WriteSite write;
    write.head = std::string(head);
    write.subscript = std::move(subscript);
    write.is_compound = !toks_[op_tok].is("=");
    write.offset = toks_[op_tok].offset;
    // Right-hand side up to the statement-ending ';' at depth 0.
    std::size_t k = op_tok + 1;
    int depth = 0;
    while (k < body_close) {
      const std::string_view rt = toks_[k].text;
      if (rt == "(" || rt == "[" || rt == "{") ++depth;
      if (rt == ")" || rt == "]" || rt == "}") --depth;
      if ((rt == ";" || rt == ",") && depth <= 0) break;
      if (depth < 0) break;
      ++k;
    }
    write.rhs = slice(code_, toks_, op_tok + 1, k);
    def.writes.push_back(std::move(write));
  }

  /// Classic-for init declarations (`for (std::size_t i = begin; ...)`)
  /// become locals so lane-disjointness can trace loop counters back to
  /// the region's induction variables.
  void handle_for_init(FunctionDef& def, std::size_t paren,
                       const std::vector<std::size_t>& brace_stack,
                       std::size_t body_close_tok,
                       std::set<std::size_t>& decl_init_parens) {
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= toks_.size()) return;
    const std::size_t first = paren + 1;
    if (first >= close || !toks_[first].is_ident() ||
        is_stmt_keyword(toks_[first].text)) {
      return;
    }
    std::size_t consumed = 0;
    try_parse_decl(def, first, close, brace_stack, body_close_tok,
                   decl_init_parens, consumed);
  }

  void record_call(FunctionDef& def, std::size_t name_tok) {
    // Extend the chain backwards over ., ->, and :: links.
    std::size_t start = name_tok;
    while (start >= 2 &&
           (toks_[start - 1].is("::") || toks_[start - 1].is(".") ||
            toks_[start - 1].is("->")) &&
           toks_[start - 2].is_ident()) {
      start -= 2;
    }
    std::string chain;
    for (std::size_t k = start; k <= name_tok; ++k) chain += toks_[k].text;

    const std::size_t paren = name_tok + 1;
    const std::size_t close = brackets_->paren_close[paren];
    CallSite call;
    call.callee = chain;
    call.base_name = std::string(toks_[name_tok].text);
    call.offset = toks_[start].offset;
    const std::string args = slice(code_, toks_, paren + 1, close);
    if (!args.empty()) call.args = split_top_level_args(args);
    def.calls.push_back(std::move(call));

    if (toks_[name_tok].is("parallel_for")) {
      extract_parallel_region(def, name_tok);
    }
  }

  /// Recovers the lambda body of a `parallel_for(n, [caps](b, e) {...})`
  /// call as a ParallelRegion: capture list, induction parameters, and
  /// body extent. Named function objects (no lambda in the argument
  /// list) are skipped — annotate the callee `// analock:
  /// parallel_region` instead.
  void extract_parallel_region(FunctionDef& def, std::size_t name_tok) {
    const std::size_t paren = name_tok + 1;
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= toks_.size()) return;
    // The lambda intro is a '[' directly after '(' or a top-level ','
    // (a '[' after an identifier is a subscript).
    std::size_t intro = 0;
    for (std::size_t k = paren + 1; k < close; ++k) {
      if (toks_[k].is("[") &&
          (toks_[k - 1].is("(") || toks_[k - 1].is(","))) {
        intro = k;
        break;
      }
    }
    if (intro == 0) return;
    // Matching ']' of the capture list.
    std::size_t intro_close = intro;
    int depth = 0;
    for (std::size_t k = intro; k < close; ++k) {
      if (toks_[k].is("[")) ++depth;
      if (toks_[k].is("]")) {
        if (--depth == 0) {
          intro_close = k;
          break;
        }
      }
    }
    if (intro_close == intro) return;

    ParallelRegion region;
    const std::string captures =
        slice(code_, toks_, intro + 1, intro_close);
    for (const std::string& piece : split_top_level_args(captures)) {
      if (piece == "=") {
        region.capture_default_copy = true;
      } else if (piece == "this") {
        region.ref_captures.push_back("this");
      } else if (!piece.empty() && piece[0] == '&') {
        // `&name` or `&name = expr` init capture: the captured name
        // (none for the `&` default, which leaves every use shared).
        std::string name;
        for (std::size_t c = 1; c < piece.size(); ++c) {
          const char ch = piece[c];
          if (is_word_char(ch)) {
            name += ch;
          } else {
            break;
          }
        }
        if (!name.empty()) region.ref_captures.push_back(std::move(name));
      } else {
        // Copy capture (`name`, `name = expr`, `*this`): lane-local.
        std::string name;
        for (const char ch : piece) {
          if (is_word_char(ch)) {
            name += ch;
          } else if (name.empty() && ch == '*') {
            continue;  // *this
          } else {
            break;
          }
        }
        if (!name.empty()) region.copy_captures.push_back(std::move(name));
      }
    }

    // Parameter list, then the body '{' (skipping mutable/noexcept/
    // trailing-return tokens).
    std::size_t j = intro_close + 1;
    if (j < close && toks_[j].is("(")) {
      const std::size_t params_close = brackets_->paren_close[j];
      if (params_close >= close) return;
      for (const Param& p : parse_params(j, params_close)) {
        if (!p.name.empty()) region.params.push_back(p.name);
      }
      j = params_close + 1;
    }
    while (j < close && !toks_[j].is("{")) ++j;
    if (j >= close) return;
    const std::size_t body_close_tok = brackets_->brace_close[j];
    region.body_begin = toks_[j].offset + 1;
    region.body_end = body_close_tok < toks_.size()
                          ? toks_[body_close_tok].offset
                          : code_.size();
    def.parallel_regions.push_back(std::move(region));
  }

  bool try_parse_decl(FunctionDef& def, std::size_t i,
                      std::size_t body_close,
                      const std::vector<std::size_t>& brace_stack,
                      std::size_t body_close_tok,
                      std::set<std::size_t>& decl_init_parens,
                      std::size_t& consumed) {
    // Pattern: [intro-kw]* type-tokens name ( '=' | '(' | '{' | ';' ).
    std::size_t j = i;
    int angle = 0;
    std::vector<std::size_t> ident_toks;
    std::size_t last_tok = i;
    while (j < body_close) {
      const std::string_view t = toks_[j].text;
      if (toks_[j].is_ident()) {
        if (angle == 0) ident_toks.push_back(j);
        ++j;
      } else if (t == "::" || t == "*" || t == "&" || t == "&&") {
        ++j;
      } else if (t == "<") {
        ++angle;
        ++j;
      } else if (t == ">") {
        angle = std::max(0, angle - 1);
        ++j;
      } else if (t == ">>") {
        angle = std::max(0, angle - 2);
        ++j;
      } else if (angle > 0 && (t == "," || toks_[j].kind ==
                                               TokKind::kNumber ||
                               t == "(" || t == ")")) {
        ++j;  // template arguments
      } else {
        break;
      }
      last_tok = j;
    }
    if (j >= body_close || ident_toks.size() < 2) return false;
    // Array declarator (`double buf[N] = {};`): the '[' follows the
    // name directly; skip the bracket group to find the terminator.
    std::size_t term_tok = j;
    if (toks_[term_tok].is("[") && term_tok == ident_toks.back() + 1) {
      int bracket_depth = 0;
      while (term_tok < body_close) {
        if (toks_[term_tok].is("[")) ++bracket_depth;
        if (toks_[term_tok].is("]") && --bracket_depth == 0) {
          ++term_tok;
          break;
        }
        ++term_tok;
      }
      if (term_tok >= body_close) return false;
    }
    const std::string_view term = toks_[term_tok].text;
    if (term != "=" && term != "(" && term != "{" && term != ";" &&
        term != ",") {
      return false;
    }
    // The last top-level identifier is the variable name; everything
    // before it is the type.
    const std::size_t name_tok = ident_toks.back();
    if (name_tok + 1 != j &&
        !(toks_[name_tok + 1].is("[") || toks_[name_tok + 1].is("&") ||
          toks_[name_tok + 1].is("*"))) {
      // Qualified call chains like a::b(...) end with :: between the
      // last two identifiers; a real decl has the name directly before
      // the terminator.
      if (!(name_tok + 1 < toks_.size() && toks_[name_tok + 1].offset >=
                                               toks_[j].offset)) {
        return false;
      }
    }
    if (name_tok >= 1 && (toks_[name_tok - 1].is("::") ||
                          toks_[name_tok - 1].is(".") ||
                          toks_[name_tok - 1].is("->"))) {
      return false;  // qualified name, not a declaration
    }
    VarDecl decl;
    decl.name = std::string(toks_[name_tok].text);
    decl.type = slice(code_, toks_, i, name_tok);
    decl.offset = toks_[i].offset;
    if (decl.type.empty()) return false;
    if (term == "=") decl_assign_toks_.insert(term_tok);
    if (term != ";" && term != ",") {
      // Initializer: to the ';' or a further-declarator ',' at depth 0.
      std::size_t k = term_tok;
      int depth = 0;
      while (k < body_close) {
        const std::string_view it = toks_[k].text;
        if (it == "(" || it == "[" || it == "{") ++depth;
        if (it == ")" || it == "]" || it == "}") --depth;
        if (it == ";" && depth <= 0) break;
        if (it == "," && depth == 0 && k > term_tok) break;
        ++k;
      }
      decl.init = slice(code_, toks_, term_tok, k);
    }

    // Lock guards get scope extents; their init parens are not calls.
    const bool is_lock = decl.type.find("scoped_lock") != std::string::npos ||
                         decl.type.find("lock_guard") != std::string::npos ||
                         decl.type.find("unique_lock") != std::string::npos;
    std::size_t end_tok = term_tok;
    if (term == "(" || term == "{") {
      decl_init_parens.insert(term_tok);
      end_tok = term == "("
                    ? brackets_->paren_close[term_tok]
                    : brackets_->brace_close[term_tok];
      if (is_lock) {
        const std::size_t scope_close_tok =
            brace_stack.empty() ? body_close_tok
                                : brackets_->brace_close[brace_stack.back()];
        const std::size_t scope_end =
            scope_close_tok < toks_.size() ? toks_[scope_close_tok].offset
                                           : code_.size();
        const std::string args = slice(code_, toks_, term_tok + 1, end_tok);
        for (const std::string& arg : split_top_level_args(args)) {
          if (arg.empty() || arg.find("adopt_lock") != std::string::npos ||
              arg.find("defer_lock") != std::string::npos) {
            continue;
          }
          def.locks.push_back({arg, decl.offset, scope_end});
        }
      }
    }
    const std::string shared_type = def.locals.emplace_back(std::move(decl)).type;
    (void)last_tok;

    // Additional declarators in the same statement: `double a = x, b;`.
    // Depth-0 commas inside a confirmed declaration separate
    // declarators; each gets a VarDecl of the shared type and its own
    // initializer marking.
    std::size_t scan = (term == "(" || term == "{") ? end_tok + 1 : term_tok;
    int scan_depth = 0;
    while (scan < body_close) {
      const std::string_view st = toks_[scan].text;
      if (st == "(" || st == "[" || st == "{") ++scan_depth;
      if (st == ")" || st == "]" || st == "}") --scan_depth;
      if (st == ";" && scan_depth <= 0) break;
      if (st == "," && scan_depth == 0) {
        std::size_t n = scan + 1;
        while (n < body_close && (toks_[n].is("*") || toks_[n].is("&") ||
                                  toks_[n].is("&&"))) {
          ++n;
        }
        if (n < body_close && toks_[n].is_ident()) {
          VarDecl extra;
          extra.name = std::string(toks_[n].text);
          extra.type = shared_type;
          extra.offset = toks_[n].offset;
          std::size_t after = n + 1;
          if (after < body_close && toks_[after].is("[")) {
            int bd = 0;
            while (after < body_close) {
              if (toks_[after].is("[")) ++bd;
              if (toks_[after].is("]") && --bd == 0) {
                ++after;
                break;
              }
              ++after;
            }
          }
          if (after < body_close && toks_[after].is("=")) {
            decl_assign_toks_.insert(after);
            std::size_t k2 = after;
            int d2 = 0;
            while (k2 < body_close) {
              const std::string_view it2 = toks_[k2].text;
              if (it2 == "(" || it2 == "[" || it2 == "{") ++d2;
              if (it2 == ")" || it2 == "]" || it2 == "}") --d2;
              if (it2 == ";" && d2 <= 0) break;
              if (it2 == "," && d2 == 0 && k2 > after) break;
              ++k2;
            }
            extra.init = slice(code_, toks_, after, k2);
          } else if (after < body_close &&
                     (toks_[after].is("(") || toks_[after].is("{"))) {
            decl_init_parens.insert(after);
          }
          def.locals.push_back(std::move(extra));
          scan = n + 1;
          continue;
        }
      }
      ++scan;
    }

    // Resume right after the name so initializer expressions still get
    // call/access extraction.
    consumed = name_tok + 1;
    return true;
  }

  /// Body extent after a loop/condition close paren: a brace block or a
  /// single statement up to the next ';' at depth 0.
  void body_extent(std::size_t start_tok, std::size_t body_close,
                   std::size_t& begin, std::size_t& end) const {
    if (start_tok < body_close && toks_[start_tok].is("{")) {
      const std::size_t close_tok = brackets_->brace_close[start_tok];
      begin = toks_[start_tok].offset + 1;
      end = close_tok < toks_.size() ? toks_[close_tok].offset
                                     : code_.size();
      return;
    }
    std::size_t k = start_tok;
    int d = 0;
    while (k < body_close) {
      const std::string_view t = toks_[k].text;
      if (t == "(" || t == "[" || t == "{") ++d;
      if (t == ")" || t == "]" || t == "}") --d;
      if (t == ";" && d <= 0) break;
      ++k;
    }
    begin = start_tok < toks_.size() ? toks_[start_tok].offset
                                     : code_.size();
    end = k < toks_.size() ? toks_[k].offset : code_.size();
  }

  void handle_range_for(FunctionDef& def, std::size_t paren,
                        std::size_t body_close) {
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= body_close) return;
    // Find the ':' at depth 1 (directly inside the for parens).
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t k = paren; k <= close; ++k) {
      const std::string_view t = toks_[k].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == ":" && depth == 1) {
        colon = k;
        break;
      }
      if (t == ";") return;  // classic for loop
    }
    if (colon == 0) return;
    RangeForLoop loop;
    loop.range_text = slice(code_, toks_, colon + 1, close);
    body_extent(close + 1, body_close, loop.body_begin, loop.body_end);
    def.loops.push_back({loop.range_text, toks_[paren - 1].offset,
                         loop.body_begin, loop.body_end});
    def.range_fors.push_back(std::move(loop));
  }

  /// Classic-for middle clause (`for (init; COND; step)`): the loop's
  /// trip-count bound. Range-fors never reach the semicolon scan.
  void handle_for_bound(FunctionDef& def, std::size_t kw_tok,
                        std::size_t paren, std::size_t body_close) {
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= toks_.size()) return;
    std::vector<std::size_t> semis;
    int d = 0;
    for (std::size_t k = paren + 1; k < close; ++k) {
      const std::string_view t = toks_[k].text;
      if (t == "(" || t == "[" || t == "{") ++d;
      if (t == ")" || t == "]" || t == "}") --d;
      if (t == ";" && d == 0) semis.push_back(k);
    }
    if (semis.size() < 2) return;  // range-for or malformed
    LoopSite loop;
    loop.bound_text = slice(code_, toks_, semis[0] + 1, semis[1]);
    loop.offset = toks_[kw_tok].offset;
    body_extent(close + 1, body_close, loop.body_begin, loop.body_end);
    def.loops.push_back(std::move(loop));
  }

  /// Records an `if`/`while`/`switch` condition. `while` conditions
  /// double as LoopSite bounds (except the trailing `while` of a
  /// do-while, whose body precedes the keyword).
  void record_condition(FunctionDef& def, std::size_t kw_tok,
                        std::size_t paren, std::size_t body_close) {
    const std::size_t close = brackets_->paren_close[paren];
    if (close >= toks_.size()) return;
    std::string text = slice(code_, toks_, paren + 1, close);
    // C++17 init-statement (`if (init; cond)`): the condition is after
    // the last top-level ';'.
    {
      int d = 0;
      std::size_t last_semi = std::string::npos;
      for (std::size_t k = 0; k < text.size(); ++k) {
        const char c = text[k];
        if (c == '(' || c == '[' || c == '{') ++d;
        if (c == ')' || c == ']' || c == '}') --d;
        if (c == ';' && d == 0) last_semi = k;
      }
      if (last_semi != std::string::npos) {
        text = trim(std::string_view(text).substr(last_semi + 1));
      }
    }
    ConditionSite site;
    const std::string_view kw = toks_[kw_tok].text;
    const bool do_while = kw == "while" && close + 1 < toks_.size() &&
                          toks_[close + 1].is(";");
    if (kw == "if") {
      site.kind = ConditionSite::Kind::kIf;
    } else if (kw == "switch") {
      site.kind = ConditionSite::Kind::kSwitch;
    } else {
      site.kind = do_while ? ConditionSite::Kind::kDoWhile
                           : ConditionSite::Kind::kWhile;
    }
    site.text = std::move(text);
    site.offset = toks_[kw_tok].offset;
    if (site.kind == ConditionSite::Kind::kWhile) {
      LoopSite loop;
      loop.bound_text = site.text;
      loop.offset = site.offset;
      body_extent(close + 1, body_close, loop.body_begin, loop.body_end);
      def.loops.push_back(std::move(loop));
    }
    def.conditions.push_back(std::move(site));
  }

  /// Ternary condition: the expression between the nearest enclosing
  /// boundary and the '?'.
  void record_ternary(FunctionDef& def, std::size_t q_tok,
                      std::size_t body_open) {
    std::size_t j = q_tok;
    int depth = 0;
    while (j > body_open + 1) {
      const std::string_view pt = toks_[j - 1].text;
      if (pt == ")" || pt == "]" || pt == "}") {
        ++depth;
        --j;
        continue;
      }
      if (pt == "(" || pt == "[" || pt == "{") {
        if (depth == 0) break;
        --depth;
        --j;
        continue;
      }
      if (depth == 0 &&
          (pt == ";" || pt == "," || pt == "=" || pt == "return" ||
           pt == ":" || pt == "?")) {
        break;
      }
      --j;
    }
    std::string text = slice(code_, toks_, j, q_tok);
    if (text.empty()) return;
    def.conditions.push_back(
        {ConditionSite::Kind::kTernary, std::move(text),
         toks_[q_tok].offset});
  }

  /// Subscript `base[index]`: the index text between the brackets.
  void record_subscript(FunctionDef& def, std::size_t open_tok,
                        std::size_t body_close) {
    int d = 0;
    std::size_t k = open_tok;
    while (k < body_close) {
      if (toks_[k].is("[")) ++d;
      if (toks_[k].is("]") && --d == 0) break;
      ++k;
    }
    if (k >= body_close) return;
    std::string inner = slice(code_, toks_, open_tok + 1, k);
    if (inner.empty()) return;
    def.subscripts.push_back({std::move(inner), toks_[open_tok].offset});
  }

  /// Division/modulo operands: the postfix chain directly left of the
  /// operator, and the right-hand side up to the next top-level
  /// expression boundary.
  void record_divmod(FunctionDef& def, std::size_t op_tok,
                     std::size_t body_open, std::size_t body_close) {
    // Left operand: walk a postfix-expression chain backwards.
    std::size_t j = op_tok;
    while (j > body_open + 1) {
      const Token& prev = toks_[j - 1];
      if (prev.is(")") || prev.is("]")) {
        const std::string_view open = prev.is(")") ? "(" : "[";
        const std::string_view close = prev.text;
        int d = 0;
        std::size_t k = j;
        bool balanced = false;
        while (k > body_open) {
          --k;
          if (toks_[k].text == close) {
            ++d;
          } else if (toks_[k].text == open) {
            if (--d == 0) {
              balanced = true;
              break;
            }
          }
        }
        if (!balanced) break;
        j = k;
        continue;
      }
      if (prev.is_ident() || prev.kind == TokKind::kNumber) {
        --j;
        if (j > body_open + 1 &&
            (toks_[j - 1].is(".") || toks_[j - 1].is("->") ||
             toks_[j - 1].is("::"))) {
          --j;
          continue;
        }
        break;
      }
      break;
    }
    const std::string lhs = slice(code_, toks_, j, op_tok);
    // Right operand: forward to the next top-level boundary.
    std::size_t k = op_tok + 1;
    if (k < body_close && toks_[k].is("=")) ++k;  // '/=' or '%='
    const std::size_t rstart = k;
    int d = 0;
    while (k < body_close) {
      const std::string_view rt = toks_[k].text;
      if (rt == "(" || rt == "[" || rt == "{") ++d;
      if (rt == ")" || rt == "]" || rt == "}") {
        if (d == 0) break;
        --d;
      }
      if (d == 0 && (rt == ";" || rt == "," || rt == "?" || rt == ":" ||
                     rt == "&&" || rt == "||")) {
        break;
      }
      ++k;
    }
    const std::string rhs = slice(code_, toks_, rstart, k);
    if (lhs.empty() && rhs.empty()) return;
    def.divmods.push_back({lhs, rhs, toks_[op_tok].offset});
  }

  // -------------------------------------------------- guarded_by collection

  void collect_guarded_members() {
    const std::string& text = source_.text;
    std::size_t pos = 0;
    while ((pos = text.find("guarded_by(", pos)) != std::string::npos) {
      const std::size_t open = pos + 11;
      pos = open;
      // Only comments carrying the analock marker count as annotations;
      // a bare guarded-by elsewhere (string literal, prose) is ignored.
      const int line = source_.line_of(open);
      const std::string_view line_text = source_.line_text(line);
      if (line_text.find("analock:") == std::string_view::npos) continue;
      const std::size_t end = text.find(')', open);
      if (end == std::string::npos) break;
      const std::string mutex_name = trim(
          std::string_view(text).substr(open, end - open));
      if (mutex_name.empty()) continue;

      // Owning class: innermost class body containing this offset.
      std::string class_name;
      std::size_t best_span = std::string::npos;
      for (const ClassRange& range : class_ranges_) {
        if (range.begin_offset <= open && open < range.end_offset) {
          const std::size_t span = range.end_offset - range.begin_offset;
          if (span < best_span) {
            best_span = span;
            class_name = range.name;
          }
        }
      }
      if (class_name.empty()) continue;

      // Declared member: last identifier of the stripped decl line
      // before '=', ';', or '{'. A trailing annotation shares the
      // member's line; a comment-only annotation line covers the
      // declaration directly below it.
      const auto member_on_line = [this](int decl_lineno) -> std::string {
        if (decl_lineno < 1 ||
            static_cast<std::size_t>(decl_lineno) >
                source_.line_starts.size()) {
          return {};
        }
        const std::size_t start =
            source_.line_starts[static_cast<std::size_t>(decl_lineno - 1)];
        std::size_t stop = source_.stripped.find('\n', start);
        if (stop == std::string::npos) stop = source_.stripped.size();
        const std::string_view decl_line =
            std::string_view(source_.stripped).substr(start, stop - start);
        std::string member;
        std::string current;
        for (const char c : decl_line) {
          if (is_word_char(c)) {
            current += c;
            continue;
          }
          if (!current.empty()) member = current;
          current.clear();
          if (c == '=' || c == ';' || c == '{') break;
        }
        if (!current.empty()) member = current;
        return member;
      };
      std::string member = member_on_line(line);
      if (member.empty()) member = member_on_line(line + 1);
      if (member.empty()) continue;
      out_.guarded_members.push_back({class_name, member, mutex_name});
    }
  }

  const SourceFile& source_;
  ParsedFile& out_;
  std::string code_;
  std::vector<Token> toks_;
  std::unique_ptr<BracketMap> brackets_;
  std::vector<ScopeEntry> scopes_;
  std::vector<ClassRange> class_ranges_;
  std::set<std::size_t> decl_assign_toks_;  ///< '=' tokens of decl inits
};

}  // namespace

std::vector<std::string> split_top_level_args(std::string_view args) {
  std::vector<std::string> out;
  int depth = 0;
  int angle = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == '<') ++angle;
    if (c == '>') angle = std::max(0, angle - 1);
    if (c == ',' && depth == 0 && angle == 0) {
      const std::string piece = trim(args.substr(start, i - start));
      if (!piece.empty()) out.push_back(piece);
      start = i + 1;
    }
  }
  const std::string piece = trim(args.substr(start));
  if (!piece.empty()) out.push_back(piece);
  return out;
}

bool contains_word(std::string_view text, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const std::size_t end = pos + word.size();
    if ((pos == 0 || !is_word_char(text[pos - 1])) &&
        (end >= text.size() || !is_word_char(text[end]))) {
      return true;
    }
    ++pos;
  }
  return false;
}

std::string trim(std::string_view text) {
  const std::size_t b = skip_space(text, 0);
  std::size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
    --e;
  }
  return std::string(text.substr(b, e - b));
}

std::size_t skip_space(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

std::size_t close_paren(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return text.size();
}

// analock: thread_safe -- pure function of its SourceFile, no statics
ParsedFile parse_file(const SourceFile& source) {
  ParsedFile parsed;
  parsed.source = &source;
  FileParser parser(source, parsed);
  parser.run();
  return parsed;
}

}  // namespace analock::analysis
