#include "fedpower_lint/analyze.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace fedpower::lint {
namespace {

// ---------------------------------------------------------------------------
// Small token helpers over the flattened stream.
// ---------------------------------------------------------------------------

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "if",      "else",    "for",      "while",   "do",       "switch",
      "case",    "return",  "break",    "continue", "sizeof",  "throw",
      "new",     "delete",  "const",    "constexpr", "static", "inline",
      "virtual", "explicit", "mutable", "volatile", "typename", "template",
      "class",   "struct",  "union",    "enum",    "public",   "private",
      "protected", "operator", "using", "typedef", "friend",   "namespace",
      "noexcept", "override", "final",  "default", "catch",    "try",
      "static_assert", "alignas", "decltype", "co_await", "co_return"};
  return kw;
}

bool under_dir(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() + 1 &&
         path.compare(0, dir.size(), dir) == 0 && path[dir.size()] == '/';
}

bool under_any(const std::string& path, const std::vector<std::string>& dirs) {
  return std::any_of(dirs.begin(), dirs.end(), [&](const std::string& d) {
    return under_dir(path, d);
  });
}

std::vector<SourceToken> lex_flat(const Scrubbed& scrubbed) {
  std::vector<SourceToken> out;
  for (std::size_t line = 0; line < scrubbed.code.size(); ++line)
    for (const Token& tok : lex(scrubbed.code[line]))
      out.push_back({tok.ident, tok.text, line});
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: the declaration-model parser. A heuristic recursive scanner over
// the flattened token stream — single lookahead, balanced-bracket skipping,
// and an identifier-before-'<' heuristic for template argument lists. It
// deliberately skips what it cannot classify (function-pointer members,
// anonymous aggregates) so a modeled declaration is trustworthy.
// ---------------------------------------------------------------------------

class ModelBuilder {
 public:
  ModelBuilder(const std::vector<SourceToken>& tokens, FileModel* out)
      : t_(tokens), n_(tokens.size()), out_(out) {}

  void run() { parse_scope(0, n_, {}); }

 private:
  [[nodiscard]] bool is(std::size_t i, const char* text) const {
    return i < n_ && t_[i].text == text;
  }
  [[nodiscard]] bool ident(std::size_t i) const {
    return i < n_ && t_[i].ident;
  }
  [[nodiscard]] bool ident_is(std::size_t i, const char* text) const {
    return ident(i) && t_[i].text == text;
  }

  /// t_[i] must be `open`; returns the index one past the matching close
  /// (or `end` when unbalanced).
  [[nodiscard]] std::size_t skip_balanced(std::size_t i, std::size_t end,
                                          const char* open,
                                          const char* close) const {
    int depth = 0;
    for (; i < end; ++i) {
      if (t_[i].text == open) ++depth;
      if (t_[i].text == close && --depth == 0) return i + 1;
    }
    return end;
  }

  /// t_[i] must be "<". Returns one past the matching ">"; bails (returns
  /// i + 1, treating the token as a comparison) at ';', '{' or imbalance.
  [[nodiscard]] std::size_t skip_template_args(std::size_t i,
                                               std::size_t end) const {
    int depth = 0;
    for (std::size_t j = i; j < end; ++j) {
      const std::string& txt = t_[j].text;
      if (txt == "<") ++depth;
      else if (txt == ">") {
        if (--depth == 0) return j + 1;
      } else if (txt == ";" || txt == "{") {
        break;
      } else if (txt == "(") {
        j = skip_balanced(j, end, "(", ")") - 1;
      }
    }
    return i + 1;
  }

  /// Skips to one past the next ';' at bracket depth 0.
  [[nodiscard]] std::size_t skip_statement(std::size_t i,
                                           std::size_t end) const {
    for (; i < end; ++i) {
      const std::string& txt = t_[i].text;
      if (txt == "(") i = skip_balanced(i, end, "(", ")") - 1;
      else if (txt == "{") i = skip_balanced(i, end, "{", "}") - 1;
      else if (txt == "[") i = skip_balanced(i, end, "[", "]") - 1;
      else if (txt == ";") return i + 1;
    }
    return end;
  }

  /// Skips `template < ... >`.
  [[nodiscard]] std::size_t skip_template_intro(std::size_t i,
                                                std::size_t end) const {
    ++i;  // past "template"
    if (is(i, "<")) return skip_template_args(i, end);
    return i;
  }

  /// Skips an enum definition (body and trailing ';').
  [[nodiscard]] std::size_t skip_enum(std::size_t i, std::size_t end) const {
    for (; i < end; ++i) {
      if (t_[i].text == ";") return i + 1;
      if (t_[i].text == "{") {
        i = skip_balanced(i, end, "{", "}");
        return i < end && t_[i].text == ";" ? i + 1 : i;
      }
    }
    return end;
  }

  /// Skips a preprocessor directive: t_[i] is "#"; consumes to the end of
  /// the physical line, following backslash continuations.
  [[nodiscard]] std::size_t skip_directive(std::size_t i,
                                           std::size_t end) const {
    std::size_t line = t_[i].line;
    std::size_t j = i;
    while (j < end) {
      if (t_[j].line != line) {
        if (t_[j - 1].text != "\\") break;
        line = t_[j].line;  // continuation: the directive spans this line too
      }
      ++j;
    }
    return j;
  }

  // --- scope parsing --------------------------------------------------------

  void parse_scope(std::size_t i, std::size_t end,
                   std::vector<std::string> stack) {
    bool pending_template = false;
    while (i < end) {
      const std::string& txt = t_[i].text;
      if (txt == "#") {
        i = skip_directive(i, end);
      } else if (txt == ";") {
        ++i;
        pending_template = false;
      } else if (ident_is(i, "template")) {
        i = skip_template_intro(i, end);
        pending_template = true;
      } else if (ident_is(i, "namespace")) {
        std::size_t j = i + 1;
        std::string names;  // "a::b::" for `namespace a::b`; empty if anonymous
        while (j < end && t_[j].text != "{" && t_[j].text != ";" &&
               t_[j].text != "=") {
          if (ident(j) && cpp_keywords().count(t_[j].text) == 0)
            names += t_[j].text + "::";
          ++j;
        }
        if (j < end && t_[j].text == "{") {
          const std::size_t close = skip_balanced(j, end, "{", "}");
          const std::string saved = ns_prefix_;
          ns_prefix_ += names;
          parse_scope(j + 1, close - 1, stack);
          ns_prefix_ = saved;
          i = close;
        } else {
          i = skip_statement(j, end);
        }
        pending_template = false;
      } else if (ident_is(i, "class") || ident_is(i, "struct") ||
                 ident_is(i, "union")) {
        i = parse_class(i, end, stack, pending_template);
        pending_template = false;
      } else if (ident_is(i, "enum")) {
        i = skip_enum(i, end);
        pending_template = false;
      } else if (ident_is(i, "using") || ident_is(i, "typedef") ||
                 ident_is(i, "static_assert") || ident_is(i, "friend")) {
        i = skip_statement(i, end);
        pending_template = false;
      } else if (ident_is(i, "FEDPOWER_CKPT_FIELDS") && is(i + 1, "(")) {
        // Expands to save_state/restore_state over the class's fields
        // body, which is what the rules read; no ';' follows it.
        i = skip_balanced(i + 1, end, "(", ")");
        pending_template = false;
      } else if (ident_is(i, "extern") && is(i + 1, "{")) {
        const std::size_t close = skip_balanced(i + 1, end, "{", "}");
        parse_scope(i + 2, close - 1, stack);
        i = close;
      } else {
        i = parse_declaration(i, end, nullptr, pending_template);
        pending_template = false;
      }
    }
  }

  /// Parses from the class/struct/union keyword. Returns the resume index.
  /// Forward declarations and elaborated-type member uses fall through to
  /// ordinary declaration parsing.
  std::size_t parse_class(std::size_t i, std::size_t end,
                          const std::vector<std::string>& stack,
                          bool templated) {
    std::size_t j = i + 1;
    while (j < end && t_[j].text == "[")  // attributes
      j = skip_balanced(j, end, "[", "]");
    std::string name;
    std::size_t name_line = j < n_ ? t_[j].line : 0;
    if (ident(j) && cpp_keywords().count(t_[j].text) == 0) {
      name = t_[j].text;
      name_line = t_[j].line;
      ++j;
      while (is(j, "::") && ident(j + 1)) {  // out-of-line nested definition
        name = t_[j + 1].text;
        name_line = t_[j + 1].line;
        j += 2;
      }
      if (is(j, "<")) j = skip_template_args(j, end);  // specialization
    }
    // Scan the (optional) base clause for the defining '{'.
    std::size_t k = j;
    while (k < end && t_[k].text != "{" && t_[k].text != ";" &&
           t_[k].text != "(" && t_[k].text != "=") {
      if (t_[k].text == "<")
        k = skip_template_args(k, end);
      else
        ++k;
    }
    if (k >= end || t_[k].text == ";") return k >= end ? end : k + 1;
    if (t_[k].text == "(" || t_[k].text == "=") {
      // `struct tm foo(...)` / `struct X y = ...` — an elaborated type in a
      // declaration, not a definition.
      return parse_declaration(i + 1, end, nullptr, false);
    }
    const std::size_t close = skip_balanced(k, end, "{", "}");
    if (!name.empty()) {
      ClassModel model;
      model.name = name;
      std::string qualified = ns_prefix_;
      for (const std::string& outer : stack) qualified += outer + "::";
      model.qualified = qualified + name;
      model.line = name_line;
      model.templated = templated;
      std::vector<std::string> inner_stack = stack;
      inner_stack.push_back(name);
      parse_class_body(k + 1, close - 1, &model, inner_stack);
      out_->classes.push_back(std::move(model));
    }
    // Skip any declarator between '}' and ';' (e.g. `} instance;`).
    return skip_statement(close, end);
  }

  void parse_class_body(std::size_t i, std::size_t end, ClassModel* model,
                        const std::vector<std::string>& stack) {
    bool pending_template = false;
    while (i < end) {
      const std::string& txt = t_[i].text;
      if (txt == "#") {
        i = skip_directive(i, end);
      } else if (txt == ";") {
        ++i;
      } else if ((ident_is(i, "public") || ident_is(i, "private") ||
                  ident_is(i, "protected")) &&
                 is(i + 1, ":")) {
        i += 2;
      } else if (ident_is(i, "template")) {
        i = skip_template_intro(i, end);
        pending_template = true;
        continue;
      } else if (ident_is(i, "using") || ident_is(i, "typedef") ||
                 ident_is(i, "static_assert") || ident_is(i, "friend")) {
        i = skip_statement(i, end);
      } else if (ident_is(i, "enum")) {
        i = skip_enum(i, end);
      } else if ((ident_is(i, "class") || ident_is(i, "struct") ||
                  ident_is(i, "union")) &&
                 nested_definition_ahead(i, end)) {
        i = parse_class(i, end, stack, pending_template);
      } else {
        i = parse_declaration(i, end, model, pending_template);
      }
      pending_template = false;
    }
  }

  /// Distinguishes a nested type definition from an elaborated-type member
  /// declaration (`struct tm epoch_;`): a definition reaches '{' before
  /// ';', '(' or '='.
  [[nodiscard]] bool nested_definition_ahead(std::size_t i,
                                             std::size_t end) const {
    for (std::size_t j = i + 1; j < end; ++j) {
      const std::string& txt = t_[j].text;
      if (txt == "{") return true;
      if (txt == ";" || txt == "(" || txt == "=") return false;
      if (txt == "<") j = skip_template_args(j, end) - 1;
    }
    return false;
  }

  // --- declarations ---------------------------------------------------------

  /// Parses one declaration statement: a data member / variable (ends at
  /// ';'), a function declaration (ends at ';'), or a function definition
  /// (ends at the body's '}'). `model` is the enclosing class, or nullptr
  /// at namespace scope (where only out-of-line method definitions are
  /// recorded). Returns the resume index.
  std::size_t parse_declaration(std::size_t i, std::size_t end,
                                ClassModel* model, bool templated) {
    const std::size_t begin = i;
    std::size_t paren_begin = 0, paren_end = 0;  // param-list candidate
    bool seen_eq = false;
    bool seen_operator = false;
    bool in_init_list = false;
    std::string prev;  // previous top-level token text
    std::size_t j = i;
    while (j < end) {
      const std::string& txt = t_[j].text;
      if (txt == ";") return finish_declaration(begin, j, paren_begin,
                                                paren_end, seen_operator,
                                                model, templated, 0, 0),
                             j + 1;
      if (txt == "{") {
        if (seen_eq || (in_init_list && ident(j - 1) && t_[j - 1].text != "const" &&
                        t_[j - 1].text != "noexcept")) {
          // Initializer braces (= {...} or a brace-init inside a ctor
          // init list): part of the declaration, keep scanning.
          j = skip_balanced(j, end, "{", "}");
          prev = "}";
          continue;
        }
        if (paren_end != 0) {
          // Function body.
          const std::size_t body_close = skip_balanced(j, end, "{", "}");
          finish_declaration(begin, j, paren_begin, paren_end, seen_operator,
                             model, templated, j + 1,
                             body_close > 0 ? body_close - 1 : j + 1);
          return body_close;
        }
        // NSDMI brace-init: `std::atomic<int> x{0};`
        j = skip_balanced(j, end, "{", "}");
        prev = "}";
        continue;
      }
      if (txt == "(") {
        const std::size_t close = skip_balanced(j, end, "(", ")");
        if (paren_end == 0 && !seen_eq && ident(j - 1) && j > begin &&
            cpp_keywords().count(t_[j - 1].text) == 0) {
          paren_begin = j + 1;
          paren_end = close - 1;
        }
        j = close;
        prev = ")";
        continue;
      }
      if (txt == "[") {
        j = skip_balanced(j, end, "[", "]");
        prev = "]";
        continue;
      }
      if (txt == "=") {
        if (ident_is(j - 1, "operator")) {
          seen_operator = true;
        } else {
          seen_eq = true;
        }
        prev = txt;
        ++j;
        continue;
      }
      if (txt == ":" && paren_end != 0) in_init_list = true;
      if (txt == "<" && ident(j - 1) && !seen_eq &&
          cpp_keywords().count(t_[j - 1].text) == 0) {
        j = skip_template_args(j, end);
        prev = ">";
        continue;
      }
      if (ident_is(j, "operator")) seen_operator = true;
      prev = txt;
      ++j;
    }
    return end;
  }

  /// Records the parsed declaration. `body_begin`/`body_end` are 0 for
  /// body-less declarations.
  void finish_declaration(std::size_t begin, std::size_t decl_end,
                          std::size_t paren_begin, std::size_t paren_end,
                          bool seen_operator, ClassModel* model,
                          bool templated, std::size_t body_begin,
                          std::size_t body_end) {
    (void)templated;
    if (seen_operator) return;  // operators carry no contract we check
    if (paren_end != 0) {
      record_method(begin, paren_begin, paren_end, model, body_begin,
                    body_end);
      return;
    }
    if (model == nullptr || body_begin != 0) return;
    record_members(begin, decl_end, model);
  }

  void record_method(std::size_t begin, std::size_t paren_begin,
                     std::size_t paren_end, ClassModel* model,
                     std::size_t body_begin, std::size_t body_end) {
    const std::size_t name_idx = paren_begin - 2;  // ident before '('
    if (!ident(name_idx)) return;
    MethodModel method;
    method.name = t_[name_idx].text;
    method.line = t_[name_idx].line;
    method.has_body = body_begin != 0;
    method.body_begin = body_begin;
    method.body_end = body_end;
    method.is_dtor = name_idx > begin && t_[name_idx - 1].text == "~";
    parse_params(paren_begin, paren_end, &method);
    if (model != nullptr) {
      method.is_ctor = !method.is_dtor && method.name == model->name;
      model->methods.push_back(std::move(method));
      return;
    }
    // Namespace scope: record only `Class::method` definitions with bodies.
    // The whole `Outer::Inner::method` chain plus the enclosing namespaces
    // qualifies the class, so same-named classes in different namespaces
    // (or in namespace-free bench/test files) never share bodies.
    if (!method.has_body) return;
    std::size_t chain_idx = method.is_dtor ? name_idx - 1 : name_idx;
    std::vector<std::string> chain;
    while (chain_idx >= begin + 2 && t_[chain_idx - 1].text == "::" &&
           ident(chain_idx - 2)) {
      chain.insert(chain.begin(), t_[chain_idx - 2].text);
      chain_idx -= 2;
    }
    if (chain.empty()) return;
    OutOfLineMethod out;
    out.class_name = ns_prefix_;
    for (const std::string& part : chain) {
      if (out.class_name != ns_prefix_) out.class_name += "::";
      out.class_name += part;
    }
    method.is_ctor = !method.is_dtor && method.name == chain.back();
    out.method = std::move(method);
    out_->out_of_line.push_back(std::move(out));
  }

  void parse_params(std::size_t begin, std::size_t end, MethodModel* method) {
    if (begin >= end) return;
    if (end == begin + 1 && ident_is(begin, "void")) return;
    std::size_t chunk_start = begin;
    auto flush = [&](std::size_t chunk_end) {
      // Trim default argument.
      std::size_t effective = chunk_end;
      for (std::size_t j = chunk_start; j < chunk_end; ++j) {
        if (t_[j].text == "=") {
          effective = j;
          break;
        }
        if (t_[j].text == "(") j = skip_balanced(j, chunk_end, "(", ")") - 1;
        if (t_[j].text == "<" && ident(j - 1))
          j = skip_template_args(j, chunk_end) - 1;
      }
      if (effective <= chunk_start) return;
      std::string name;
      std::size_t type_end = effective;
      if (ident(effective - 1) && effective - 1 > chunk_start) {
        name = t_[effective - 1].text;
        type_end = effective - 1;
      }
      std::string type;
      for (std::size_t j = chunk_start; j < type_end; ++j) {
        if (!type.empty()) type += ' ';
        type += t_[j].text;
      }
      method->param_names.push_back(name);
      method->param_types.push_back(type);
      chunk_start = chunk_end + 1;
    };
    int depth = 0;
    for (std::size_t j = begin; j < end; ++j) {
      const std::string& txt = t_[j].text;
      if (txt == "(") j = skip_balanced(j, end, "(", ")") - 1;
      else if (txt == "[") j = skip_balanced(j, end, "[", "]") - 1;
      else if (txt == "{") j = skip_balanced(j, end, "{", "}") - 1;
      else if (txt == "<" && ident(j - 1) && depth == 0)
        j = skip_template_args(j, end) - 1;
      else if (txt == "," && depth == 0)
        flush(j);
    }
    flush(end);
  }

  void record_members(std::size_t begin, std::size_t end, ClassModel* model) {
    bool is_static = false;
    for (std::size_t j = begin; j < end; ++j)
      if (ident_is(j, "static")) is_static = true;
    // Split the declarator list at top-level commas.
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::size_t chunk_start = begin;
    for (std::size_t j = begin; j < end; ++j) {
      const std::string& txt = t_[j].text;
      if (txt == "(") j = skip_balanced(j, end, "(", ")") - 1;
      else if (txt == "[") j = skip_balanced(j, end, "[", "]") - 1;
      else if (txt == "{") j = skip_balanced(j, end, "{", "}") - 1;
      else if (txt == "<" && ident(j - 1) &&
               cpp_keywords().count(t_[j - 1].text) == 0)
        j = skip_template_args(j, end) - 1;
      else if (txt == ",") {
        chunks.push_back({chunk_start, j});
        chunk_start = j + 1;
      }
    }
    chunks.push_back({chunk_start, end});

    std::string shared_type;
    for (const auto& [cb, ce] : chunks) {
      // Trim initializer / array extent / bitfield width.
      std::size_t effective = ce;
      for (std::size_t j = cb; j < ce; ++j) {
        const std::string& txt = t_[j].text;
        if (txt == "=" || txt == "{" || txt == "[" || txt == ":") {
          effective = j;
          break;
        }
        if (txt == "<" && ident(j - 1) &&
            cpp_keywords().count(t_[j - 1].text) == 0)
          j = skip_template_args(j, ce) - 1;
      }
      if (effective <= cb || !ident(effective - 1)) continue;
      const std::size_t name_idx = effective - 1;
      if (cpp_keywords().count(t_[name_idx].text) != 0) continue;
      if (name_idx == cb) continue;  // a lone identifier is not a member
      MemberModel member;
      member.name = t_[name_idx].text;
      member.line = t_[name_idx].line;
      member.is_static = is_static;
      std::string type;
      for (std::size_t j = cb; j < name_idx; ++j) {
        if (!type.empty()) type += ' ';
        type += t_[j].text;
      }
      if (&chunks.front().first == &cb) shared_type = type;
      member.type = type.empty() ? shared_type : type;
      model->members.push_back(std::move(member));
    }
  }

  const std::vector<SourceToken>& t_;
  const std::size_t n_;
  FileModel* out_;
  std::string ns_prefix_;  ///< enclosing namespaces as "a::b::"; "" at global
};

// ---------------------------------------------------------------------------
// Pass 2 support: merged class view and body scanning.
// ---------------------------------------------------------------------------

struct BoundMethod {
  const MethodModel* method = nullptr;
  const FileModel* file = nullptr;
  std::size_t waiver_index = 0;  ///< index into the aligned WaiverSet vector
};

struct MergedClass {
  const ClassModel* decl = nullptr;
  const FileModel* decl_file = nullptr;
  std::size_t decl_waivers = 0;
  std::vector<BoundMethod> bodies;  ///< every method with a body
};

bool range_contains_ident(const FileModel& file, std::size_t begin,
                          std::size_t end, const std::string& name) {
  for (std::size_t i = begin; i < end && i < file.tokens.size(); ++i)
    if (file.tokens[i].ident && file.tokens[i].text == name) return true;
  return false;
}

const BoundMethod* find_body(const MergedClass& merged,
                             const std::string& name) {
  for (const BoundMethod& bound : merged.bodies)
    if (bound.method->name == name) return &bound;
  return nullptr;
}

/// `from` and every method of the class it calls, directly or through
/// other methods of the class (calls on members or other objects excluded).
std::vector<const BoundMethod*> reached_from(const MergedClass& merged,
                                             const BoundMethod* from) {
  std::vector<const BoundMethod*> reached = {from};
  for (std::size_t k = 0; k < reached.size(); ++k) {
    const FileModel& file = *reached[k]->file;
    const MethodModel& method = *reached[k]->method;
    for (std::size_t i = method.body_begin;
         i + 1 < method.body_end && i + 1 < file.tokens.size(); ++i) {
      const SourceToken& token = file.tokens[i];
      if (!token.ident || file.tokens[i + 1].text != "(") continue;
      if (i > method.body_begin && (file.tokens[i - 1].text == "." ||
                                    file.tokens[i - 1].text == "->"))
        continue;
      const BoundMethod* callee = find_body(merged, token.text);
      if (callee != nullptr &&
          std::find(reached.begin(), reached.end(), callee) == reached.end())
        reached.push_back(callee);
    }
  }
  return reached;
}

/// The typed Writer/Reader surface (binary_io.hpp). Writer and Reader use
/// the same method names, so one set covers both sides.
const std::set<std::string>& io_kinds() {
  static const std::set<std::string> kinds = {
      "u8",      "u16",     "u32",    "u64",    "f64",    "f32",   "str",
      "bytes",   "raw",     "vec_f64", "vec_f32", "vec_u8", "vec_u64",
      "vec_f64_into", "vec_f32_into", "vec_u8_into", "f64_block",
      "f64_block_into"};
  return kinds;
}

/// The kind a call pairs with on the other side: a Reader's in-place
/// `vec_*_into` read mirrors the Writer's `vec_*`.
std::string io_kind(const std::string& method) {
  constexpr std::string_view kInto = "_into";
  if (method.ends_with(kInto))
    return method.substr(0, method.size() - kInto.size());
  return method;
}

/// One serialization call, normalized for symmetry comparison.
struct IoCall {
  std::string kind;      ///< "u64", "tag", "rng", "nested", "call"
  std::string receiver;  ///< nested: the member the state belongs to
  std::size_t loop_depth = 0;
  std::size_t line = 0;  ///< 0-based
};

std::string describe(const IoCall& call) {
  std::string out = call.kind;
  if (call.kind == "nested") out += "(" + call.receiver + ")";
  if (call.loop_depth > 0)
    out += " in a depth-" + std::to_string(call.loop_depth) + " loop";
  return out;
}

/// Extracts the ordered typed-I/O sequence of one save_state/restore_state
/// body: direct Writer/Reader calls, write_tag/expect_tag, save_rng/
/// restore_rng, nested member save_state/restore_state, and opaque helper
/// calls that take the stream by reference. Loop depth tracks enclosing
/// for/while/do bodies (braced or single-statement).
std::vector<IoCall> extract_io_calls(const FileModel& file, std::size_t begin,
                                     std::size_t end, const std::string& var) {
  const auto& t = file.tokens;
  std::vector<IoCall> out;
  if (var.empty()) return out;

  // Loop-depth bookkeeping.
  std::vector<bool> brace_is_loop;       // one entry per open '{'
  std::size_t stmt_loops = 0;            // single-statement loops pending ';'
  std::vector<std::size_t> stmt_depths;  // brace depth each was opened at
  bool next_brace_is_loop = false;
  bool loop_header_pending = false;  // between for/while and its ')'
  int header_paren_depth = 0;

  auto loop_depth = [&] {
    std::size_t depth = stmt_loops;
    for (const bool is_loop : brace_is_loop)
      if (is_loop) ++depth;
    if (loop_header_pending) ++depth;  // reads in the header run per-iteration
    return depth;
  };

  auto first_arg_is = [&](std::size_t open_paren, const std::string& name) {
    return open_paren + 1 < end && t[open_paren + 1].ident &&
           t[open_paren + 1].text == name;
  };

  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    const std::string& txt = t[i].text;

    if (loop_header_pending) {
      if (txt == "(") ++header_paren_depth;
      if (txt == ")" && --header_paren_depth == 0) {
        loop_header_pending = false;
        if (i + 1 < end && t[i + 1].text == "{") {
          next_brace_is_loop = true;
        } else {
          ++stmt_loops;
          stmt_depths.push_back(brace_is_loop.size());
        }
      }
    } else if (t[i].ident && (txt == "for" || txt == "while") &&
               i + 1 < end && t[i + 1].text == "(") {
      loop_header_pending = true;
      header_paren_depth = 0;
    } else if (t[i].ident && txt == "do" && i + 1 < end &&
               t[i + 1].text == "{") {
      next_brace_is_loop = true;
    } else if (txt == "{") {
      brace_is_loop.push_back(next_brace_is_loop);
      next_brace_is_loop = false;
    } else if (txt == "}") {
      if (!brace_is_loop.empty()) brace_is_loop.pop_back();
    } else if (txt == ";") {
      while (!stmt_depths.empty() &&
             stmt_depths.back() >= brace_is_loop.size()) {
        stmt_depths.pop_back();
        --stmt_loops;
      }
    }

    if (!t[i].ident) continue;
    const bool after_member_access =
        i > begin && (t[i - 1].text == "." || t[i - 1].text == "->");

    // `stream.kind(...)`
    if (txt == var && i + 3 < end &&
        (t[i + 1].text == "." || t[i + 1].text == "->") && t[i + 2].ident &&
        t[i + 3].text == "(" && io_kinds().count(t[i + 2].text) != 0) {
      out.push_back({io_kind(t[i + 2].text), "", loop_depth(), t[i + 2].line});
      continue;
    }
    if (i + 1 >= end || t[i + 1].text != "(") continue;

    // `member.save_state(stream)` / `member.restore_state(stream)`
    if ((txt == "save_state" || txt == "restore_state") &&
        after_member_access && first_arg_is(i + 1, var)) {
      std::string receiver = "<expr>";
      if (i >= begin + 2 && t[i - 2].ident) receiver = t[i - 2].text;
      out.push_back({"nested", receiver, loop_depth(), t[i].line});
      continue;
    }
    if (after_member_access) continue;

    if ((txt == "write_tag" || txt == "expect_tag" ||
         txt == "expect_tag_of") &&
        first_arg_is(i + 1, var)) {
      out.push_back({"tag", "", loop_depth(), t[i].line});
      continue;
    }
    if ((txt == "save_rng" || txt == "restore_rng") &&
        first_arg_is(i + 1, var)) {
      out.push_back({"rng", "", loop_depth(), t[i].line});
      continue;
    }
    if (cpp_keywords().count(txt) != 0 || txt == var) continue;

    // Opaque helper taking the stream by reference: `helper(..., stream)`.
    const std::size_t close = [&] {
      int depth = 0;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) return j;
      }
      return end;
    }();
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].ident && t[j].text == var &&
          (j + 1 >= close ||
           (t[j + 1].text != "." && t[j + 1].text != "->"))) {
        out.push_back({"call", "", loop_depth(), t[i].line});
        break;
      }
    }
  }
  return out;
}

/// The stream parameter name of a save_state/restore_state body.
std::string stream_param(const MethodModel& method, const char* type_marker) {
  for (std::size_t i = 0; i < method.param_types.size(); ++i)
    if (method.param_types[i].find(type_marker) != std::string::npos)
      return method.param_names[i];
  return {};
}

bool io_calls_match(const IoCall& save, const IoCall& restore) {
  if (save.loop_depth != restore.loop_depth) return false;
  if (save.kind != restore.kind) return false;
  if (save.kind == "nested" && save.receiver != restore.receiver &&
      save.receiver != "<expr>" && restore.receiver != "<expr>")
    return false;
  return true;
}

}  // namespace

FileModel build_file_model(const std::string& path, const Scrubbed& scrubbed) {
  FileModel model;
  model.path = path;
  model.tokens = lex_flat(scrubbed);
  ModelBuilder(model.tokens, &model).run();
  return model;
}

std::vector<Finding> analyze(const std::vector<FileModel>& models,
                             std::vector<WaiverSet*>& waivers,
                             const Options& options) {
  std::vector<Finding> findings;

  // Merge the per-file models: headers declare, .cpps define.
  std::map<std::string, MergedClass> classes;
  for (std::size_t f = 0; f < models.size(); ++f) {
    const FileModel& file = models[f];
    for (const ClassModel& cls : file.classes) {
      MergedClass& merged = classes[cls.qualified];
      if (merged.decl == nullptr) {
        merged.decl = &cls;
        merged.decl_file = &file;
        merged.decl_waivers = f;
      }
      for (const MethodModel& method : cls.methods)
        if (method.has_body) merged.bodies.push_back({&method, &file, f});
    }
    for (const OutOfLineMethod& out : file.out_of_line)
      classes[out.class_name].bodies.push_back({&out.method, &file, f});
  }

  for (auto& [name, merged] : classes) {
    if (merged.decl == nullptr) continue;
    const std::string& decl_path = merged.decl_file->path;
    WaiverSet& decl_waivers = *waivers[merged.decl_waivers];

    // ---- L8 / L9: checkpoint contract --------------------------------------
    if (under_any(decl_path, options.ckpt_contract_dirs)) {
      const BoundMethod* save = find_body(merged, "save_state");
      const BoundMethod* restore = find_body(merged, "restore_state");
      // The field list (ckpt/fields.hpp) both saves and restores.
      const BoundMethod* fields = find_body(merged, "fields");
      const auto in_body = [](const BoundMethod* b, const std::string& name) {
        return b != nullptr &&
               range_contains_ident(*b->file, b->method->body_begin,
                                    b->method->body_end, name);
      };
      if ((save != nullptr && restore != nullptr) || fields != nullptr) {
        // L8: every non-static data member is referenced in the field list
        // or in both bodies, or carries a ckpt-skip annotation saying why
        // it is not state.
        for (const MemberModel& member : merged.decl->members) {
          if (member.is_static) continue;
          const bool in_fields = in_body(fields, member.name);
          const bool in_save = in_fields || in_body(save, member.name);
          const bool in_restore = in_fields || in_body(restore, member.name);
          if (in_save && in_restore) continue;
          if (decl_waivers.try_waive(member.line, "ckpt-skip")) continue;
          const char* where =
              !in_save && !in_restore
                  ? "fields, save_state or restore_state"
                  : (!in_save ? "save_state" : "restore_state");
          findings.push_back(
              {decl_path, member.line + 1, "L8-ckpt-coverage",
               "data member '" + member.name + "' of '" +
                   merged.decl->qualified + "' is not referenced in " +
                   where +
                   " — a resume would silently lose it; list it in fields "
                   "(or serialize it) or annotate `// lint: ckpt-skip(reason)` "
                   "on the member",
               Severity::kError});
        }

        // L8, reset half: a checkpointed class that defines reset() puts
        // every state member back there, or in a method of the class that
        // reset() calls, so an object reset for reuse carries nothing of
        // its last owner over. A member reset() leaves on purpose says why
        // with `// lint: reset-ok(reason)`.
        if (const BoundMethod* reset = find_body(merged, "reset")) {
          const std::vector<const BoundMethod*> reached =
              reached_from(merged, reset);
          for (const MemberModel& member : merged.decl->members) {
            if (member.is_static) continue;
            const bool in_reset = std::any_of(
                reached.begin(), reached.end(), [&](const BoundMethod* b) {
                  return range_contains_ident(*b->file, b->method->body_begin,
                                              b->method->body_end,
                                              member.name);
                });
            if (in_reset) continue;
            if (decl_waivers.try_waive(member.line, "ckpt-skip")) continue;
            if (decl_waivers.try_waive(member.line, "reset")) continue;
            findings.push_back(
                {decl_path, member.line + 1, "L8-ckpt-coverage",
                 "data member '" + member.name + "' of '" +
                     merged.decl->qualified +
                     "' is not referenced in reset — an object reset for "
                     "reuse would carry it over from its last owner; reset "
                     "it, or annotate `// lint: ckpt-skip(reason)` (not "
                     "state) or `// lint: reset-ok(reason)` on the member",
                 Severity::kError});
          }
        }

        // L9: a hand-written typed Writer sequence mirrors the Reader
        // sequence (a field list is symmetric by construction).
        const std::string writer =
            save != nullptr ? stream_param(*save->method, "Writer") : "";
        const std::string reader =
            restore != nullptr ? stream_param(*restore->method, "Reader") : "";
        if (!writer.empty() && !reader.empty()) {
          const auto saves = extract_io_calls(*save->file,
                                              save->method->body_begin,
                                              save->method->body_end, writer);
          const auto reads = extract_io_calls(
              *restore->file, restore->method->body_begin,
              restore->method->body_end, reader);
          std::size_t k = 0;
          while (k < saves.size() && k < reads.size() &&
                 io_calls_match(saves[k], reads[k]))
            ++k;
          if (k < saves.size() || k < reads.size()) {
            const std::size_t report_line =
                k < saves.size() ? saves[k].line : save->method->line;
            WaiverSet& save_waivers = *waivers[save->waiver_index];
            WaiverSet& restore_waivers = *waivers[restore->waiver_index];
            const bool waived =
                save_waivers.try_waive(save->method->line, "ckpt-sym") ||
                save_waivers.try_waive(report_line, "ckpt-sym") ||
                (k < reads.size() &&
                 restore_waivers.try_waive(reads[k].line, "ckpt-sym"));
            if (!waived) {
              std::ostringstream msg;
              msg << "save_state/restore_state of '"
                  << merged.decl->qualified << "' diverge at typed call "
                  << (k + 1) << ": ";
              if (k < saves.size() && k < reads.size())
                msg << "save writes " << describe(saves[k])
                    << " but restore reads " << describe(reads[k]);
              else if (k < saves.size())
                msg << "save writes " << describe(saves[k])
                    << " with no matching restore read (" << saves.size()
                    << " writes vs " << reads.size() << " reads)";
              else
                msg << "restore reads " << describe(reads[k])
                    << " with no matching save write (" << saves.size()
                    << " writes vs " << reads.size() << " reads)";
              msg << " — skewed bytes decode as valid-but-wrong state the "
                     "CRC cannot see; fix the order or waive the "
                     "save_state definition with "
                     "`// lint: ckpt-sym-ok(reason)`";
              findings.push_back({save->file->path, report_line + 1,
                                  "L9-ckpt-symmetry", msg.str(),
                                  Severity::kError});
            }
          }
        }
      }
    }

    // ---- L10: shard ownership ----------------------------------------------
    if (under_any(decl_path, options.shard_ownership_dirs) &&
        !merged.bodies.empty()) {
      std::set<std::string> method_names;
      for (const MethodModel& method : merged.decl->methods)
        method_names.insert(method.name);
      for (const BoundMethod& bound : merged.bodies)
        method_names.insert(bound.method->name);

      // Worker entries: methods a std::thread construction names.
      std::set<std::string> workers;
      for (const BoundMethod& bound : merged.bodies) {
        const auto& t = bound.file->tokens;
        for (std::size_t i = bound.method->body_begin;
             i < bound.method->body_end && i < t.size(); ++i) {
          if (!t[i].ident || t[i].text != "thread" ||
              i + 1 >= bound.method->body_end || t[i + 1].text != "(")
            continue;
          int depth = 0;
          for (std::size_t j = i + 1; j < bound.method->body_end; ++j) {
            if (t[j].text == "(") ++depth;
            if (t[j].text == ")" && --depth == 0) break;
            if (t[j].ident && method_names.count(t[j].text) != 0 &&
                j + 1 < bound.method->body_end && t[j + 1].text == "(")
              workers.insert(t[j].text);
          }
        }
      }
      if (workers.empty()) continue;

      // Transitive closure: anything a worker method calls runs on the
      // worker thread too.
      for (bool changed = true; changed;) {
        changed = false;
        for (const BoundMethod& bound : merged.bodies) {
          if (workers.count(bound.method->name) == 0) continue;
          const auto& t = bound.file->tokens;
          for (std::size_t i = bound.method->body_begin;
               i < bound.method->body_end && i < t.size(); ++i) {
            if (!t[i].ident || method_names.count(t[i].text) == 0) continue;
            if (i + 1 >= bound.method->body_end || t[i + 1].text != "(")
              continue;
            const bool member_access =
                i > 0 && (t[i - 1].text == "." ||
                          (t[i - 1].text == "->" &&
                           !(i >= 2 && t[i - 2].ident &&
                             t[i - 2].text == "this")));
            if (member_access) continue;
            if (workers.insert(t[i].text).second) changed = true;
          }
        }
      }

      std::set<std::string> worker_touched;
      std::set<std::string> orchestrator_touched;
      for (const BoundMethod& bound : merged.bodies) {
        const bool is_worker = workers.count(bound.method->name) != 0;
        if (!is_worker && bound.method->is_ctor)
          continue;  // runs before any worker thread exists
        for (const MemberModel& member : merged.decl->members) {
          if (member.is_static) continue;
          if (!range_contains_ident(*bound.file, bound.method->body_begin,
                                    bound.method->body_end, member.name))
            continue;
          (is_worker ? worker_touched : orchestrator_touched)
              .insert(member.name);
        }
      }

      for (const MemberModel& member : merged.decl->members) {
        if (member.is_static) continue;
        if (worker_touched.count(member.name) == 0 ||
            orchestrator_touched.count(member.name) == 0)
          continue;
        const bool safe_type = std::any_of(
            options.shard_safe_types.begin(), options.shard_safe_types.end(),
            [&](const std::string& marker) {
              return member.type.find(marker) != std::string::npos;
            });
        if (safe_type) continue;
        if (decl_waivers.try_waive(member.line, "shard")) continue;
        findings.push_back(
            {decl_path, member.line + 1, "L10-shard-ownership",
             "data member '" + member.name + "' of '" +
                 merged.decl->qualified +
                 "' is touched by worker-thread methods (" +
                 [&] {
                   std::string list;
                   for (const std::string& w : workers)
                     list += (list.empty() ? "" : ", ") + w;
                   return list;
                 }() +
                 ") and by orchestrator methods but is neither an "
                 "SpscQueue, std::atomic nor const — state crossing the "
                 "injector/worker boundary must use the partitioning idiom "
                 "(DESIGN.md §12) or waive with `// lint: shard-ok(reason)`",
             Severity::kError});
      }
    }
  }

  return findings;
}

}  // namespace fedpower::lint
