#include "analyze_core.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

// Implementation map (analyze_core.h documents the contract):
//   lex()            — tokens with kinds; comments/preprocessor/literals eaten
//                      (or, `full`, kept: directives lexed, comments as text).
//   AllowTable       — allow()/allow-file() markers, read from comment tokens.
//   StructureParser  — phase 1: classes (members, mutex members, bases,
//                      methods with return types / annotations / body ranges),
//                      using/typedef aliases, global mutexes. Tolerant: on
//                      anything it cannot shape it skips to the next ';'/'}'.
//   analyze_body()   — phase 2: per-function walk. Tracks locals/params, a
//                      lexical block stack of held mutexes, MutexLock
//                      acquisitions, call sites (receiver/qualifier resolved
//                      against the model), statement-position calls, direct
//                      blocking calls, cv waits, range-for loops.
//   resolve/report   — phase 3: call resolution (typed receiver + virtual
//                      fan-out; free calls by own class, else unique name),
//                      transitive acquires/blocking fixpoints, lock-order
//                      edges + SCC cycles, discarded-status decisions,
//                      suppression filter.
//   token_sweep()    — per-file token rules over the full lex: hygiene, and
//                      the literal/alias-resolved clock/time/random bans.

namespace zdc::analyze {

namespace {

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules = {
      "recursive-lock",     "lock-order-cycle", "blocking-under-lock",
      "cv-wait-multi-lock", "discarded-status", "wall-clock",
      "wall-time",          "raw-random",       "unordered-iter",
      "unordered-encode-flow", "bare-assert",   "std-cout",
  };
  return rules;
}

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// ---------------------------------------------------------------------------
// Allow markers: `allow(<rule>)` covers its own line and the next,
// `allow-file(<rule>)` the whole file. Only comment tokens carry markers.

struct AllowTable {
  std::map<int, std::set<std::string>> by_line;
  std::set<std::string> file_rules;
  std::vector<Finding> marker_findings;
};

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void parse_marker(const std::string& path, const Token& comment,
                  AllowTable* table) {
  // Find the marker head `zdc-<tool>:` (lower-case tool name).
  const std::string& text = comment.text;
  std::size_t mark = text.find("zdc-");
  std::size_t colon = std::string::npos;
  for (; mark != std::string::npos; mark = text.find("zdc-", mark + 4)) {
    colon = mark + 4;
    while (colon < text.size() &&
           (std::islower(static_cast<unsigned char>(text[colon])) ||
            text[colon] == '-')) {
      ++colon;
    }
    if (colon > mark + 4 && colon < text.size() && text[colon] == ':') break;
  }
  if (mark == std::string::npos) return;
  const int line = comment.line + static_cast<int>(std::count(
                                      text.begin(), text.begin() + mark, '\n'));
  auto report = [&](const std::string& rule, const std::string& message) {
    table->marker_findings.push_back({path, line, rule, message});
  };
  const std::string tool = text.substr(mark, colon - mark);
  if (tool != "zdc-analyze") {
    if (trim(text.substr(colon + 1)).rfind("allow", 0) == 0) {
      report("unknown-allow", "'" + tool +
                                  ":' markers are not read — write `zdc-"
                                  "analyze: allow(<rule>): <why>`");
    }
    return;
  }
  bool file_scope = false;
  std::size_t open = text.find("allow-file(", colon);
  if (open != std::string::npos) {
    file_scope = true;
    open += 11;
  } else {
    open = text.find("allow(", colon);
    if (open == std::string::npos) {
      report("unknown-allow",
             "malformed marker (expected `zdc-analyze: allow(<rule>): <why>` "
             "or allow-file)");
      return;
    }
    open += 6;
  }
  const std::size_t close = text.find(')', open);
  if (close == std::string::npos) {
    report("unknown-allow", "unterminated allow(<rule>) marker");
    return;
  }
  const std::string rule = trim(text.substr(open, close - open));
  // `<rule>`-style placeholders mean documentation of the grammar itself
  // (analyze_core.h, docs/ANALYSIS.md) — not a marker, not a violation.
  if (!rule.empty() && rule.front() == '<') return;
  if (known_rules().count(rule) == 0) {
    report("unknown-allow", "allow() names unknown rule '" + rule + "'");
    return;
  }
  std::string reason = trim(text.substr(close + 1));
  if (!reason.empty() && reason.front() == ':') reason = trim(reason.substr(1));
  // A block comment's closing delimiter is not a justification.
  if (reason.size() >= 2 && reason.compare(reason.size() - 2, 2, "*/") == 0) {
    reason = trim(reason.substr(0, reason.size() - 2));
  }
  if (reason.empty()) {
    report("allow-needs-reason",
           "allow(" + rule + ") needs a justification after the marker");
    return;
  }
  if (file_scope) {
    table->file_rules.insert(rule);
  } else {
    table->by_line[line].insert(rule);
  }
}

bool allowed(const AllowTable& t, int line, const std::string& rule) {
  if (t.file_rules.count(rule) != 0) return true;
  for (int probe : {line, line - 1}) {
    const auto it = t.by_line.find(probe);
    if (it != t.by_line.end() && it->second.count(rule) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Structural model.

struct Alias {
  std::string tail;  ///< resolved-to type name (one step)
  int line = 0;      ///< declaration site (not a "use" of itself)
};

struct Method {
  std::string cls;   ///< "" for free functions
  std::string name;
  std::string ret;   ///< tail identifier of the return type, "" for ctor/dtor
  int file = -1;
  int line = 0;
  int body_begin = -1;  ///< token index of '{', -1 when declaration only
  int body_end = -1;    ///< token index of matching '}'
  bool is_virtual = false;
  std::vector<std::string> acquire_exprs;  ///< ZDC_ACQUIRE(...) arguments
  std::vector<std::pair<std::string, std::string>> params;  // name -> type
};

struct Class {
  std::vector<std::string> bases;
  std::map<std::string, std::string> members;  ///< member name -> type tail
  std::set<std::string> mutex_members;
};

struct Model {
  const std::vector<SourceFile>* files = nullptr;
  std::vector<std::vector<Token>> toks;
  std::vector<AllowTable> allows;
  std::vector<std::map<std::string, Alias>> file_aliases;
  std::map<std::string, Alias> global_aliases;  ///< header-declared
  std::map<std::string, Class> classes;
  std::vector<Method> methods;
  std::map<std::string, std::vector<int>> by_name;
  std::map<std::string, std::map<std::string, std::vector<int>>> by_cls;
  std::map<std::string, std::set<std::string>> derived;  ///< base -> derived*
  std::set<std::string> global_mutexes;
  std::map<std::string, std::string> globals;  ///< global var -> type tail

  /// Chase using/typedef chains (file-local first) to a ground type name.
  std::string resolve_type(int file, const std::string& name,
                           int* steps = nullptr) const {
    std::string cur = name;
    for (int hops = 0; hops < 8; ++hops) {
      const auto& local = file_aliases[file];
      auto it = local.find(cur);
      if (it == local.end()) it = local.end();
      const Alias* a = nullptr;
      if (it != local.end()) {
        a = &it->second;
      } else {
        const auto git = global_aliases.find(cur);
        if (git != global_aliases.end()) a = &git->second;
      }
      if (a == nullptr || a->tail == cur) break;
      cur = a->tail;
      if (steps != nullptr) ++*steps;
    }
    return cur;
  }

  const Class* find_class(const std::string& name) const {
    const auto it = classes.find(name);
    return it == classes.end() ? nullptr : &it->second;
  }

  /// Member type looked up through the class and its bases; "" if absent.
  std::string member_type(const std::string& cls,
                          const std::string& member) const {
    std::set<std::string> seen;
    std::vector<std::string> stack = {cls};
    while (!stack.empty()) {
      const std::string c = stack.back();
      stack.pop_back();
      if (!seen.insert(c).second) continue;
      const Class* info = find_class(c);
      if (info == nullptr) continue;
      const auto it = info->members.find(member);
      if (it != info->members.end()) return it->second;
      for (const std::string& b : info->bases) stack.push_back(b);
    }
    return "";
  }

  /// Class (cls or a base) that declares mutex member `m`; "" if none.
  std::string mutex_owner(const std::string& cls, const std::string& m) const {
    std::set<std::string> seen;
    std::vector<std::string> stack = {cls};
    while (!stack.empty()) {
      const std::string c = stack.back();
      stack.pop_back();
      if (!seen.insert(c).second) continue;
      const Class* info = find_class(c);
      if (info == nullptr) continue;
      if (info->mutex_members.count(m) != 0) return c;
      for (const std::string& b : info->bases) stack.push_back(b);
    }
    return "";
  }

  /// Methods named `name` on `cls`/bases, plus overrides in derived classes.
  std::vector<int> lookup(const std::string& cls, const std::string& name,
                          bool fan_out_derived) const {
    std::vector<int> out;
    std::set<std::string> seen;
    std::vector<std::string> stack = {cls};
    if (fan_out_derived) {
      const auto dit = derived.find(cls);
      if (dit != derived.end()) {
        for (const std::string& d : dit->second) stack.push_back(d);
      }
    }
    while (!stack.empty()) {
      const std::string c = stack.back();
      stack.pop_back();
      if (!seen.insert(c).second) continue;
      const auto cit = by_cls.find(c);
      if (cit != by_cls.end()) {
        const auto mit = cit->second.find(name);
        if (mit != cit->second.end()) {
          out.insert(out.end(), mit->second.begin(), mit->second.end());
        }
      }
      const Class* info = find_class(c);
      if (info != nullptr) {
        for (const std::string& b : info->bases) stack.push_back(b);
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Phase 1: structural parser. One pass per file; tolerant by construction.

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> s = {
      "if",       "else",      "while",   "for",      "switch",   "do",
      "return",   "co_return", "co_yield", "co_await", "case",    "default",
      "break",    "continue",  "goto",    "throw",    "try",      "catch",
      "new",      "delete",    "sizeof",  "static_cast", "dynamic_cast",
      "reinterpret_cast", "const_cast", "this", "nullptr", "true", "false",
  };
  return s;
}

const std::set<std::string>& decl_specifiers() {
  static const std::set<std::string> s = {
      "static", "inline", "constexpr", "consteval", "virtual", "explicit",
      "extern", "mutable", "const",    "volatile",  "thread_local", "friend",
      "typename", "register",
  };
  return s;
}

// Single-value wrappers whose template argument is the type that matters for
// receiver resolution (`wal_->sync()` on a unique_ptr<Wal> member is a call
// on Wal). Containers record the element as "T[]" so range-for loop
// variables resolve without the container itself answering member lookups.
const std::set<std::string>& pointee_wrappers() {
  static const std::set<std::string> s = {"unique_ptr", "shared_ptr",
                                          "weak_ptr", "optional"};
  return s;
}
const std::set<std::string>& elem_containers() {
  static const std::set<std::string> s = {"vector", "array",  "deque",
                                          "list",   "span",   "set",
                                          "multiset", "initializer_list"};
  return s;
}

bool is_macro_name(const std::string& s) {
  // Single capital letters are class/template-parameter names, not macros.
  if (s.size() < 2 || !std::isupper(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (char c : s) {
    if (!std::isupper(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

struct StructureParser {
  Model& model;
  int fi;
  const std::vector<Token>& t;
  bool is_header;
  std::size_t i = 0;

  const std::string& txt(std::size_t k) const {
    static const std::string empty;
    return k < t.size() ? t[k].text : empty;
  }
  bool is_ident(std::size_t k) const {
    return k < t.size() && t[k].kind == Tok::kIdent;
  }

  /// At '<': skips the balanced template argument list, returning the last
  /// identifier inside — the element/pointee tail for one-slot wrappers.
  std::string skip_template_args() {
    int depth = 0;
    std::string last;
    while (i < t.size()) {
      if (txt(i) == "<") ++depth;
      if (txt(i) == ">" && --depth == 0) {
        ++i;
        break;
      }
      if (is_ident(i)) last = txt(i);
      ++i;
    }
    return last;
  }

  /// Rewrites a declaration-chain tail for wrapper/container templates.
  std::string template_adjusted(const std::string& outer) {
    const std::string inner = skip_template_args();
    if (inner.empty()) return outer;
    if (pointee_wrappers().count(outer) != 0) return inner;
    if (elem_containers().count(outer) != 0) return inner + "[]";
    return outer;
  }

  /// Skips a balanced open..close group; cursor must be at `open`.
  void skip_balanced(const std::string& open, const std::string& close) {
    int depth = 0;
    while (i < t.size()) {
      if (txt(i) == open) ++depth;
      if (txt(i) == close && --depth == 0) {
        ++i;
        return;
      }
      ++i;
    }
  }

  /// Skips to the ';' ending the current declaration, balancing groups.
  void skip_to_semi() {
    while (i < t.size()) {
      const std::string& s = txt(i);
      if (s == ";") {
        ++i;
        return;
      }
      if (s == "{") {
        skip_balanced("{", "}");
        continue;
      }
      if (s == "(") {
        skip_balanced("(", ")");
        continue;
      }
      if (s == "}") return;  // malformed; let the caller's scope close
      ++i;
    }
  }

  /// Skips `[[ ... ]]` attributes at the cursor.
  bool skip_attribute() {
    if (txt(i) == "[" && txt(i + 1) == "[") {
      i += 2;
      while (i < t.size() && !(txt(i) == "]" && txt(i + 1) == "]")) ++i;
      i = std::min(t.size(), i + 2);
      return true;
    }
    return false;
  }

  /// Macro invocation `NAME(...)` — consumed; ZDC_ACQUIRE args captured.
  bool skip_macro(std::vector<std::string>* acquire_out) {
    if (!is_ident(i) || !is_macro_name(txt(i))) return false;
    const bool is_acquire =
        txt(i) == "ZDC_ACQUIRE" || txt(i) == "ZDC_ACQUIRE_SHARED";
    if (txt(i + 1) != "(") {
      // Bare macro (e.g. ZDC_SCOPED_CAPABILITY, override-style markers).
      ++i;
      return true;
    }
    ++i;
    if (is_acquire && acquire_out != nullptr) {
      // Collect the argument identifiers (usually one member name).
      std::size_t j = i + 1;
      int depth = 1;
      std::string expr;
      for (; j < t.size() && depth > 0; ++j) {
        if (txt(j) == "(") ++depth;
        if (txt(j) == ")" && --depth == 0) break;
        if (t[j].kind == Tok::kIdent) {
          if (!expr.empty()) expr += ".";
          expr += txt(j);
        }
      }
      if (!expr.empty()) acquire_out->push_back(expr);
    }
    skip_balanced("(", ")");
    return true;
  }

  void record_alias(const std::string& name, const std::string& tail,
                    int line) {
    if (name.empty() || tail.empty() || name == tail) return;
    Alias a{tail, line};
    model.file_aliases[fi][name] = a;
    if (is_header) model.global_aliases[name] = a;
  }

  /// `using X = ...;` (cursor after `using`) / `typedef ... X;`.
  void parse_using() {
    if (txt(i) == "namespace") {
      skip_to_semi();
      return;
    }
    if (!is_ident(i) || txt(i + 1) != "=") {
      skip_to_semi();  // using-declaration (`using std::swap;`) or similar
      return;
    }
    const std::string name = txt(i);
    const int line = t[i].line;
    i += 2;
    std::string tail;
    std::string last;
    while (i < t.size() && txt(i) != ";") {
      if (txt(i) == "<") {
        if (tail.empty()) tail = last;
        skip_balanced("<", ">");
        continue;
      }
      if (is_ident(i)) last = txt(i);
      ++i;
    }
    if (tail.empty()) tail = last;
    record_alias(name, tail, line);
    if (i < t.size()) ++i;  // ';'
  }

  void parse_typedef() {
    std::string tail;
    std::string last;
    std::string prev;
    const int line = i < t.size() ? t[i].line : 0;
    while (i < t.size() && txt(i) != ";") {
      if (txt(i) == "<") {
        if (tail.empty()) tail = prev;
        skip_balanced("<", ">");
        continue;
      }
      if (is_ident(i)) {
        prev = last;
        last = txt(i);
      }
      ++i;
    }
    if (tail.empty()) tail = prev;
    record_alias(last, tail, line);
    if (i < t.size()) ++i;
  }

  /// Cursor after `class`/`struct`. Parses the header + body; registers the
  /// class. Returns its name ("" when anonymous / forward-declared).
  std::string parse_class() {
    // Skip attribute/capability macros and alignas between keyword and name.
    while (i < t.size()) {
      if (skip_attribute()) continue;
      if (txt(i) == "alignas" && txt(i + 1) == "(") {
        ++i;
        skip_balanced("(", ")");
        continue;
      }
      if (skip_macro(nullptr)) continue;
      break;
    }
    if (!is_ident(i)) {  // anonymous struct
      if (txt(i) == "{") skip_balanced("{", "}");
      skip_to_semi();
      return "";
    }
    std::string name = txt(i);
    ++i;
    // Out-of-line nested definitions: `struct Outer::Inner { ... }` — the
    // unqualified tail is the class identity (names are global here).
    while (txt(i) == "::" && is_ident(i + 1)) {
      name = txt(i + 1);
      i += 2;
    }
    if (txt(i) == "final") ++i;
    if (txt(i) == ";") {  // forward declaration
      ++i;
      return "";
    }
    Class& cls = model.classes[name];
    if (txt(i) == ":") {
      ++i;
      std::string last;
      while (i < t.size() && txt(i) != "{" && txt(i) != ";") {
        const std::string& s = txt(i);
        if (s == "<") {
          skip_balanced("<", ">");
          continue;
        }
        if (s == ",") {
          if (!last.empty()) cls.bases.push_back(last);
          last.clear();
          ++i;
          continue;
        }
        if (is_ident(i) && s != "public" && s != "protected" &&
            s != "private" && s != "virtual") {
          last = s;
        }
        ++i;
      }
      if (!last.empty()) cls.bases.push_back(last);
    }
    if (txt(i) != "{") {
      skip_to_semi();
      return name;
    }
    ++i;  // '{'
    parse_members(name);
    // Past the closing '}' — skip any declarators up to ';'.
    skip_to_semi();
    return name;
  }

  /// Class body: members and methods until the matching '}'.
  void parse_members(const std::string& cls) {
    while (i < t.size()) {
      const std::string& s = txt(i);
      if (s == "}") {
        ++i;
        return;
      }
      if (s == "public" || s == "private" || s == "protected") {
        ++i;
        if (txt(i) == ":") ++i;
        continue;
      }
      if (s == "using") {
        ++i;
        parse_using();
        continue;
      }
      if (s == "typedef") {
        ++i;
        parse_typedef();
        continue;
      }
      if (s == "friend" || s == "static_assert") {
        skip_to_semi();
        continue;
      }
      if (s == "template") {
        ++i;
        if (txt(i) == "<") skip_balanced("<", ">");
        continue;
      }
      if (s == "class" || s == "struct") {
        ++i;
        parse_class();
        continue;
      }
      if (s == "enum") {
        while (i < t.size() && txt(i) != "{" && txt(i) != ";") ++i;
        if (txt(i) == "{") skip_balanced("{", "}");
        skip_to_semi();
        continue;
      }
      if (s == ";") {
        ++i;
        continue;
      }
      parse_decl(cls);
    }
  }

  /// One declaration at class or namespace scope: a data member / global
  /// variable, or a method / free function (declaration or definition).
  void parse_decl(const std::string& cls) {
    std::vector<std::string> chain;  // identifier/"::" sequence
    std::vector<std::string> acquires;
    bool is_virtual = false;
    const std::size_t decl_start = i;

    while (i < t.size()) {
      const std::string& s = txt(i);
      if (s == ";") {
        handle_var(cls, chain, t[decl_start].line);
        ++i;
        return;
      }
      if (s == "=") {
        handle_var(cls, chain, t[decl_start].line);
        skip_to_semi();
        return;
      }
      if (s == "{") {
        handle_var(cls, chain, t[decl_start].line);  // brace-init member
        skip_balanced("{", "}");
        skip_to_semi();
        return;
      }
      if (s == "}") return;  // malformed — bail to enclosing scope
      if (s == "(") {
        parse_function(cls, chain, is_virtual, acquires, t[decl_start].line);
        return;
      }
      if (skip_attribute()) continue;
      if (s == "operator") {
        // `operator==(...)`, conversion operators: name the method
        // "operator" and skip the symbol soup up to '('.
        chain.push_back("operator");
        ++i;
        while (i < t.size() && txt(i) != "(" && txt(i) != ";") {
          if (txt(i) == "<" && txt(i + 1) != "(") {
            // may be operator< itself; just advance
          }
          ++i;
        }
        continue;
      }
      if (s == "<") {
        if (!chain.empty()) {
          chain.back() = template_adjusted(chain.back());
        } else {
          skip_balanced("<", ">");
        }
        continue;
      }
      if (is_ident(i)) {
        if (s == "virtual") is_virtual = true;
        if (skip_macro(&acquires)) continue;
        if (decl_specifiers().count(s) == 0) chain.push_back(s);
        ++i;
        continue;
      }
      if (s == "::") {
        chain.push_back("::");
        ++i;
        continue;
      }
      // '*', '&', '~', ',', ':' (bitfields), etc.
      if (s == "~") chain.push_back("~");
      ++i;
    }
  }

  /// Variable declaration: last chain identifier is the name, the identifier
  /// before it the type tail. Registers members / globals / mutexes.
  void handle_var(const std::string& cls, const std::vector<std::string>& chain,
                  int /*line*/) {
    std::string name;
    std::string type;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (*it == "::" || *it == "~") continue;
      if (name.empty()) {
        name = *it;
      } else {
        type = *it;
        break;
      }
    }
    if (name.empty() || type.empty()) return;
    const std::string ground = model.resolve_type(fi, type);
    if (!cls.empty()) {
      Class& info = model.classes[cls];
      info.members[name] = type;
      if (ground == "Mutex") info.mutex_members.insert(name);
    } else {
      model.globals[name] = type;
      if (ground == "Mutex") model.global_mutexes.insert(name);
    }
  }

  /// Cursor at '(' of a parameter list. `chain` holds the declaration head.
  void parse_function(const std::string& cls, std::vector<std::string>& chain,
                      bool is_virtual, std::vector<std::string>& acquires,
                      int line) {
    Method m;
    m.file = fi;
    m.line = line;
    m.is_virtual = is_virtual;
    // Name and class from the head: `ret Cls :: name` or `ret name`.
    std::string name;
    std::string qual;
    std::string ret;
    std::size_t k = chain.size();
    bool dtor = false;
    while (k > 0) {
      --k;
      if (chain[k] == "~") {
        dtor = true;
        continue;
      }
      if (chain[k] == "::") continue;
      if (name.empty()) {
        name = chain[k];
        // A qualifier directly before the name via "::".
        if (k >= 2 && chain[k - 1] == "::") {
          qual = chain[k - 2];
          --k;  // consume "::" on the next loop turns
        }
        continue;
      }
      if (qual.empty() && ret.empty()) {
        ret = chain[k];
        break;
      }
      if (!qual.empty() && chain[k] == qual) continue;  // skip the qualifier
      if (ret.empty()) {
        ret = chain[k];
        break;
      }
    }
    if (name.empty()) {
      skip_to_semi();
      return;
    }
    m.name = dtor ? "~" + name : name;
    m.cls = !qual.empty() ? qual : cls;
    // Constructor: name equals the class, no return type.
    if (m.name == m.cls || (qual.empty() && !cls.empty() && name == cls)) {
      ret.clear();
    }
    m.ret = ret;
    // Parameters.
    parse_params(m);
    // Trailing: cv/ref qualifiers, noexcept, override/final, annotations,
    // trailing return, = default/delete/0, ctor init list, body.
    while (i < t.size()) {
      const std::string& s = txt(i);
      if (s == ";") {
        ++i;
        break;
      }
      if (s == "{") {
        m.body_begin = static_cast<int>(i);
        skip_balanced("{", "}");
        m.body_end = static_cast<int>(i) - 1;
        break;
      }
      if (s == "=") {  // = default / = delete / = 0
        skip_to_semi();
        break;
      }
      if (s == ":") {  // constructor initializer list
        ++i;
        while (i < t.size() && txt(i) != "{") {
          if (txt(i) == "(") {
            skip_balanced("(", ")");
            continue;
          }
          if (txt(i) == "<") {
            skip_balanced("<", ">");
            continue;
          }
          if (txt(i) == "}") break;
          ++i;
        }
        continue;
      }
      if (s == "->") {  // trailing return type
        ++i;
        while (i < t.size() && txt(i) != "{" && txt(i) != ";") {
          if (txt(i) == "<") {
            skip_balanced("<", ">");
            continue;
          }
          if (is_ident(i)) m.ret = txt(i);
          ++i;
        }
        continue;
      }
      if (s == "noexcept" && txt(i + 1) == "(") {
        ++i;
        skip_balanced("(", ")");
        continue;
      }
      if (skip_attribute()) continue;
      if (skip_macro(&acquires)) continue;
      if (s == "(") {  // e.g. old-style throw() — just balance
        skip_balanced("(", ")");
        continue;
      }
      ++i;  // const, &, &&, override, final, noexcept
    }
    m.acquire_exprs = acquires;
    const int idx = static_cast<int>(model.methods.size());
    model.methods.push_back(std::move(m));
    Method& rec = model.methods.back();
    model.by_name[rec.name].push_back(idx);
    model.by_cls[rec.cls][rec.name].push_back(idx);
    // Register function-local structs so `Shared shared; ... shared.mu`
    // resolves (src/runtime/workload.cpp pattern).
    if (rec.body_begin >= 0) {
      scan_local_structs(static_cast<std::size_t>(rec.body_begin),
                         static_cast<std::size_t>(rec.body_end));
    }
  }

  /// Cursor at '(' of the parameter list; fills m.params, leaves cursor
  /// after the closing ')'.
  void parse_params(Method& m) {
    ++i;  // '('
    int depth = 1;
    std::vector<std::string> idents;
    auto flush = [&]() {
      if (idents.size() >= 2) {
        const std::string name = idents.back();
        std::string type = idents[idents.size() - 2];
        if (type == "const" && idents.size() >= 3) {
          type = idents[idents.size() - 3];
        }
        m.params.emplace_back(name, type);
      }
      idents.clear();
    };
    while (i < t.size() && depth > 0) {
      const std::string& s = txt(i);
      if (s == "(") ++depth;
      if (s == ")") {
        if (--depth == 0) {
          flush();
          ++i;
          return;
        }
      }
      if (s == "<") {
        if (!idents.empty()) {
          idents.back() = template_adjusted(idents.back());
        } else {
          skip_balanced("<", ">");
        }
        continue;
      }
      if (s == "," && depth == 1) {
        flush();
        ++i;
        continue;
      }
      if (s == "=" && depth == 1) {  // default argument: drop to ',' / ')'
        while (i < t.size() && !(depth == 1 && (txt(i) == "," || txt(i) == ")"))) {
          if (txt(i) == "(") ++depth;
          if (txt(i) == ")") --depth;
          if (txt(i) == "<") {
            skip_balanced("<", ">");
            continue;
          }
          ++i;
        }
        continue;
      }
      if (skip_attribute()) continue;
      if (is_ident(i) && is_macro_name(s) && txt(i + 1) == "(") {
        skip_macro(nullptr);
        continue;
      }
      if (is_ident(i)) idents.push_back(s);
      ++i;
    }
  }

  void scan_local_structs(std::size_t begin, std::size_t end) {
    const std::size_t save = i;
    for (std::size_t j = begin; j < end && j < t.size(); ++j) {
      if ((t[j].text == "struct" || t[j].text == "class") &&
          t[j].kind == Tok::kIdent && j + 1 < t.size() &&
          t[j + 1].kind == Tok::kIdent) {
        i = j + 1;
        parse_class();
        j = i > j ? i - 1 : j;
      }
    }
    i = save;
  }

  void parse_top() {
    while (i < t.size()) {
      const std::string& s = txt(i);
      if (s == "namespace") {
        ++i;
        while (i < t.size() && txt(i) != "{" && txt(i) != ";" &&
               txt(i) != "=") {
          ++i;
        }
        if (txt(i) == "{") {
          ++i;  // parse the namespace body inline — scopes don't matter here
          continue;
        }
        skip_to_semi();
        continue;
      }
      if (s == "}") {
        ++i;  // namespace close
        continue;
      }
      if (s == "class" || s == "struct") {
        // `struct X* p;`/`struct X f();` degrade gracefully in parse_class.
        ++i;
        parse_class();
        continue;
      }
      if (s == "enum") {
        while (i < t.size() && txt(i) != "{" && txt(i) != ";") ++i;
        if (txt(i) == "{") skip_balanced("{", "}");
        skip_to_semi();
        continue;
      }
      if (s == "using") {
        ++i;
        parse_using();
        continue;
      }
      if (s == "typedef") {
        ++i;
        parse_typedef();
        continue;
      }
      if (s == "template") {
        ++i;
        if (txt(i) == "<") skip_balanced("<", ">");
        continue;
      }
      if (s == "extern") {
        ++i;
        if (i < t.size() && t[i].kind == Tok::kString) {
          ++i;
          if (txt(i) == "{") ++i;  // extern "C" block: parse contents inline
        }
        continue;
      }
      if (s == "static_assert") {
        skip_to_semi();
        continue;
      }
      if (s == ";") {
        ++i;
        continue;
      }
      if (is_ident(i) || s == "~" || s == "[" || s == "::") {
        parse_decl("");
        continue;
      }
      ++i;
    }
  }
};

// ---------------------------------------------------------------------------
// Phase 2: per-function body analysis.

const std::set<std::string>& blocking_calls() {
  static const std::set<std::string> s = {
      "fsync",     "fdatasync", "sendto",   "recvfrom", "poll",
      "select",    "sleep_for", "sleep_until", "usleep", "nanosleep",
  };
  return s;
}

const std::set<std::string>& clock_types() {
  static const std::set<std::string> s = {
      "system_clock", "steady_clock", "high_resolution_clock", "file_clock",
      "utc_clock", "tai_clock", "gps_clock"};
  return s;
}

const std::set<std::string>& time_calls() {
  static const std::set<std::string> s = {
      "time", "clock", "gettimeofday", "clock_gettime", "localtime",
      "gmtime", "mktime", "ftime", "timespec_get"};
  return s;
}

const std::set<std::string>& random_types() {
  static const std::set<std::string> s = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "knuth_b", "ranlux24", "ranlux48"};
  return s;
}

const std::set<std::string>& random_calls() {
  static const std::set<std::string> s = {"rand", "srand", "drand48",
                                          "lrand48", "mrand48", "random",
                                          "random_shuffle"};
  return s;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> s = {"unordered_map", "unordered_set",
                                          "unordered_multimap",
                                          "unordered_multiset"};
  return s;
}

/// `t[k](` names a function in a declaration (`double time() const`): a
/// non-keyword identifier directly precedes it.
bool declares(const std::vector<Token>& t, std::size_t k) {
  return k > 0 && t[k - 1].kind == Tok::kIdent &&
         cpp_keywords().count(t[k - 1].text) == 0 && t[k - 1].text != "operator";
}

/// `t[k](` is a call of a free function: not a member call (`x.time(`) and
/// not a declaration.
bool free_call(const std::vector<Token>& t, std::size_t k) {
  if (k + 1 >= t.size() || t[k + 1].text != "(" || declares(t, k)) return false;
  return k == 0 || (t[k - 1].text != "." && t[k - 1].text != "->");
}

struct CallRec {
  int method = -1;          ///< caller index
  std::string callee;
  std::string recv_type;    ///< "" free/qualified; "?" receiver unresolved
  std::string qualifier;    ///< `Cls::callee(...)` qualifier
  std::vector<std::string> held;  ///< resolved mutex ids held at the call
  bool any_held = false;    ///< true when anything (even unresolved) is held
  int file = -1;
  int line = 0;
};

struct DiscardCand {
  int method = -1;
  std::string callee;
  std::string recv_type;  ///< "" free; "?" unresolved receiver
  std::string qualifier;
  int file = -1;
  int line = 0;
};

struct AcquireSite {
  int method = -1;
  std::string mutex;      ///< resolved id, or "?::expr"
  std::vector<std::string> held;  ///< resolved ids held before this
  int file = -1;
  int line = 0;
};

struct BodyFacts {
  std::vector<CallRec> calls;
  std::vector<DiscardCand> discards;
  std::vector<AcquireSite> acquires;
  std::vector<Finding> findings;  ///< direct findings (recursive, blocking…)
  std::map<int, std::string> direct_block;  ///< method -> blocking symbol
};

struct BodyWalker {
  const Model& model;
  const Method& m;
  int mi;
  const std::vector<Token>& t;
  const std::string& path;
  BodyFacts& out;

  std::map<std::string, std::string> locals = {};  ///< var -> type tail
  // Lexical blocks: per depth, the mutexes whose guards die with the block.
  std::vector<std::vector<std::string>> blocks = {};
  std::vector<std::string> held = {};      ///< resolved ids, acquisition order
  std::vector<std::string> held_all = {};  ///< including unresolved ids

  const std::string& txt(std::size_t k) const {
    static const std::string empty;
    return k < t.size() ? t[k].text : empty;
  }
  bool is_ident(std::size_t k) const {
    return k < t.size() && t[k].kind == Tok::kIdent;
  }

  std::string resolve_var(const std::string& name) const {
    const auto lit = locals.find(name);
    if (lit != locals.end()) return model.resolve_type(m.file, lit->second);
    if (!m.cls.empty()) {
      const std::string mt = model.member_type(m.cls, name);
      if (!mt.empty()) return model.resolve_type(m.file, mt);
    }
    const auto git = model.globals.find(name);
    if (git != model.globals.end()) {
      return model.resolve_type(m.file, git->second);
    }
    return "";
  }

  /// Resolves `a.b->c` (idents only) to the type of the full chain.
  std::string resolve_chain(const std::vector<std::string>& idents) const {
    if (idents.empty()) return "";
    std::string ty =
        idents[0] == "this" && !m.cls.empty() ? m.cls : resolve_var(idents[0]);
    for (std::size_t k = 1; k < idents.size() && !ty.empty(); ++k) {
      const std::string mt = model.member_type(ty, idents[k]);
      ty = mt.empty() ? "" : model.resolve_type(m.file, mt);
    }
    return ty;
  }

  /// Mutex identity for a guard expression `[*]a[.b]...m`.
  std::string mutex_id(const std::vector<std::string>& idents) const {
    if (idents.empty()) return "?::<empty>";
    std::string joined;
    for (const std::string& s : idents) {
      if (!joined.empty()) joined += ".";
      joined += s;
    }
    if (idents.size() == 1) {
      const std::string& v = idents[0];
      if (!m.cls.empty()) {
        const std::string owner = model.mutex_owner(m.cls, v);
        if (!owner.empty()) return owner + "::" + v;
      }
      if (model.global_mutexes.count(v) != 0) return "::" + v;
      return "?::" + joined;
    }
    std::vector<std::string> recv(idents.begin(), idents.end() - 1);
    const std::string ty = resolve_chain(recv);
    if (!ty.empty()) {
      const std::string owner = model.mutex_owner(ty, idents.back());
      if (!owner.empty()) return owner + "::" + idents.back();
    }
    return "?::" + joined;
  }

  void acquire(const std::string& id, int line) {
    const bool resolved = id.rfind("?::", 0) != 0;
    if (resolved &&
        std::find(held.begin(), held.end(), id) != held.end()) {
      out.findings.push_back(
          {path, line, "recursive-lock",
           "acquiring '" + id + "' while a lock on '" + id +
               "' is already held in " + (m.cls.empty() ? "" : m.cls + "::") +
               m.name + " — common::Mutex does not support recursion (even "
               "across distinct instances this needs an explicit order)"});
    }
    if (resolved) {
      for (const std::string& h : held) {
        out.acquires.push_back(AcquireSite{mi, id, {h}, m.file, line});
      }
      if (held.empty()) {
        out.acquires.push_back(AcquireSite{mi, id, {}, m.file, line});
      }
      held.push_back(id);
    }
    held_all.push_back(id);
    blocks.back().push_back(id);
  }

  /// Reads an identifier chain `a(::b)*` at k; returns one-past index.
  std::size_t read_qualified(std::size_t k, std::vector<std::string>* parts,
                             std::string* last) const {
    while (k < t.size()) {
      if (!is_ident(k)) break;
      if (parts != nullptr) parts->push_back(txt(k));
      if (last != nullptr) *last = txt(k);
      ++k;
      if (txt(k) == "::") {
        ++k;
        continue;
      }
      break;
    }
    return k;
  }

  /// Skips a balanced group starting at k; returns one-past index.
  std::size_t balanced_end(std::size_t k, const std::string& open,
                           const std::string& close) const {
    int depth = 0;
    for (; k < t.size(); ++k) {
      if (txt(k) == open) ++depth;
      if (txt(k) == close && --depth == 0) return k + 1;
    }
    return k;
  }

  /// Receiver chain for a member call at `callee_idx` (prev token is ./->).
  /// Fills idents front-to-back; returns false when the receiver involves a
  /// call result / indexing (unresolvable by name).
  bool receiver_chain(std::size_t callee_idx,
                      std::vector<std::string>* idents) const {
    std::vector<std::string> rev;
    std::size_t k = callee_idx;  // points at callee ident
    while (true) {
      if (k < 2) return false;
      const std::string& sep = txt(k - 1);
      if (sep != "." && sep != "->") break;
      std::size_t v = k - 2;
      if (!is_ident(v)) return false;  // `)` or `]` — computed receiver
      rev.push_back(txt(v));
      k = v;
    }
    if (rev.empty()) return false;
    // The chain root must not itself be a member access continuation.
    idents->assign(rev.rbegin(), rev.rend());
    return true;
  }

  // --- statement-position discard candidate -------------------------------
  // At `begin` (an identifier at statement start), decide whether the whole
  // statement is a bare call chain; record the outermost top-level call.
  void try_discard(std::size_t begin) {
    std::size_t k = begin;
    int depth = 0;
    std::size_t last_call = 0;  // index of last top-level callee ident
    bool any = false;
    while (k < t.size()) {
      const std::string& s = txt(k);
      if (depth == 0 && s == ";") break;
      if (s == "(" || s == "[") {
        ++depth;
        ++k;
        continue;
      }
      if (s == ")" || s == "]") {
        --depth;
        ++k;
        continue;
      }
      if (depth > 0) {
        ++k;
        continue;
      }
      if (is_ident(k)) {
        if (cpp_keywords().count(s) != 0) return;
        if (txt(k + 1) == "(") {
          last_call = k;
          any = true;
        }
        ++k;
        continue;
      }
      if (s == "::" || s == "." || s == "->") {
        ++k;
        continue;
      }
      return;  // any other top-level token: operators, '=', '<', literals…
    }
    if (!any || k >= t.size()) return;
    // The statement must *end* with the outermost call: `...foo(...)` ';'.
    const std::size_t close = balanced_end(last_call + 1, "(", ")");
    if (txt(close) != ";") return;
    DiscardCand c;
    c.method = mi;
    c.callee = txt(last_call);
    c.file = m.file;
    c.line = t[last_call].line;
    const std::string& prev = txt(last_call - 1);
    if (prev == "." || prev == "->") {
      std::vector<std::string> chain;
      if (receiver_chain(last_call, &chain)) {
        const std::string ty = resolve_chain(chain);
        c.recv_type = ty.empty() ? "?" : ty;
      } else {
        c.recv_type = "?";
      }
    } else if (prev == "::" && last_call >= 2 && is_ident(last_call - 2)) {
      c.qualifier = txt(last_call - 2);
    }
    out.discards.push_back(std::move(c));
  }

  /// unordered-iter at token k, in deterministic files only.
  void unordered_iter(std::size_t k, const std::string& what,
                      const std::string& ground) {
    if (!(*model.files)[m.file].deterministic) return;
    out.findings.push_back(
        {path, t[k].line, "unordered-iter",
         what + " iterates std::" + ground +
             " — iteration order is unspecified and breaks replayable "
             "schedules; use std::map/std::set"});
  }

  // --- range-for ----------------------------------------------------------
  void handle_range_for(std::size_t for_idx) {
    // for ( decl : range ) — find the ':' at paren depth 1.
    std::size_t k = for_idx + 1;  // '('
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (; k < t.size(); ++k) {
      if (txt(k) == "(") ++depth;
      if (txt(k) == ")" && --depth == 0) {
        close = k;
        break;
      }
      if (txt(k) == ";" && depth == 1) return;  // classic for
      if (txt(k) == ":" && depth == 1 && txt(k + 1) != ":" &&
          txt(k - 1) != ":" && colon == 0) {
        colon = k;
      }
    }
    if (colon == 0 || close == 0) return;
    // Register the loop variable: explicitly-typed declarations carry their
    // type; `auto` ones get the container's element type below. Structured
    // bindings (a '[' in the declaration) stay unresolved.
    std::string loop_var;
    bool explicit_type = false;
    {
      std::vector<std::string> decl;
      bool binding = false;
      for (std::size_t v = for_idx + 2; v < colon; ++v) {
        if (txt(v) == "[") binding = true;
        if (is_ident(v) && txt(v) != "const" && txt(v) != "auto") {
          decl.push_back(txt(v));
        }
      }
      if (!binding && !decl.empty()) {
        loop_var = decl.back();
        if (decl.size() >= 2) {
          locals[loop_var] = decl[decl.size() - 2];
          explicit_type = true;
        }
      }
    }
    // Range expression: an identifier chain (a.b->c) is typed below; a
    // computed range (call, temporary) counts only when it spells an
    // unordered type itself (`std::unordered_set<int>{...}`).
    std::vector<std::string> range;
    std::string spelled;
    bool computed = false;
    for (std::size_t v = colon + 1; v < close; ++v) {
      if (is_ident(v)) {
        range.push_back(txt(v));
        const std::string g = model.resolve_type(m.file, txt(v));
        if (unordered_types().count(g) != 0) spelled = g;
      } else if (txt(v) != "." && txt(v) != "->" && txt(v) != "::" &&
                 txt(v) != "*") {
        computed = true;
      }
    }
    if (computed) {
      if (!spelled.empty()) unordered_iter(for_idx, "range-for", spelled);
      return;
    }
    if (range.empty()) return;
    // Type of the range: direct member/local lookup, then alias chase.
    std::string raw;
    if (range.size() == 1) {
      const auto lit = locals.find(range[0]);
      if (lit != locals.end()) {
        raw = lit->second;
      } else if (!m.cls.empty()) {
        raw = model.member_type(m.cls, range[0]);
      }
      if (raw.empty()) {
        const auto git = model.globals.find(range[0]);
        if (git != model.globals.end()) raw = git->second;
      }
    } else {
      std::vector<std::string> recv(range.begin(), range.end() - 1);
      const std::string ty = resolve_chain(recv);
      if (!ty.empty()) raw = model.member_type(ty, range.back());
    }
    if (raw.empty()) return;
    int steps = 0;
    const std::string ground = model.resolve_type(m.file, raw, &steps);
    if (ground.size() > 2 && ground.rfind("[]") == ground.size() - 2 &&
        !loop_var.empty() && !explicit_type) {
      locals[loop_var] = ground.substr(0, ground.size() - 2);
    }
    if (unordered_types().count(ground) == 0) return;
    unordered_iter(for_idx,
                   "range-for over '" + range.back() + "'" +
                       (steps > 0 ? " (type '" + raw + "')" : ""),
                   ground);
    // Does the loop body feed an Encoder / fingerprint?
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (txt(body_begin) == "{") {
      body_end = balanced_end(body_begin, "{", "}");
    } else {
      body_end = body_begin;
      int d = 0;
      while (body_end < t.size()) {
        const std::string& s = txt(body_end);
        if (s == "(" || s == "{") ++d;
        if (s == ")" || s == "}") --d;
        if (s == ";" && d == 0) break;
        ++body_end;
      }
    }
    for (std::size_t v = body_begin; v < body_end && v < t.size(); ++v) {
      if (!is_ident(v) || txt(v + 1) != "(") continue;
      const std::string& callee = txt(v);
      bool feeds = callee.find("fingerprint") != std::string::npos ||
                   callee == "encode";
      if (!feeds && (txt(v - 1) == "." || txt(v - 1) == "->")) {
        std::vector<std::string> chain;
        if (receiver_chain(v, &chain)) {
          feeds = resolve_chain(chain) == "Encoder";
        }
      }
      if (feeds) {
        out.findings.push_back(
            {path, t[v].line, "unordered-encode-flow",
             "'" + callee + "' called inside a range-for over std::" + ground +
                 " '" + range.back() +
                 "' — unordered iteration order must never reach wire bytes "
                 "or fingerprints; iterate a sorted view instead"});
        break;
      }
    }
  }

  // --- main walk ----------------------------------------------------------
  void walk() {
    if (m.body_begin < 0) return;
    for (const auto& [pname, ptype] : m.params) locals[pname] = ptype;
    blocks.push_back({});
    bool stmt_start = true;
    std::size_t k = static_cast<std::size_t>(m.body_begin) + 1;
    const std::size_t end = static_cast<std::size_t>(m.body_end);
    while (k < end) {
      const std::string& s = txt(k);
      if (s == "{") {
        blocks.push_back({});
        stmt_start = true;
        ++k;
        continue;
      }
      if (s == "}") {
        for (const std::string& id : blocks.back()) {
          auto drop = [&](std::vector<std::string>& v) {
            const auto it = std::find(v.rbegin(), v.rend(), id);
            if (it != v.rend()) v.erase(std::next(it).base());
          };
          drop(held);
          drop(held_all);
        }
        blocks.pop_back();
        if (blocks.empty()) blocks.push_back({});
        stmt_start = true;
        ++k;
        continue;
      }
      if (s == ";") {
        stmt_start = true;
        ++k;
        continue;
      }
      if (is_ident(k) && cpp_keywords().count(s) != 0) {
        if (s == "for" && txt(k + 1) == "(") handle_range_for(k);
        if ((s == "if" || s == "while" || s == "for" || s == "switch" ||
             s == "catch") &&
            txt(k + 1) == "(") {
          // Walk the condition for calls, then the statement restarts.
          std::size_t close = balanced_end(k + 1, "(", ")");
          scan_expr(k + 1, close);
          k = close;
          stmt_start = true;
          continue;
        }
        if (s == "case") {
          while (k < end && txt(k) != ":") ++k;
        }
        // `return f();` consumes the value — not statement position. Other
        // keywords (else/do/…) restart a statement context.
        stmt_start = !(s == "return" || s == "co_return" || s == "co_yield" ||
                       s == "co_await" || s == "throw" || s == "new" ||
                       s == "delete");
        ++k;
        continue;
      }
      if (stmt_start && is_ident(k)) {
        if (handle_statement(k, end, &k)) continue;
      }
      if (is_ident(k)) {
        handle_ident(k);
        stmt_start = false;
        ++k;
        continue;
      }
      stmt_start = false;
      ++k;
    }
  }

  /// Calls/identifier uses inside an arbitrary sub-range (if/while heads).
  void scan_expr(std::size_t from, std::size_t to) {
    for (std::size_t v = from; v < to && v < t.size(); ++v) {
      if (is_ident(v) && cpp_keywords().count(txt(v)) == 0) handle_ident(v);
    }
  }

  /// A statement starting with an identifier: declaration (incl. MutexLock
  /// guards) or a discard candidate. Returns true when the cursor advanced.
  bool handle_statement(std::size_t k, std::size_t end, std::size_t* out_k) {
    std::vector<std::string> head;
    std::string tail;
    std::size_t p = read_qualified(k, &head, &tail);
    if (txt(p) == "<") {
      // Template args in a declaration — balanced within this statement?
      std::size_t close = balanced_end(p, "<", ">");
      bool sane = close <= end && close > p + 1;
      for (std::size_t v = p; sane && v < close; ++v) {
        if (txt(v) == ";") sane = false;
      }
      if (sane) {
        std::string inner;
        for (std::size_t v = p; v < close; ++v) {
          if (is_ident(v)) inner = txt(v);
        }
        if (!inner.empty() && pointee_wrappers().count(tail) != 0) {
          tail = inner;
        } else if (!inner.empty() && elem_containers().count(tail) != 0) {
          tail = inner + "[]";
        }
        // otherwise tail stays the template name (unordered_map, map, …)
        p = close;
      }
    }
    while (txt(p) == "&" || txt(p) == "*") ++p;
    if (is_ident(p) && cpp_keywords().count(txt(p)) == 0 && !head.empty()) {
      // Declaration: `Type name ...`.
      const std::string var = txt(p);
      const std::string ground = model.resolve_type(m.file, tail);
      if (ground == "MutexLock") {
        // Guard acquisition: `common::MutexLock g(expr);` / `{expr}`.
        std::size_t open = p + 1;
        if (txt(open) == "(" || txt(open) == "{") {
          const bool paren = txt(open) == "(";
          const std::size_t close =
              balanced_end(open, paren ? "(" : "{", paren ? ")" : "}");
          std::vector<std::string> expr;
          bool simple = true;
          for (std::size_t v = open + 1; v + 1 < close; ++v) {
            if (is_ident(v)) {
              expr.push_back(txt(v));
            } else if (txt(v) != "." && txt(v) != "->" && txt(v) != "*" &&
                       txt(v) != "::") {
              simple = false;
            }
          }
          acquire(simple ? mutex_id(expr) : "?::<complex>", t[p].line);
          *out_k = close;
          return true;
        }
      }
      if (tail == "auto") {
        // `auto x = std::make_unique<T>(…)` / plain inferred locals.
        std::string deduced = "?";
        for (std::size_t v = p + 1; v < end && txt(v) != ";"; ++v) {
          if ((txt(v) == "make_unique" || txt(v) == "make_shared") &&
              txt(v + 1) == "<" && is_ident(v + 2)) {
            deduced = txt(v + 2);
            break;
          }
        }
        locals[var] = deduced;
      } else {
        locals[var] = tail;
      }
      *out_k = p;  // initializer still gets scanned for calls
      return true;
    }
    // Not a declaration: maybe a bare call chain dropped on the floor.
    try_discard(k);
    return false;
  }

  /// One identifier in expression context: call detection. (Determinism
  /// alias rules run once per file in det_alias_sweep, which covers bodies.)
  void handle_ident(std::size_t k) {
    const std::string& s = txt(k);
    if (txt(k + 1) != "(") return;
    const std::string& prev = txt(k - 1);
    if (prev == "." || prev == "->") {
      member_call(k);
      return;
    }
    if (declares(t, k)) return;  // `Type name(args)` — not a call
    CallRec c;
    c.method = mi;
    c.callee = s;
    c.file = m.file;
    c.line = t[k].line;
    c.held = held;
    c.any_held = !held_all.empty();
    if (prev == "::" && k >= 2 && is_ident(k - 2)) {
      c.qualifier = txt(k - 2);
    }
    if (blocking_calls().count(s) != 0) {
      out.direct_block.emplace(mi, s);
      if (!held_all.empty()) {
        out.findings.push_back(
            {path, c.line, "blocking-under-lock",
             "blocking call '" + s + "' while holding '" + held_all.back() +
                 "' — I/O and sleeps must not run under a mutex (copy state "
                 "out, drop the lock, then block)"});
      }
    }
    out.calls.push_back(std::move(c));
  }

  void member_call(std::size_t k) {
    const std::string& name = txt(k);
    CallRec c;
    c.method = mi;
    c.callee = name;
    c.file = m.file;
    c.line = t[k].line;
    c.held = held;
    c.any_held = !held_all.empty();
    std::vector<std::string> chain;
    if (receiver_chain(k, &chain)) {
      const std::string ty = resolve_chain(chain);
      c.recv_type = ty.empty() ? "?" : ty;
    } else {
      c.recv_type = "?";
    }
    if (name == "wait" || name == "wait_for" || name == "wait_until") {
      // A condition-variable wait releases only its own lock; entering it
      // with more than one lock held keeps the outer one across the sleep.
      const bool cv_like = c.recv_type == "?" || c.recv_type == "CondVar" ||
                           c.recv_type == "condition_variable" ||
                           c.recv_type == "condition_variable_any";
      if (cv_like && held_all.size() >= 2) {
        out.findings.push_back(
            {path, c.line, "cv-wait-multi-lock",
             "condition wait entered with " +
                 std::to_string(held_all.size()) +
                 " locks held ('" + held_all[held_all.size() - 2] +
                 "' stays locked across the wait) — release outer locks "
                 "before waiting"});
      }
    }
    if ((name == "begin" || name == "cbegin" || name == "rbegin") &&
        unordered_types().count(c.recv_type) != 0) {
      unordered_iter(k, "'" + name + "()' walk over '" + chain.back() + "'",
                     c.recv_type);
    }
    if (blocking_calls().count(name) != 0 && !held_all.empty()) {
      out.direct_block.emplace(mi, name);
      out.findings.push_back(
          {path, c.line, "blocking-under-lock",
           "blocking call '" + name + "' while holding '" + held_all.back() +
               "' — I/O and sleeps must not run under a mutex"});
    }
    out.calls.push_back(std::move(c));
  }

};

/// Ground type of a range-for's range spelled in a directive body, where no
/// scope is known: the last name of the chain as a global, else as a member
/// of some class, provided every class that has it agrees. "" when unknown.
std::string directive_range_type(const Model& model, int fi,
                                 const std::string& name) {
  const auto git = model.globals.find(name);
  if (git != model.globals.end()) return model.resolve_type(fi, git->second);
  std::string ground;
  for (const auto& [cls_name, cls] : model.classes) {
    const auto it = cls.members.find(name);
    if (it == cls.members.end()) continue;
    const std::string g = model.resolve_type(fi, it->second);
    if (!ground.empty() && g != ground) return "";
    ground = g;
  }
  return ground;
}

/// unordered-iter inside #define bodies, which the structural model skips:
/// a `for (decl : range)` in a directive whose range resolves (see above)
/// to an unordered container. [begin, end) is the directive's tokens.
void directive_range_fors(const Model& model, int fi,
                          const std::vector<Token>& t, std::size_t begin,
                          std::size_t end, std::vector<Finding>* out) {
  for (std::size_t k = begin; k + 1 < end; ++k) {
    if (t[k].text != "for" || t[k + 1].text != "(") continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = k + 1; j < end; ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (t[j].text == ";" && depth == 1) break;  // classic for
      if (t[j].text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0 || close == colon + 1) continue;
    const std::string& name = t[close - 1].text;
    if (t[close - 1].kind != Tok::kIdent) continue;
    const std::string ground = directive_range_type(model, fi, name);
    if (unordered_types().count(ground) == 0) continue;
    out->push_back(
        {(*model.files)[fi].path, t[k].line, "unordered-iter",
         "range-for over '" + name + "' in a #define body iterates std::" +
             ground +
             " — iteration order is unspecified and breaks replayable "
             "schedules; use std::map/std::set"});
  }
}

// Token rules over one file's full lex (code and directive bodies, comments
// removed): the hygiene bans everywhere, and in deterministic files the
// clock/time/random bans on the literal spelling or on any name whose
// using/typedef chain grounds in a banned type, and unordered walks inside
// #define bodies.
void token_sweep(const Model& model, int fi, const std::vector<Token>& t,
                 std::vector<Finding>* out) {
  const SourceFile& file = (*model.files)[fi];
  if (file.deterministic) {
    for (std::size_t k = 0; k + 1 < t.size(); ++k) {
      if (t[k].text != "#" || t[k + 1].text != "define") continue;
      // The directive runs to the end of its line, continued past every
      // line that ends in a backslash.
      std::size_t e = k + 1;
      for (int line = t[k].line; e < t.size(); ++e) {
        if (t[e].line == line) continue;
        if (t[e - 1].text != "\\") break;
        line = t[e].line;
      }
      directive_range_fors(model, fi, t, k + 2, e, out);
      k = e - 1;
    }
  }
  // An alias declaration names the alias without using it (`using Ticker =
  // Clock;`); only a literal banned spelling on that line counts.
  std::set<int> alias_decl_lines;
  for (const auto& [name, alias] : model.file_aliases[fi]) {
    alias_decl_lines.insert(alias.line);
  }
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::kIdent) continue;
    const std::string& s = t[k].text;
    auto emit = [&](const std::string& rule, const std::string& message) {
      out->push_back({file.path, t[k].line, rule, message});
    };
    const bool call = free_call(t, k);
    if (s == "assert" && call) {
      emit("bare-assert",
           "bare assert() — use ZDC_ASSERT/ZDC_ASSERT_MSG (always on, prints "
           "node/time context)");
    } else if (s == "cout") {
      emit("std-cout",
           "std::cout in library code — use ZDC_LOG (leveled, thread-safe)");
    }
    if (!file.deterministic) continue;
    int steps = 0;
    const std::string ground = model.resolve_type(fi, s, &steps);
    if (steps > 0 && alias_decl_lines.count(t[k].line) != 0) continue;
    const std::string what =
        steps > 0 ? "'" + s + "' (alias of '" + ground + "')" : "'" + s + "'";
    if (clock_types().count(ground) != 0) {
      emit("wall-clock",
           "wall clock " + what +
               " in deterministic code — simulated time must come from the "
               "event queue / TimePoint plumbing");
    } else if (random_types().count(ground) != 0 ||
               (call && random_calls().count(s) != 0)) {
      emit("raw-random", what + " in deterministic code — all randomness "
                                "must flow from a seeded common::Rng");
    } else if (call && time_calls().count(s) != 0) {
      emit("wall-time", "C time call " + what +
                            " in deterministic code — wall time breaks seed "
                            "replay");
    }
  }
}

// ---------------------------------------------------------------------------
// Phase 3: whole-program resolution.

struct Resolver {
  const Model& model;

  /// Call targets under lock/blocking-propagation rules.
  std::vector<int> targets(const CallRec& c, const Method& caller) const {
    if (!c.recv_type.empty()) {
      if (c.recv_type == "?") return {};  // never fall back by name
      std::vector<int> out =
          model.lookup(c.recv_type, c.callee, /*fan_out_derived=*/true);
      // Wrapper heuristic: a call through a base-typed receiver from class C
      // is assumed not to dynamically re-enter C, nor any class that wraps C
      // (holds a member of type C) — decorators like FaultyEnv::File over
      // WritableFile never wrap themselves. Without this, every delegating
      // call looks like recursion into the wrapper's own locks. Targets of
      // the receiver's exact static type are always kept.
      if (!caller.cls.empty() && c.recv_type != caller.cls) {
        out.erase(
            std::remove_if(
                out.begin(), out.end(),
                [&](int mi2) {
                  const Method& tm = model.methods[mi2];
                  if (tm.cls == c.recv_type) return false;
                  if (tm.cls == caller.cls) return true;
                  const Class* info = model.find_class(tm.cls);
                  if (info == nullptr) return false;
                  for (const auto& [mem, ty] : info->members) {
                    if (model.resolve_type(tm.file, ty) == caller.cls) {
                      return true;
                    }
                  }
                  return false;
                }),
            out.end());
      }
      return out;
    }
    if (!c.qualifier.empty()) {
      return model.lookup(c.qualifier, c.callee, false);
    }
    if (!caller.cls.empty()) {
      std::vector<int> own =
          model.lookup(caller.cls, c.callee, /*fan_out_derived=*/true);
      if (!own.empty()) return own;
    }
    const auto it = model.by_name.find(c.callee);
    if (it != model.by_name.end() && it->second.size() == 1) {
      return it->second;
    }
    return {};
  }
};

std::string method_display(const Method& m) {
  return (m.cls.empty() ? "" : m.cls + "::") + m.name;
}

/// Tarjan SCC over the lock graph; emits one finding per non-trivial SCC.
void find_cycles(const std::vector<LockEdge>& edges,
                 const std::map<std::string, int>& witness_line,
                 const std::map<std::string, std::string>& witness_file,
                 std::vector<Finding>* out) {
  std::map<std::string, std::vector<std::string>> adj;
  std::set<std::string> nodes;
  for (const LockEdge& e : edges) {
    adj[e.from].push_back(e.to);
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  std::map<std::string, int> index, low;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  int counter = 0;
  std::vector<std::vector<std::string>> sccs;
  std::function<void(const std::string&)> strong =
      [&](const std::string& v) {
        index[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack.insert(v);
        for (const std::string& w : adj[v]) {
          if (index.find(w) == index.end()) {
            strong(w);
            low[v] = std::min(low[v], low[w]);
          } else if (on_stack.count(w) != 0) {
            low[v] = std::min(low[v], index[w]);
          }
        }
        if (low[v] == index[v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) break;
          }
          if (scc.size() >= 2) sccs.push_back(std::move(scc));
        }
      };
  for (const std::string& v : nodes) {
    if (index.find(v) == index.end()) strong(v);
  }
  for (std::vector<std::string>& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    std::string cyc;
    for (const std::string& n : scc) {
      if (!cyc.empty()) cyc += " -> ";
      cyc += n;
    }
    cyc += " -> " + scc.front();
    // Anchor the finding at the first witness edge inside the SCC.
    std::string file = "<lock-graph>";
    int line = 0;
    const std::set<std::string> members(scc.begin(), scc.end());
    for (const LockEdge& e : edges) {
      if (members.count(e.from) != 0 && members.count(e.to) != 0) {
        file = e.file;
        line = e.line;
        break;
      }
    }
    (void)witness_line;
    (void)witness_file;
    out->push_back(
        {file, line, "lock-order-cycle",
         "lock-order cycle " + cyc +
             " — these mutexes are acquired in inconsistent orders on "
             "different paths; pick one global order or merge the locks"});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer (public so tests can pin it).

std::vector<Token> lex(const std::string& src, bool full) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto at = [&](std::size_t k) { return k < n ? src[k] : '\0'; };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && (at(i + 1) == '/' || at(i + 1) == '*')) {
      const std::size_t start = i;
      const int at_line = line;
      if (at(i + 1) == '/') {
        while (i < n && src[i] != '\n') ++i;
      } else {
        i += 2;
        while (i < n && !(src[i] == '*' && at(i + 1) == '/')) {
          if (src[i] == '\n') ++line;
          ++i;
        }
        i = std::min(n, i + 2);
      }
      if (full) {
        out.push_back(
            Token{src.substr(start, i - start), at_line, Tok::kComment});
      }
      continue;
    }
    // Preprocessor directives: consumed whole, honoring line continuations
    // (lexed like code when `full`).
    if (c == '#' && !full) {
      while (i < n) {
        if (src[i] == '\\' && at(i + 1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      std::string word = src.substr(i, j - i);
      const bool raw_prefix = (word == "R" || word == "u8R" || word == "LR" ||
                               word == "uR" || word == "UR");
      if (raw_prefix && at(j) == '"') {
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && src[k] != '(') delim += src[k++];
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, k);
        const std::size_t stop =
            end == std::string::npos ? n : end + closer.size();
        const int at_line = line;
        for (std::size_t m = i; m < stop; ++m) {
          if (src[m] == '\n') ++line;
        }
        out.push_back(Token{"", at_line, Tok::kString});
        i = stop;
        continue;
      }
      out.push_back(Token{std::move(word), line, Tok::kIdent});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(at(i + 1))))) {
      const std::size_t start = i;
      ++i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' || src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') &&
                        (std::tolower(at(i - 1)) == 'e' ||
                         std::tolower(at(i - 1)) == 'p')))) {
        ++i;
      }
      out.push_back(Token{src.substr(start, i - start), line, Tok::kNumber});
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int at_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      ++i;
      out.push_back(
          Token{"", at_line, quote == '"' ? Tok::kString : Tok::kChar});
      continue;
    }
    if (c == ':' && at(i + 1) == ':') {
      out.push_back(Token{"::", line, Tok::kPunct});
      i += 2;
      continue;
    }
    if (c == '-' && at(i + 1) == '>') {
      out.push_back(Token{"->", line, Tok::kPunct});
      i += 2;
      continue;
    }
    out.push_back(Token{std::string(1, c), line, Tok::kPunct});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------

std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                             LockGraph* graph) {
  Model model;
  model.files = &files;
  model.toks.resize(files.size());
  model.allows.resize(files.size());
  model.file_aliases.resize(files.size());

  // Phase 0+1: lex, allow tables, structure. Headers first so their aliases
  // and classes are visible when .cpp files are parsed. The full lex feeds
  // the allow markers (its comments) and token_sweep (everything else).
  std::vector<std::vector<Token>> swept(files.size());
  std::vector<int> order;
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    model.toks[fi] = lex(files[fi].content);
    for (Token& tok : lex(files[fi].content, /*full=*/true)) {
      if (tok.kind == Tok::kComment) {
        parse_marker(files[fi].path, tok, &model.allows[fi]);
      } else {
        swept[fi].push_back(std::move(tok));
      }
    }
    order.push_back(fi);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    auto is_h = [&](int f) {
      const std::string& p = files[f].path;
      return p.size() >= 2 && (p.rfind(".h") == p.size() - 2 ||
                               (p.size() >= 4 && p.rfind(".hpp") == p.size() - 4));
    };
    return is_h(a) > is_h(b);
  });
  for (int fi : order) {
    const std::string& p = files[fi].path;
    const bool is_header =
        p.rfind(".h") == p.size() - 2 ||
        (p.size() >= 4 && p.rfind(".hpp") == p.size() - 4);
    StructureParser sp{model, fi, model.toks[fi], is_header};
    sp.parse_top();
  }
  // Derived-class closure for virtual fan-out.
  for (const auto& [name, cls] : model.classes) {
    for (const std::string& b : cls.bases) model.derived[b].insert(name);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [base, ds] : model.derived) {
      const std::vector<std::string> snapshot(ds.begin(), ds.end());
      for (const std::string& d : snapshot) {
        const auto it = model.derived.find(d);
        if (it == model.derived.end()) continue;
        for (const std::string& dd : it->second) {
          changed |= ds.insert(dd).second;
        }
      }
    }
  }

  // Phase 2: walk every body.
  BodyFacts facts;
  for (int mi = 0; mi < static_cast<int>(model.methods.size()); ++mi) {
    const Method& m = model.methods[mi];
    if (m.body_begin < 0) continue;
    BodyWalker w{model, m, mi, model.toks[m.file], files[m.file].path, facts};
    w.walk();
  }
  std::vector<Finding> findings = std::move(facts.findings);
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    token_sweep(model, fi, swept[fi], &findings);
  }

  // Phase 3a: per-method transitive acquires and blocking.
  Resolver res{model};
  const int n_methods = static_cast<int>(model.methods.size());
  std::vector<std::set<std::string>> acq(n_methods);
  std::vector<std::string> blocks_via(n_methods);  // "" = does not block
  for (const AcquireSite& a : facts.acquires) {
    if (a.mutex.rfind("?::", 0) != 0) acq[a.method].insert(a.mutex);
  }
  for (int mi = 0; mi < n_methods; ++mi) {
    const Method& m = model.methods[mi];
    for (const std::string& expr : m.acquire_exprs) {
      if (m.cls.empty()) continue;
      const std::string owner = model.mutex_owner(m.cls, expr);
      if (!owner.empty()) acq[mi].insert(owner + "::" + expr);
    }
    const auto bit = facts.direct_block.find(mi);
    if (bit != facts.direct_block.end()) blocks_via[mi] = bit->second;
  }
  // Fixpoint over resolved calls.
  std::vector<std::vector<int>> call_targets(facts.calls.size());
  for (std::size_t ci = 0; ci < facts.calls.size(); ++ci) {
    call_targets[ci] =
        res.targets(facts.calls[ci], model.methods[facts.calls[ci].method]);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t ci = 0; ci < facts.calls.size(); ++ci) {
      const int caller = facts.calls[ci].method;
      for (int target : call_targets[ci]) {
        for (const std::string& id : acq[target]) {
          changed |= acq[caller].insert(id).second;
        }
        if (blocks_via[caller].empty() && !blocks_via[target].empty()) {
          blocks_via[caller] = method_display(model.methods[target]) + " -> " +
                               blocks_via[target];
          changed = true;
        }
      }
    }
  }

  // Phase 3b: lock edges (direct + through calls), blocking through calls.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line,
                      const std::string& via) {
    if (from == to) return;  // self edges are recursive-lock territory
    edges.emplace(std::make_pair(from, to), LockEdge{from, to, file, line, via});
  };
  for (const AcquireSite& a : facts.acquires) {
    if (a.mutex.rfind("?::", 0) == 0) continue;
    for (const std::string& h : a.held) {
      add_edge(h, a.mutex, files[a.file].path, a.line, "");
    }
  }
  for (std::size_t ci = 0; ci < facts.calls.size(); ++ci) {
    const CallRec& c = facts.calls[ci];
    if (call_targets[ci].empty()) continue;
    std::set<std::string> callee_acquires;
    std::string callee_blocks;
    std::string block_target;
    for (int target : call_targets[ci]) {
      callee_acquires.insert(acq[target].begin(), acq[target].end());
      if (callee_blocks.empty() && !blocks_via[target].empty()) {
        callee_blocks = blocks_via[target];
        block_target = method_display(model.methods[target]);
      }
    }
    for (const std::string& h : c.held) {
      for (const std::string& a : callee_acquires) {
        if (a == h) {
          findings.push_back(
              {files[c.file].path, c.line, "recursive-lock",
               "call to '" + c.callee + "' (re)acquires '" + h +
                   "' which is already held here — common::Mutex does not "
                   "support recursion"});
        } else {
          add_edge(h, a, files[c.file].path, c.line, c.callee);
        }
      }
    }
    if (c.any_held && !callee_blocks.empty()) {
      findings.push_back(
          {files[c.file].path, c.line, "blocking-under-lock",
           "call to '" + block_target + "' blocks (" + callee_blocks +
               ") while a mutex is held — restructure so I/O and sleeps "
               "happen outside the critical section"});
    }
  }
  std::vector<LockEdge> edge_list;
  for (auto& [key, e] : edges) edge_list.push_back(e);
  find_cycles(edge_list, {}, {}, &findings);
  if (graph != nullptr) {
    graph->edges = edge_list;
    std::set<std::string> ids;
    for (const LockEdge& e : edge_list) {
      ids.insert(e.from);
      ids.insert(e.to);
    }
    for (const AcquireSite& a : facts.acquires) {
      if (a.mutex.rfind("?::", 0) != 0) ids.insert(a.mutex);
    }
    graph->mutexes.assign(ids.begin(), ids.end());
  }

  // Phase 3c: discarded must-use results.
  const std::set<std::string> must_use = {"Status", "WalRecoveryInfo"};
  auto ret_of = [&](int mi) {
    return model.resolve_type(model.methods[mi].file, model.methods[mi].ret);
  };
  for (const DiscardCand& c : facts.discards) {
    std::vector<int> cands;
    if (!c.recv_type.empty()) {
      if (c.recv_type == "?") continue;
      cands = model.lookup(c.recv_type, c.callee, /*fan_out_derived=*/true);
    } else if (!c.qualifier.empty()) {
      cands = model.lookup(c.qualifier, c.callee, false);
    } else {
      const Method& caller = model.methods[c.method];
      if (!caller.cls.empty()) {
        cands = model.lookup(caller.cls, c.callee, true);
      }
      if (cands.empty()) {
        const auto it = model.by_name.find(c.callee);
        if (it != model.by_name.end()) {
          // Unique name, or unanimous must-use across all overloads.
          if (it->second.size() == 1) {
            cands = it->second;
          } else {
            bool unanimous = true;
            for (int mi2 : it->second) {
              unanimous &= must_use.count(ret_of(mi2)) != 0;
            }
            if (unanimous) cands = it->second;
          }
        }
      }
    }
    if (cands.empty()) continue;
    bool any = false, all = true;
    std::string ret;
    for (int mi2 : cands) {
      const std::string r = ret_of(mi2);
      const bool mu = must_use.count(r) != 0;
      any |= mu;
      all &= mu;
      if (mu) ret = r;
    }
    if (any && all) {
      findings.push_back(
          {files[c.file].path, c.line, "discarded-status",
           "result of '" + c.callee + "' (" + ret +
               ") dropped in statement position — check it, latch it, or "
               "cast through an explicit sink with a comment"});
    }
  }

  // Suppression filter + marker findings + stable order.
  std::map<std::string, int> file_index;
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    file_index[files[fi].path] = fi;
  }
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    const auto it = file_index.find(f.file);
    if (it != file_index.end() &&
        allowed(model.allows[it->second], f.line, f.rule)) {
      continue;
    }
    out.push_back(f);
  }
  for (const AllowTable& t : model.allows) {
    out.insert(out.end(), t.marker_findings.begin(), t.marker_findings.end());
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<Finding> run(const RunConfig& cfg, LockGraph* graph) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, fs::path>> paths;
  for (const std::string& dir : cfg.analyze_dirs) {
    const fs::path base = fs::path(cfg.root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      const std::string rel =
          entry.path().lexically_relative(cfg.root).generic_string();
      paths.emplace_back(rel, entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  for (const auto& [rel, full] : paths) {
    SourceFile f;
    f.path = rel;
    for (const std::string& det : cfg.det_dirs) {
      if (rel.rfind(det + "/", 0) == 0) {
        f.deterministic = true;
        break;
      }
    }
    std::ifstream in(full, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    f.content = buf.str();
    files.push_back(std::move(f));
  }
  return analyze(files, graph);
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace zdc::analyze
