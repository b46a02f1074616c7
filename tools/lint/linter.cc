#include "linter.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

namespace mdmatch::lint {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `text` contains `word` with identifier boundaries on both
/// sides, starting the search at `from`; fills `*at` with the position.
bool FindWord(const std::string& text, const std::string& word, size_t from,
              size_t* at) {
  for (size_t pos = text.find(word, from); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      *at = pos;
      return true;
    }
  }
  return false;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Per-line allow markers: `// mdmatch-lint: allow(<check>)`. A marker
/// covers its own line and the two below it (so a one-line comment can
/// cover a multi-line statement).
class AllowMap {
 public:
  explicit AllowMap(const std::vector<std::string>& raw_lines) {
    const std::string kMarker = "mdmatch-lint: allow(";
    for (size_t i = 0; i < raw_lines.size(); ++i) {
      size_t pos = raw_lines[i].find(kMarker);
      if (pos == std::string::npos) continue;
      pos += kMarker.size();
      const size_t close = raw_lines[i].find(')', pos);
      if (close == std::string::npos) continue;
      allowed_[i + 1].insert(raw_lines[i].substr(pos, close - pos));
    }
  }

  bool Allows(size_t line, const std::string& check) const {
    for (size_t l = line >= 2 ? line - 2 : 1; l <= line; ++l) {
      auto found = allowed_.find(l);
      if (found != allowed_.end() && found->second.count(check) > 0) {
        return true;
      }
    }
    return false;
  }

 private:
  std::map<size_t, std::set<std::string>> allowed_;  ///< line -> checks
};

/// The layer DAG, in rank order: a file may only include layers at or
/// below its own rank.
constexpr const char* kLayers[] = {"util",    "schema", "sim",
                                   "core",    "datagen", "match",
                                   "candidate", "api",  "stream"};

/// Frozen types: immutable after construction/publication. An entry with
/// an empty path_part applies everywhere; otherwise the declaration must
/// live in a file whose path contains path_part.
struct FrozenType {
  const char* name;
  const char* path_part;
};
constexpr FrozenType kFrozenTypes[] = {
    {"SessionGeneration", ""},  {"IndexSnapshot", ""},
    {"Node", "sorted_index"},   {"Node", "block_index"},
    {"Block", "block_index"},   {"SharedMatchState", ""},
    {"FrozenPairSet", ""},      {"FrozenTrie", ""},
    {"Node", "persistent_trie"},
};

struct Ctx {
  const std::string& path;
  const std::string& code;                  ///< stripped content
  const std::vector<std::string>& lines;    ///< stripped, per line
  const AllowMap& allow;
  std::vector<Finding>* out;

  void Report(size_t line, const std::string& check,
              const std::string& message) const {
    if (allow.Allows(line, check)) return;
    out->push_back({path, line, check, message});
  }
};

// ------------------------------------------------------------ raw-lock

void CheckRawLock(const Ctx& ctx) {
  // The annotated wrappers themselves are the implementation.
  if (EndsWith(ctx.path, "util/thread_annotations.h")) return;
  const char* kCallPatterns[] = {".lock()",   "->lock()",  ".unlock()",
                                 "->unlock()", ".Lock()",  "->Lock()",
                                 ".Unlock()", "->Unlock()"};
  const char* kStdTypes[] = {"std::mutex",
                             "std::timed_mutex",
                             "std::recursive_mutex",
                             "std::shared_mutex",
                             "std::lock_guard",
                             "std::unique_lock",
                             "std::scoped_lock",
                             "std::condition_variable",
                             "std::condition_variable_any"};
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& line = ctx.lines[i];
    for (const char* pattern : kCallPatterns) {
      if (line.find(pattern) != std::string::npos) {
        ctx.Report(i + 1, "raw-lock",
                   std::string("raw ") + pattern +
                       " call: hold locks through util::MutexLock (RAII)");
        break;
      }
    }
    for (const char* type : kStdTypes) {
      size_t at = 0;
      if (FindWord(line, type, 0, &at)) {
        ctx.Report(i + 1, "raw-lock",
                   std::string(type) +
                       " bypasses the annotated wrappers: use util::Mutex"
                       " / util::MutexLock / util::CondVar");
        break;
      }
    }
  }
}

// ----------------------------------------------------------- naked-new

void CheckNakedNew(const Ctx& ctx) {
  if (ctx.path.rfind("src/", 0) != 0) return;  // src/ only
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& line = ctx.lines[i];
    // `#include <new>` names the header, not the operator.
    if (line.find("#include") != std::string::npos) continue;
    size_t at = 0;
    if (FindWord(line, "new", 0, &at)) {
      ctx.Report(i + 1, "naked-new",
                 "naked new: use make_shared/make_unique (private-ctor "
                 "factories carry an allow marker)");
    }
    for (size_t pos = 0; FindWord(line, "delete", pos, &at);
         pos = at + 6) {
      // `= delete;` (deleted functions) is not a deallocation.
      size_t prev = at;
      while (prev > 0 && line[prev - 1] == ' ') --prev;
      if (prev > 0 && line[prev - 1] == '=') continue;
      ctx.Report(i + 1, "naked-new",
                 "naked delete: ownership belongs in smart pointers");
      break;
    }
  }
}

// -------------------------------------------------------- const-escape

void CheckConstEscape(const Ctx& ctx) {
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    const std::string& line = ctx.lines[i];
    if (line.find("const_cast<") != std::string::npos ||
        line.find("const_pointer_cast<") != std::string::npos) {
      ctx.Report(i + 1, "const-escape",
                 "const escape: frozen/snapshot state must stay frozen "
                 "(allow markers cover the sole-owner recycle paths)");
    }
  }
}

// ---------------------------------------------------------- tsa-escape

void CheckTsaEscape(const Ctx& ctx, const std::vector<std::string>& raw) {
  if (EndsWith(ctx.path, "util/thread_annotations.h")) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    size_t at = 0;
    if (!FindWord(ctx.lines[i], "NO_THREAD_SAFETY_ANALYSIS", 0, &at)) {
      continue;
    }
    // Justified when this raw line or either of the two above carries a
    // comment (the justification itself).
    bool justified = false;
    for (size_t l = i >= 2 ? i - 2 : 0; l <= i && l < raw.size(); ++l) {
      if (raw[l].find("//") != std::string::npos ||
          raw[l].find("/*") != std::string::npos) {
        justified = true;
      }
    }
    if (!justified) {
      ctx.Report(i + 1, "tsa-escape",
                 "NO_THREAD_SAFETY_ANALYSIS without a justification "
                 "comment on the same or a preceding line");
    }
  }
}

// ------------------------------------------------------------ layering

void CheckLayering(const Ctx& ctx,
                   const std::vector<std::string>& raw_lines) {
  const int rank = LayerRank(ctx.path);
  if (rank < 0) return;
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    // The directive survives stripping; the quoted path does not, so it
    // is recovered from the raw line.
    if (ctx.lines[i].find("#include") == std::string::npos) continue;
    const std::string& line = raw_lines[i];
    const size_t open = line.find('"');
    if (open == std::string::npos) continue;
    const size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const std::string header = line.substr(open + 1, close - open - 1);
    const size_t slash = header.find('/');
    if (slash == std::string::npos) continue;
    const std::string dir = header.substr(0, slash);
    for (size_t l = 0; l < std::size(kLayers); ++l) {
      if (dir != kLayers[l]) continue;
      if (static_cast<int>(l) > rank) {
        ctx.Report(i + 1, "layering",
                   "layering back-edge: " + ctx.path + " (layer " +
                       kLayers[rank] + ") includes \"" + header +
                       "\" from the higher layer " + dir);
      }
      break;
    }
  }
}

// ----------------------------------------------------- frozen-mutation

/// One top-level declaration inside a class body (method bodies and
/// nested braces collapsed away).
struct MemberDecl {
  std::string text;
  size_t line = 0;
};

/// The body of `struct/class <name> { ... }` as depth-1 declarations.
/// Returns false when the file has no such definition (forward
/// declarations don't count).
bool CollectMembers(const std::string& code, const std::string& name,
                    std::vector<MemberDecl>* members) {
  for (size_t pos = 0;;) {
    size_t at = 0;
    size_t s = std::string::npos, c = std::string::npos;
    if (FindWord(code, "struct", pos, &at)) s = at;
    if (FindWord(code, "class", pos, &at)) c = at;
    size_t key = std::min(s, c);
    if (key == std::string::npos) return false;
    pos = key + 1;
    // The declared name must follow the keyword.
    size_t p = key + (key == s ? 6 : 5);
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p]))) {
      ++p;
    }
    if (code.compare(p, name.size(), name) != 0 ||
        (p + name.size() < code.size() &&
         IsIdentChar(code[p + name.size()]))) {
      continue;
    }
    // Skip to the body (past any base clause); `;` first = forward decl.
    size_t q = p + name.size();
    while (q < code.size() && code[q] != '{' && code[q] != ';') ++q;
    if (q >= code.size() || code[q] == ';') continue;

    // Walk the body, collapsing nested braces (method bodies, nested
    // types, brace initializers) into `;` so every depth-1 declaration
    // ends with a semicolon.
    size_t line = 1 + static_cast<size_t>(
                          std::count(code.begin(), code.begin() + q, '\n'));
    MemberDecl current{"", line};
    int depth = 1;
    for (size_t k = q + 1; k < code.size() && depth > 0; ++k) {
      const char ch = code[k];
      if (ch == '\n') ++line;
      if (ch == '{') {
        ++depth;
        if (depth == 2) {
          // An inline body (or brace initializer) ends the declaration:
          // no depth-1 `;` follows an inline method.
          members->push_back(current);
          current = MemberDecl{"", line};
        }
        continue;
      }
      if (ch == '}') {
        --depth;
        continue;
      }
      if (depth != 1) continue;
      if (ch == ';') {
        members->push_back(current);
        current = MemberDecl{"", line};
        continue;
      }
      if (current.text.empty() &&
          std::isspace(static_cast<unsigned char>(ch))) {
        current.line = line;  // anchor the decl at its first token
        continue;
      }
      current.text += ch == '\n' ? ' ' : ch;
    }
    if (!current.text.empty()) members->push_back(current);
    return true;
  }
}

void CheckFrozenMutation(const Ctx& ctx) {
  for (const FrozenType& frozen : kFrozenTypes) {
    if (frozen.path_part[0] != '\0' &&
        ctx.path.find(frozen.path_part) == std::string::npos) {
      continue;
    }
    std::vector<MemberDecl> members;
    if (!CollectMembers(ctx.code, frozen.name, &members)) continue;
    for (MemberDecl& m : members) {
      // Drop access-specifier prefixes glued onto the declaration.
      for (const char* spec : {"public:", "private:", "protected:"}) {
        size_t at = m.text.find(spec);
        while (at != std::string::npos) {
          m.text.erase(0, at + std::string(spec).size());
          at = m.text.find(spec);
        }
      }
      size_t at = 0;
      if (FindWord(m.text, "mutable", 0, &at)) {
        ctx.Report(m.line, "frozen-mutation",
                   frozen.name + std::string(" is frozen: no mutable "
                                             "members"));
        continue;
      }
      const size_t paren = m.text.find('(');
      if (paren == std::string::npos) continue;  // a field
      // Non-members and special members are fine: statics don't mutate
      // an instance; ctors/dtor/assignment run before/after the frozen
      // window; friends/usings aren't members.
      if (FindWord(m.text, "static", 0, &at) ||
          FindWord(m.text, "friend", 0, &at) ||
          FindWord(m.text, "using", 0, &at) ||
          FindWord(m.text, "typedef", 0, &at) ||
          FindWord(m.text, "operator", 0, &at) ||
          m.text.find('~') != std::string::npos) {
        continue;
      }
      // Constructor: the identifier before '(' is the type's own name.
      size_t name_end = paren;
      while (name_end > 0 &&
             std::isspace(static_cast<unsigned char>(m.text[name_end - 1]))) {
        --name_end;
      }
      size_t name_begin = name_end;
      while (name_begin > 0 && IsIdentChar(m.text[name_begin - 1])) {
        --name_begin;
      }
      if (m.text.substr(name_begin, name_end - name_begin) == frozen.name) {
        continue;
      }
      // A const member function has `const` after its parameter list.
      const size_t close = m.text.rfind(')');
      if (close != std::string::npos &&
          FindWord(m.text, "const", close, &at)) {
        continue;
      }
      ctx.Report(m.line, "frozen-mutation",
                 frozen.name +
                     std::string(" is frozen: no non-const member "
                                 "functions (found \"") +
                     m.text.substr(0, std::min<size_t>(60, m.text.size())) +
                     "\")");
    }
  }
}

// ------------------------------------------------------ hot-loop-alloc

/// Container spellings whose by-value appearance inside a loop body means
/// a fresh heap allocation every iteration.
constexpr const char* kHeapContainers[] = {
    "std::vector", "std::string",        "std::deque",
    "std::map",    "std::unordered_map", "std::set",
    "std::unordered_set", "std::list"};

/// Per stripped line: is any enclosing brace frame a for/while/do body?
/// Tracks a keyword->body handoff (parens of the loop head collapse to
/// zero before the `{`; a `;` first means a single-statement loop or a
/// do-while tail, neither of which can hold a declaration).
std::vector<bool> LoopBodyLines(const std::string& code, size_t num_lines) {
  std::vector<bool> in_loop(num_lines + 1, false);
  std::vector<bool> frames;  // brace stack: true = loop body
  size_t loop_frames = 0;
  bool pending = false;
  int pending_parens = 0;
  size_t line = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (loop_frames > 0 && line < num_lines) in_loop[line] = true;
    if (c == '\n') {
      ++line;
      continue;
    }
    if (IsIdentChar(c)) {
      size_t j = i;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (i == 0 || !IsIdentChar(code[i - 1])) {
        const size_t len = j - i;
        if ((len == 3 && code.compare(i, 3, "for") == 0) ||
            (len == 5 && code.compare(i, 5, "while") == 0) ||
            (len == 2 && code.compare(i, 2, "do") == 0)) {
          pending = true;
          pending_parens = 0;
        }
      }
      i = j - 1;
      continue;
    }
    if (pending) {
      if (c == '(') {
        ++pending_parens;
      } else if (c == ')') {
        --pending_parens;
      } else if (c == ';' && pending_parens == 0) {
        pending = false;
      }
    }
    if (c == '{') {
      const bool is_loop_body = pending && pending_parens == 0;
      frames.push_back(is_loop_body);
      if (is_loop_body) {
        ++loop_frames;
        pending = false;
      }
    } else if (c == '}') {
      if (!frames.empty()) {
        if (frames.back()) --loop_frames;
        frames.pop_back();
      }
    }
  }
  return in_loop;
}

void CheckHotLoopAlloc(const Ctx& ctx) {
  // Scope: the per-pair evaluation layers, where a loop iteration is a
  // candidate pair (or an atom over one) and a malloc per iteration is a
  // measured throughput bug. Everything else allocates at will.
  if (ctx.path.rfind("src/match/", 0) != 0 &&
      ctx.path.rfind("src/sim/", 0) != 0) {
    return;
  }
  const std::vector<bool> in_loop =
      LoopBodyLines(ctx.code, ctx.lines.size());
  for (size_t i = 0; i < ctx.lines.size(); ++i) {
    if (!in_loop[i]) continue;
    const std::string& line = ctx.lines[i];
    for (const char* container : kHeapContainers) {
      bool flagged = false;
      size_t at = 0;
      for (size_t from = 0; !flagged && FindWord(line, container, from, &at);
           from = at + 1) {
        // Skip past a template argument list to the declarator position.
        size_t end = at + std::strlen(container);
        if (end < line.size() && line[end] == '<') {
          int depth = 1;
          ++end;
          while (end < line.size() && depth > 0) {
            if (line[end] == '<') ++depth;
            if (line[end] == '>') --depth;
            ++end;
          }
        }
        while (end < line.size() && line[end] == ' ') ++end;
        // References, pointers, nested names (iterators, statics) and
        // template-argument / parameter positions don't allocate here.
        if (end < line.size() &&
            (line[end] == '&' || line[end] == '*' || line[end] == ':' ||
             line[end] == '>' || line[end] == ',' || line[end] == ')')) {
          continue;
        }
        // A function-local static allocates once, not per iteration.
        size_t static_at = 0;
        if (FindWord(line, "static", 0, &static_at) && static_at < at) {
          continue;
        }
        ctx.Report(i + 1, "hot-loop-alloc",
                   std::string(container) +
                       " constructed inside a hot loop: hoist it out of "
                       "the loop");
        flagged = true;
      }
      if (flagged) break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- API

std::string StripCommentsAndStrings(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_close;  // )delim" of the active raw string
  for (size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(content[i - 1]))) {
          const size_t open = content.find('(', i + 2);
          if (open == std::string::npos) {
            out += c;
            break;
          }
          raw_close.assign(1, ')');
          raw_close.append(content, i + 2, open - i - 2);
          raw_close.push_back('"');
          state = State::kRawString;
          for (size_t k = i; k <= open; ++k) {
            out += content[k] == '\n' ? '\n' : ' ';
          }
          i = open;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_close.size(), raw_close) == 0) {
          for (size_t k = 0; k < raw_close.size(); ++k) out += ' ';
          i += raw_close.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

int LayerRank(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return -1;
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return -1;
  const std::string layer = path.substr(4, slash - 4);
  for (size_t l = 0; l < std::size(kLayers); ++l) {
    if (layer == kLayers[l]) return static_cast<int>(l);
  }
  return -1;
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content) {
  std::vector<Finding> findings;
  const std::string code = StripCommentsAndStrings(content);
  const std::vector<std::string> raw_lines = SplitLines(content);
  const std::vector<std::string> lines = SplitLines(code);
  const AllowMap allow(raw_lines);
  const Ctx ctx{path, code, lines, allow, &findings};
  CheckRawLock(ctx);
  CheckNakedNew(ctx);
  CheckConstEscape(ctx);
  CheckTsaEscape(ctx, raw_lines);
  CheckLayering(ctx, raw_lines);
  CheckFrozenMutation(ctx);
  CheckHotLoopAlloc(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.check < b.check;
            });
  return findings;
}

}  // namespace mdmatch::lint
