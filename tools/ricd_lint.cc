// ricd_lint v2 — dependency-free source linter for the RICD project rules,
// run as a ctest (label `lint`) over src/ tests/ bench/ tools/.
//
//   ricd_lint --root=<repo root> [--allowlist=<file>] [--dirs=src,tests,...]
//             [--rules=<csv>] [--order-inventory=<json path>]
//             [--expect-violations]
//   ricd_lint --selftest=<fixtures root>
//
// v2 replaces the v1 line-regex core with a small lexer: each file becomes a
// token stream (identifiers, numbers, string/char literals collapsed to
// empty literals, punctuation with `::`/`->` fused), a per-line trailing
// `//`-comment map (for the `// order:` and `// unguarded:` tag grammar),
// and the list of quoted includes. Rules match token patterns and
// paren-depth-segmented statements instead of single lines, so multi-line
// calls and declarations are in scope and string/comment contents never
// produce false positives.
//
// Rules (ids shown in output; the allowlist keys on them):
//   no-rand                    rand()/std::rand/srand — use common/random.h,
//                              libc rand is seed-unstable across platforms
//   no-raw-thread              std::thread/std::jthread construction or
//                              std::async/pthread_create outside
//                              common/thread_pool.* — algorithms go through
//                              ThreadPool/WorkerEngine
//   no-stdio-in-src            printf/fprintf/puts/std::cout/std::cerr in
//                              src/ libraries — use RICD_LOG (snprintf-style
//                              buffer formatting is allowed)
//   no-using-namespace-in-header  `using namespace` in any header
//   include-guard              header guards must be RICD_<PATH>_<FILE>_H_
//                              (src/ prefix stripped)
//   unchecked-io-return        mmap/munmap/fread/fwrite/pread/pwrite or a
//                              socket call (accept/send/recv/listen/bind/
//                              close) called as a whole statement — the
//                              return value is the only error signal these
//                              APIs have (MAP_FAILED, short transfers)
//   metric-name-literal        GetCounter("...")/GetGauge("...")/
//                              GetHistogram("...") with an inline string in
//                              library code — route names through
//                              src/obs/metric_names.h
//   atomic-order-justify       every memory_order_relaxed / memory_order
//                              _consume operand and every standalone
//                              atomic_thread_fence/atomic_signal_fence in
//                              library code must carry a same-line
//                              `// order: <reason>` tag; tagged sites are
//                              emitted to --order-inventory as JSON
//   guarded-field              a class owning a Mutex (or std::mutex) must
//                              RICD_GUARDED_BY-annotate every non-atomic,
//                              non-const mutable `name_` member or carry an
//                              adjacent `// unguarded: <reason>` /
//                              `// guarded by` comment
//   bare-lock                  no naked .lock()/.unlock()/.try_lock()
//                              anywhere outside the Mutex/MutexLock shim in
//                              src/common/thread_annotations.h — locking
//                              goes through the RAII wrapper
//   unbounded-click-append     Append/AppendTable of click rows into member
//                              state (a `name_` receiver) in library code
//                              outside src/window and src/table — standing
//                              click state retains through window::ClickWindow
//                              (which evicts) or carries a same-line
//                              `// bounded: <reason>` tag naming what clears
//                              it; anything else accumulates forever
//   include-cycle              cycles in the quoted-include graph of the
//                              scanned files (each cycle reported once)
//   stale-allowlist            an allowlist entry whose rule is enabled but
//                              that suppressed nothing this run — prune it
//
// The allowlist file holds `path:rule` lines (path relative to the root,
// `*` as the rule wildcard); `#` starts a comment. --rules=<csv> restricts
// which rules fire (default: all). --selftest runs every rule against its
// planted fixtures under <fixtures root>/<rule>/{pass,fail} and is how the
// tier-1 `ricd_lint_selftest` ctest keeps the rules honest without clang.
// Exit status: 0 when clean, 1 on violations — inverted by
// --expect-violations, which the planted-fixture ctests use to prove the
// rules actually fire.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;  // literal text for ident/punct; "" for string/char
  size_t line;
};

struct Include {
  std::string path;  // quoted include target, verbatim
  size_t line;
};

struct SourceFile {
  std::string rel_path;  // '/'-separated, relative to root
  std::vector<std::string> raw;
  std::vector<Token> tokens;
  /// line number -> text of the `//` comment on that line (trimmed).
  std::map<size_t, std::string> comments;
  std::vector<Include> includes;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Lexes the whole file contents. Comments and preprocessor directives do
/// not produce tokens: `//` comments land in the per-line comment map, and
/// `#include "..."` targets are collected separately. String and character
/// literals become single empty-literal tokens so rule patterns can anchor
/// on "a string literal appears here" without seeing its contents. Raw
/// string literals (R"...") and backslash line continuations are handled.
void Lex(const std::string& content, SourceFile* file) {
  size_t i = 0;
  size_t line = 1;
  bool line_has_token_or_code = false;
  const size_t n = content.size();
  auto peek = [&](size_t k) { return i + k < n ? content[i + k] : '\0'; };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_has_token_or_code = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: swallow to end of line (honoring backslash
    // continuations), collecting quoted include targets.
    if (c == '#' && !line_has_token_or_code) {
      std::string directive;
      while (i < n) {
        if (content[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (content[i] == '\n') break;
        directive.push_back(content[i]);
        ++i;
      }
      const size_t inc = directive.find("include");
      if (inc != std::string::npos) {
        const size_t open = directive.find('"', inc);
        if (open != std::string::npos) {
          const size_t close = directive.find('"', open + 1);
          if (close != std::string::npos) {
            file->includes.push_back(
                {directive.substr(open + 1, close - open - 1), line});
          }
        }
      }
      continue;  // the '\n' is handled at loop top
    }
    if (c == '/' && peek(1) == '/') {
      size_t j = i + 2;
      while (j < n && content[j] != '\n') ++j;
      std::string text = Trim(content.substr(i + 2, j - (i + 2)));
      // Doc comments are `///`; strip the extra slashes so tag grammars
      // ("order:", "unguarded:") see the same text either way.
      while (!text.empty() && text[0] == '/') text.erase(text.begin());
      auto& slot = file->comments[line];
      slot = slot.empty() ? Trim(text) : slot + " " + Trim(text);
      i = j;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(content[i] == '*' && peek(1) == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i < n ? i + 2 : n;
      continue;
    }
    line_has_token_or_code = true;
    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && peek(1) == '"') {
      size_t j = i + 2;
      std::string delim;
      while (j < n && content[j] != '(' && content[j] != '\n') {
        delim.push_back(content[j]);
        ++j;
      }
      const std::string closer = ")" + delim + "\"";
      size_t end = content.find(closer, j);
      if (end == std::string::npos) end = n;
      for (size_t k = i; k < end && k < n; ++k) {
        if (content[k] == '\n') ++line;
      }
      file->tokens.push_back({Token::kString, "", line});
      i = end == n ? n : end + closer.size();
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && content[j] != quote && content[j] != '\n') {
        if (content[j] == '\\') ++j;
        ++j;
      }
      file->tokens.push_back(
          {quote == '"' ? Token::kString : Token::kChar, "", line});
      i = j < n ? j + 1 : n;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      file->tokens.push_back({Token::kIdent, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      size_t j = i;
      while (j < n && (IsIdentChar(content[j]) || content[j] == '.' ||
                       content[j] == '\'')) {
        if ((content[j] == 'e' || content[j] == 'E' || content[j] == 'p' ||
             content[j] == 'P') &&
            j + 1 < n && (content[j + 1] == '+' || content[j + 1] == '-')) {
          ++j;
        }
        ++j;
      }
      file->tokens.push_back({Token::kNumber, content.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: fuse `::` and `->` (member/scope chains are what rules
    // pattern-match on); everything else is a single character.
    if (c == ':' && peek(1) == ':') {
      file->tokens.push_back({Token::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      file->tokens.push_back({Token::kPunct, "->", line});
      i += 2;
      continue;
    }
    file->tokens.push_back({Token::kPunct, std::string(1, c), line});
    ++i;
  }
}

SourceFile LoadFile(const fs::path& path, std::string rel_path) {
  SourceFile file;
  file.rel_path = std::move(rel_path);
  std::ifstream in(path);
  std::string line;
  std::string content;
  while (std::getline(in, line)) {
    file.raw.push_back(line);
    content += line;
    content.push_back('\n');
  }
  Lex(content, &file);
  return file;
}

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

struct Violation {
  std::string file;  // root-relative path
  size_t line = 0;
  std::string rule;
  std::string detail;
};

struct OrderSite {
  std::string file;
  size_t line = 0;
  std::string op;
  std::string reason;
};

struct AllowEntry {
  std::string path;
  std::string rule;  // "*" = wildcard
  size_t line = 0;   // in the allowlist file
  size_t hits = 0;
};

const char* const kAllRules[] = {
    "no-rand",
    "no-raw-thread",
    "no-stdio-in-src",
    "no-using-namespace-in-header",
    "include-guard",
    "unchecked-io-return",
    "metric-name-literal",
    "atomic-order-justify",
    "guarded-field",
    "bare-lock",
    "unbounded-click-append",
    "include-cycle",
    "stale-allowlist",
};

/// Expected include guard: path relative to the root with a leading `src/`
/// stripped, uppercased, non-alphanumerics replaced by `_`, wrapped as
/// RICD_..._ — e.g. src/graph/group.h -> RICD_GRAPH_GROUP_H_.
std::string ExpectedGuard(const std::string& rel_path) {
  std::string p = rel_path;
  if (HasPrefix(p, "src/")) p = p.substr(4);
  std::string guard = "RICD_";
  for (const char c : p) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0
                        ? static_cast<char>(
                              std::toupper(static_cast<unsigned char>(c)))
                        : '_');
  }
  guard.push_back('_');
  return guard;
}

class Linter {
 public:
  explicit Linter(std::set<std::string> enabled_rules)
      : enabled_(std::move(enabled_rules)) {}

  bool RuleEnabled(const std::string& rule) const {
    return enabled_.count(rule) > 0;
  }
  bool AllRulesEnabled() const {
    return enabled_.size() == std::size(kAllRules);
  }

  void LoadAllowlist(const std::string& path) {
    allowlist_path_ = path;
    std::ifstream in(path);
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      line = Trim(line);
      if (line.empty()) continue;
      const size_t colon = line.rfind(':');
      if (colon == std::string::npos) continue;
      allowlist_.push_back(
          {line.substr(0, colon), line.substr(colon + 1), line_no, 0});
    }
  }

  void AddFile(SourceFile file) { files_.push_back(std::move(file)); }

  void Run() {
    // Cross-file state (the include graph) needs every file loaded, so rule
    // application is a second pass.
    for (const SourceFile& file : files_) LintFile(file);
    if (RuleEnabled("include-cycle")) CheckIncludeCycles();
    if (RuleEnabled("stale-allowlist")) CheckStaleAllowlist();
    std::sort(order_sites_.begin(), order_sites_.end(),
              [](const OrderSite& a, const OrderSite& b) {
                return a.file != b.file ? a.file < b.file : a.line < b.line;
              });
  }

  const std::vector<Violation>& violations() const { return violations_; }
  const std::vector<OrderSite>& order_sites() const { return order_sites_; }
  size_t files_scanned() const { return files_.size(); }
  size_t allowlisted_hits() const { return allowlisted_hits_; }

  /// Writes the machine-readable memory-ordering inventory: every tagged
  /// relaxed/consume/fence site in library code, sorted by (file, line).
  bool WriteOrderInventory(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    auto escape = [](const std::string& s) {
      std::string e;
      for (const char c : s) {
        if (c == '"' || c == '\\') e.push_back('\\');
        e.push_back(c);
      }
      return e;
    };
    out << "{\n  \"schema\": \"ricd-lint-order-inventory-v1\",\n  \"sites\": [";
    for (size_t i = 0; i < order_sites_.size(); ++i) {
      const OrderSite& s = order_sites_[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"file\": \"" << escape(s.file) << "\", \"line\": " << s.line
          << ", \"op\": \"" << escape(s.op) << "\", \"reason\": \""
          << escape(s.reason) << "\"}";
    }
    out << "\n  ]\n}\n";
    return true;
  }

 private:
  void Report(const SourceFile& file, size_t line_no, const std::string& rule,
              std::string detail) {
    if (!RuleEnabled(rule)) return;
    for (AllowEntry& entry : allowlist_) {
      if (entry.path == file.rel_path &&
          (entry.rule == rule || entry.rule == "*")) {
        ++entry.hits;
        ++allowlisted_hits_;
        return;
      }
    }
    violations_.push_back({file.rel_path, line_no, rule, std::move(detail)});
  }

  // -- statement segmentation ----------------------------------------------

  struct Stmt {
    size_t begin, end;  // token index range [begin, end)
  };

  /// Splits the token stream at `;` `{` `}` occurring at paren/bracket depth
  /// zero. `for (a; b; c)` semicolons and lambda bodies inside argument
  /// lists stay inside their statement.
  static std::vector<Stmt> SegmentStatements(const std::vector<Token>& toks) {
    std::vector<Stmt> out;
    size_t start = 0;
    int depth = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::kPunct) continue;
      if (t.text == "(" || t.text == "[") {
        ++depth;
      } else if (t.text == ")" || t.text == "]") {
        if (depth > 0) --depth;
      } else if (depth == 0 &&
                 (t.text == ";" || t.text == "{" || t.text == "}")) {
        if (i > start) out.push_back({start, i});
        start = i + 1;
      }
    }
    if (toks.size() > start) out.push_back({start, toks.size()});
    return out;
  }

  // -- per-file rules --------------------------------------------------------

  void LintFile(const SourceFile& file) {
    const bool is_header = HasSuffix(file.rel_path, ".h");
    const bool in_src = HasPrefix(file.rel_path, "src/");
    const bool is_pool_impl =
        HasPrefix(file.rel_path, "src/common/thread_pool.");
    const bool is_lock_shim =
        file.rel_path == "src/common/thread_annotations.h";
    // Library code by exclusion rather than `in_src`: fixtures are scanned
    // with the fixture directory as the root, so their files carry no src/
    // prefix yet must exercise library-only rules.
    const bool in_library = !HasPrefix(file.rel_path, "tests/") &&
                            !HasPrefix(file.rel_path, "bench/") &&
                            !HasPrefix(file.rel_path, "tools/");
    // Sanctioned homes of member-state click appends: the window itself
    // (its live buffer is what retention bounds) and the table layer the
    // append methods live in. Everywhere else a `name_.Append*` call is
    // standing state with no eviction unless the site says what clears it.
    const bool append_sanctioned = HasPrefix(file.rel_path, "src/window/") ||
                                   HasPrefix(file.rel_path, "src/table/");

    const std::vector<Token>& t = file.tokens;
    auto is_punct = [&](size_t i, const char* p) {
      return i < t.size() && t[i].kind == Token::kPunct && t[i].text == p;
    };
    auto is_ident = [&](size_t i, const char* name) {
      return i < t.size() && t[i].kind == Token::kIdent && t[i].text == name;
    };

    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      const std::string& id = t[i].text;
      const size_t line_no = t[i].line;

      if ((id == "rand" || id == "srand") && is_punct(i + 1, "(")) {
        Report(file, line_no, "no-rand",
               "libc rand()/srand() — use common/random.h (seed-stable)");
      }
      if (!is_pool_impl) {
        const bool std_scoped = i >= 2 && is_ident(i - 2, "std") &&
                                is_punct(i - 1, "::");
        if (std_scoped && (id == "thread" || id == "jthread") &&
            !is_punct(i + 1, "::")) {
          Report(file, line_no, "no-raw-thread",
                 "raw thread construction — go through ThreadPool/"
                 "WorkerEngine");
        }
        if ((std_scoped && id == "async") || id == "pthread_create") {
          Report(file, line_no, "no-raw-thread",
                 "raw thread construction — go through ThreadPool/"
                 "WorkerEngine");
        }
      }
      if (in_src) {
        const bool std_scoped = i >= 2 && is_ident(i - 2, "std") &&
                                is_punct(i - 1, "::");
        if ((std_scoped && (id == "cout" || id == "cerr")) ||
            ((id == "printf" || id == "fprintf" || id == "puts" ||
              id == "fputs" || id == "putchar") &&
             is_punct(i + 1, "("))) {
          Report(file, line_no, "no-stdio-in-src",
                 "direct stdio in a library — use RICD_LOG");
        }
      }
      if (is_header && id == "using" && is_ident(i + 1, "namespace")) {
        Report(file, line_no, "no-using-namespace-in-header",
               "`using namespace` leaks into every includer");
      }
      if (in_library &&
          (id == "GetCounter" || id == "GetGauge" || id == "GetHistogram") &&
          is_punct(i + 1, "(") && i + 2 < t.size() &&
          t[i + 2].kind == Token::kString) {
        Report(file, line_no, "metric-name-literal",
               "ad-hoc metric name literal — use a constant from "
               "src/obs/metric_names.h (typos create dead series)");
      }
      if (in_library && !append_sanctioned &&
          (id == "Append" || id == "AppendTable") && i >= 2 &&
          (is_punct(i - 1, ".") || is_punct(i - 1, "->")) &&
          t[i - 2].kind == Token::kIdent && t[i - 2].text.back() == '_' &&
          is_punct(i + 1, "(")) {
        const auto comment = file.comments.find(line_no);
        const bool tagged = comment != file.comments.end() &&
                            HasPrefix(comment->second, "bounded:") &&
                            !Trim(comment->second.substr(8)).empty();
        if (!tagged) {
          Report(file, line_no, "unbounded-click-append",
                 "click rows appended into member state with nothing "
                 "evicting them — retain through window::ClickWindow or tag "
                 "the site with a same-line `// bounded: <reason>` naming "
                 "what clears it");
        }
      }
      if (!is_lock_shim &&
          (id == "lock" || id == "unlock" || id == "try_lock") && i >= 1 &&
          (is_punct(i - 1, ".") || is_punct(i - 1, "->")) &&
          is_punct(i + 1, "(")) {
        Report(file, line_no, "bare-lock",
               "naked ." + id +
                   "() — lock through ricd::MutexLock (RAII; the one "
                   "sanctioned home of raw lock calls is "
                   "src/common/thread_annotations.h)");
      }
      if (in_library) CheckOrderSite(file, i);
    }

    CheckStatements(file);
    if (in_library) CheckGuardedFields(file);
    if (is_header) CheckIncludeGuard(file);
  }

  /// atomic-order-justify: `memory_order_relaxed`, `memory_order_consume`
  /// (enum or `memory_order::` spellings) and standalone fences need a
  /// same-line `// order: <reason>` tag; tagged sites feed the inventory.
  void CheckOrderSite(const SourceFile& file, size_t i) {
    const std::vector<Token>& t = file.tokens;
    const std::string& id = t[i].text;
    std::string op;
    if (id == "memory_order_relaxed" || id == "memory_order_consume") {
      op = id;
    } else if ((id == "relaxed" || id == "consume") && i >= 2 &&
               t[i - 1].kind == Token::kPunct && t[i - 1].text == "::" &&
               t[i - 2].kind == Token::kIdent &&
               t[i - 2].text == "memory_order") {
      op = "memory_order::" + id;
    } else if ((id == "atomic_thread_fence" || id == "atomic_signal_fence") &&
               i + 1 < t.size() && t[i + 1].kind == Token::kPunct &&
               t[i + 1].text == "(") {
      op = id;
    } else {
      return;
    }
    const auto comment = file.comments.find(t[i].line);
    std::string reason;
    if (comment != file.comments.end() &&
        HasPrefix(comment->second, "order:")) {
      reason = Trim(comment->second.substr(6));
    }
    if (reason.empty()) {
      Report(file, t[i].line, "atomic-order-justify",
             op + " without a same-line `// order: <reason>` tag — justify "
                  "the relaxation or strengthen the ordering");
      return;
    }
    if (RuleEnabled("atomic-order-justify")) {
      order_sites_.push_back({file.rel_path, t[i].line, op, reason});
    }
  }

  // -- statement-level rule: unchecked-io-return ----------------------------

  void CheckStatements(const SourceFile& file) {
    static const std::set<std::string> kIoCalls = {
        "mmap", "munmap", "fread",  "fwrite", "pread", "pwrite",
        "accept", "send", "recv",   "listen", "bind",  "close"};
    const std::vector<Token>& t = file.tokens;
    for (const Stmt& stmt : SegmentStatements(t)) {
      // The statement must be exactly one call: an ident chain, an opening
      // paren, and a balanced argument list that ends the statement.
      if (stmt.end - stmt.begin < 3) continue;
      if (!(t[stmt.end - 1].kind == Token::kPunct &&
            t[stmt.end - 1].text == ")")) {
        continue;
      }
      // Walk the leading receiver chain: ident ((:: | . | ->) ident)*
      size_t i = stmt.begin;
      if (t[i].kind == Token::kPunct && t[i].text == "::") ++i;  // ::close()
      if (i >= stmt.end || t[i].kind != Token::kIdent) continue;
      const size_t first_ident = i;
      size_t name_idx = i;
      ++i;
      while (i + 1 < stmt.end && t[i].kind == Token::kPunct &&
             (t[i].text == "::" || t[i].text == "." || t[i].text == "->") &&
             t[i + 1].kind == Token::kIdent) {
        name_idx = i + 1;
        i += 2;
      }
      if (!(i < stmt.end && t[i].kind == Token::kPunct && t[i].text == "(")) {
        continue;
      }
      // The argument list must close exactly at the statement's last token.
      int depth = 0;
      size_t close = stmt.end;
      for (size_t j = i; j < stmt.end; ++j) {
        if (t[j].kind != Token::kPunct) continue;
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close != stmt.end - 1) continue;
      const std::string& name = t[name_idx].text;

      if (kIoCalls.count(name) > 0 && name_idx == first_ident) {
        Report(file, t[stmt.begin].line, "unchecked-io-return",
               name + "() return ignored — it is the only error signal "
                      "(MAP_FAILED / short transfer)");
      }
    }
  }

  // -- guarded-field ---------------------------------------------------------

  /// Finds classes/structs that own a Mutex (or std::mutex) member and
  /// checks that every mutable member is either RICD_GUARDED_BY-annotated,
  /// immutable (const/static), self-synchronizing (atomic, condition
  /// variable, the mutex itself), or tagged with an adjacent
  /// `// unguarded: <reason>` (or `// guarded by ...`) comment.
  void CheckGuardedFields(const SourceFile& file) {
    struct Scope {
      bool is_class = false;
      std::vector<std::vector<Token>> stmts;
    };
    const std::vector<Token>& t = file.tokens;
    std::vector<Scope> stack(1);
    std::vector<Token> cur;
    int depth = 0;
    for (const Token& tok : t) {
      if (tok.kind == Token::kPunct) {
        if (tok.text == "(" || tok.text == "[") ++depth;
        if (tok.text == ")" || tok.text == "]") depth = std::max(0, depth - 1);
        if (depth == 0 && tok.text == "{") {
          Scope scope;
          bool has_class_kw = false;
          bool has_paren = false;
          bool is_enum = false;
          for (const Token& h : cur) {
            if (h.kind == Token::kIdent &&
                (h.text == "class" || h.text == "struct")) {
              has_class_kw = true;
            }
            if (h.kind == Token::kIdent && h.text == "enum") is_enum = true;
            if (h.kind == Token::kPunct && h.text == "(") has_paren = true;
          }
          scope.is_class = has_class_kw && !has_paren && !is_enum;
          stack.push_back(scope);
          cur.clear();
          continue;
        }
        if (depth == 0 && tok.text == "}") {
          if (!cur.empty()) stack.back().stmts.push_back(cur);
          cur.clear();
          if (stack.size() > 1) {
            if (stack.back().is_class) {
              EvaluateClassMembers(file, stack.back().stmts);
            }
            stack.pop_back();
          }
          continue;
        }
        if (depth == 0 && tok.text == ";") {
          if (!cur.empty()) stack.back().stmts.push_back(cur);
          cur.clear();
          continue;
        }
      }
      cur.push_back(tok);
    }
  }

  void EvaluateClassMembers(const SourceFile& file,
                            const std::vector<std::vector<Token>>& stmts) {
    auto strip_labels = [](std::vector<Token> s) {
      while (s.size() >= 2 && s[0].kind == Token::kIdent &&
             (s[0].text == "public" || s[0].text == "private" ||
              s[0].text == "protected") &&
             s[1].kind == Token::kPunct && s[1].text == ":") {
        s.erase(s.begin(), s.begin() + 2);
      }
      return s;
    };

    bool owns_mutex = false;
    for (const auto& raw_stmt : stmts) {
      const std::vector<Token> s = strip_labels(raw_stmt);
      for (size_t i = 0; i < s.size(); ++i) {
        if (s[i].kind != Token::kIdent) continue;
        const bool ricd_mutex =
            s[i].text == "Mutex" && i + 1 < s.size() &&
            s[i + 1].kind == Token::kIdent;
        const bool std_mutex =
            s[i].text == "mutex" && i >= 2 &&
            s[i - 1].kind == Token::kPunct && s[i - 1].text == "::" &&
            s[i - 2].kind == Token::kIdent && s[i - 2].text == "std";
        if (ricd_mutex || std_mutex) {
          owns_mutex = true;
          break;
        }
      }
      if (owns_mutex) break;
    }
    if (!owns_mutex) return;

    static const std::set<std::string> kSkipLeading = {
        "using",  "typedef",  "friend",   "static", "constexpr", "const",
        "enum",   "class",    "struct",   "template", "explicit", "inline",
        "operator", "virtual"};
    static const std::set<std::string> kSelfSyncTypes = {
        "atomic", "atomic_flag", "condition_variable", "condition_variable_any",
        "Mutex",  "MutexLock",   "mutex"};

    for (const auto& raw_stmt : stmts) {
      const std::vector<Token> s = strip_labels(raw_stmt);
      if (s.empty()) continue;
      if (s[0].kind == Token::kIdent && kSkipLeading.count(s[0].text) > 0) {
        continue;
      }
      bool annotated = false;
      bool exempt_type = false;
      bool has_const = false;
      bool has_paren = false;
      const Token* name = nullptr;
      for (const Token& tok : s) {
        if (tok.kind == Token::kPunct &&
            (tok.text == "=" || tok.text == "{")) {
          break;
        }
        if (tok.kind == Token::kPunct && tok.text == "(") {
          has_paren = true;
          break;
        }
        if (tok.kind != Token::kIdent) continue;
        if (tok.text == "RICD_GUARDED_BY" || tok.text == "RICD_PT_GUARDED_BY") {
          annotated = true;
          break;
        }
        if (HasPrefix(tok.text, "RICD_")) break;  // other annotation macros
        if (kSelfSyncTypes.count(tok.text) > 0) exempt_type = true;
        if (tok.text == "const" || tok.text == "constexpr" ||
            tok.text == "static") {
          has_const = true;
        }
        name = &tok;
      }
      if (annotated || exempt_type || has_const || has_paren) continue;
      if (name == nullptr || name->text.size() < 2 ||
          name->text.back() != '_') {
        continue;
      }
      // Tag escape hatch: `// unguarded: <reason>` (or an explanatory
      // `guarded by ...`) on the declaration lines or the comment block
      // directly above it.
      const size_t first_line = s.front().line;
      const size_t last_line = s.back().line;
      bool tagged = false;
      for (size_t ln = first_line; ln <= last_line + 1 && !tagged; ++ln) {
        tagged = CommentHasGuardTag(file, ln);
      }
      for (size_t ln = first_line; ln-- > 1 && !tagged;) {
        // Walk upward only through comment-only lines.
        if (ln - 1 >= file.raw.size()) break;
        const std::string trimmed = Trim(file.raw[ln - 1]);
        if (!HasPrefix(trimmed, "//")) break;
        tagged = CommentHasGuardTag(file, ln);
      }
      if (tagged) continue;
      Report(file, name->line, "guarded-field",
             "member '" + name->text +
                 "' of a Mutex-owning class has no RICD_GUARDED_BY and no "
                 "`// unguarded: <reason>` tag");
    }
  }

  bool CommentHasGuardTag(const SourceFile& file, size_t line) const {
    const auto it = file.comments.find(line);
    if (it == file.comments.end()) return false;
    std::string lower = it->second;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
      return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    });
    return lower.find("unguarded:") != std::string::npos ||
           lower.find("guarded by") != std::string::npos;
  }

  // -- include-guard ---------------------------------------------------------

  void CheckIncludeGuard(const SourceFile& file) {
    const std::string expected = ExpectedGuard(file.rel_path);
    for (size_t i = 0; i < file.raw.size(); ++i) {
      const std::string line = Trim(file.raw[i]);
      if (!HasPrefix(line, "#ifndef")) continue;
      const std::string guard = Trim(line.substr(7));
      if (guard != expected) {
        Report(file, i + 1, "include-guard",
               "guard '" + guard + "' should be '" + expected + "'");
      }
      return;  // Only the first #ifndef is the guard.
    }
    Report(file, 1, "include-guard",
           "missing include guard '" + expected + "'");
  }

  // -- include-cycle ---------------------------------------------------------

  /// Resolves each quoted include against the scanned file set (repo-style
  /// `src/`-rooted paths and fixture-local paths) and reports each cycle in
  /// the resulting graph once, rotated so the lexicographically smallest
  /// file leads.
  void CheckIncludeCycles() {
    std::map<std::string, const SourceFile*> by_path;
    for (const SourceFile& f : files_) by_path[f.rel_path] = &f;
    std::map<std::string, std::vector<std::pair<std::string, size_t>>> edges;
    for (const SourceFile& f : files_) {
      for (const Include& inc : f.includes) {
        std::string target;
        if (by_path.count(inc.path) > 0) {
          target = inc.path;
        } else if (by_path.count("src/" + inc.path) > 0) {
          target = "src/" + inc.path;
        } else {
          const size_t slash = f.rel_path.rfind('/');
          if (slash != std::string::npos) {
            const std::string sibling =
                f.rel_path.substr(0, slash + 1) + inc.path;
            if (by_path.count(sibling) > 0) target = sibling;
          }
        }
        if (!target.empty()) edges[f.rel_path].push_back({target, inc.line});
      }
    }

    std::map<std::string, int> color;  // 0 = white, 1 = on stack, 2 = done
    std::vector<std::string> stack;
    std::set<std::string> reported;

    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          color[node] = 1;
          stack.push_back(node);
          for (const auto& [next, line] : edges[node]) {
            if (color[next] == 1) {
              // Extract the cycle from the stack.
              auto it = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(it, stack.end());
              auto min_it = std::min_element(cycle.begin(), cycle.end());
              std::rotate(cycle.begin(), min_it, cycle.end());
              std::string key;
              for (const std::string& n : cycle) key += n + " -> ";
              if (reported.insert(key).second) {
                std::string chain = key + cycle.front();
                const SourceFile* lead = by_path[cycle.front()];
                Report(*lead, 1, "include-cycle",
                       "header cycle: " + chain);
              }
            } else if (color[next] == 0) {
              dfs(next);
            }
          }
          stack.pop_back();
          color[node] = 2;
        };
    for (const SourceFile& f : files_) {
      if (color[f.rel_path] == 0) dfs(f.rel_path);
    }
  }

  // -- stale-allowlist -------------------------------------------------------

  /// An allowlist entry whose rule ran this invocation but that suppressed
  /// nothing is dead weight (the violation it excused was fixed or the file
  /// moved) — flag it so the allowlist only ever shrinks to what is real.
  /// Wildcard entries are only checked when every rule ran.
  void CheckStaleAllowlist() {
    for (const AllowEntry& entry : allowlist_) {
      if (entry.hits > 0) continue;
      if (entry.rule == "*") {
        if (!AllRulesEnabled()) continue;
      } else if (!RuleEnabled(entry.rule)) {
        continue;
      }
      violations_.push_back(
          {allowlist_path_, entry.line, "stale-allowlist",
           "allowlist entry '" + entry.path + ":" + entry.rule +
               "' matched nothing — remove it"});
    }
  }

  std::set<std::string> enabled_;
  std::vector<AllowEntry> allowlist_;
  std::string allowlist_path_;
  std::vector<SourceFile> files_;
  std::vector<Violation> violations_;
  std::vector<OrderSite> order_sites_;
  size_t allowlisted_hits_ = 0;
};

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::set<std::string> AllRules() {
  std::set<std::string> rules;
  for (const char* r : kAllRules) rules.insert(r);
  return rules;
}

/// Loads every .cc/.h under root/dir for each dir in `dirs` into `linter`.
/// `skip_fixture_dirs` excludes the planted-violation trees when scanning
/// the real repo.
bool ScanInto(Linter& linter, const fs::path& root_path,
              const std::vector<std::string>& dirs, bool skip_fixture_dirs) {
  for (const std::string& dir : dirs) {
    const fs::path base = dir == "." ? root_path : root_path / dir;
    if (!fs::is_directory(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      const std::string rel =
          fs::relative(entry.path(), root_path).generic_string();
      if (skip_fixture_dirs && rel.find("tools/fixtures/") != std::string::npos) {
        continue;
      }
      if (rel.find("/build/") != std::string::npos ||
          HasPrefix(rel, "build")) {
        continue;
      }
      linter.AddFile(LoadFile(entry.path(), rel));
    }
  }
  return true;
}

size_t CountRuleViolations(const Linter& linter, const std::string& rule) {
  size_t count = 0;
  for (const Violation& v : linter.violations()) {
    if (v.rule == rule) ++count;
  }
  return count;
}

/// --selftest: every <root>/<rule>/{fail,pass} fixture directory is linted
/// with the rule enabled; fail/ must yield at least one violation of the
/// rule and pass/ must yield none. Rules named by a fixture-local
/// allowlist.txt are enabled alongside (the stale-allowlist fixtures plant
/// entries against other rules). Exits nonzero when any expectation fails
/// or any rule of kAllRules lacks its pair, so a regressed rule — or a new
/// rule that never proved itself — is caught by tier-1 without clang or a
/// full repo scan.
int RunSelfTest(const std::string& fixtures_root) {
  const fs::path root(fixtures_root);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "ricd_lint: selftest root '%s' is not a directory\n",
                 fixtures_root.c_str());
    return 2;
  }
  const std::set<std::string> known = AllRules();
  int failures = 0;
  size_t checked = 0;
  std::vector<fs::path> rule_dirs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory()) rule_dirs.push_back(entry.path());
  }
  std::sort(rule_dirs.begin(), rule_dirs.end());
  for (const char* rule : kAllRules) {
    if (!fs::is_directory(root / rule)) {
      std::fprintf(stderr, "selftest: %s: no fixture pair\n", rule);
      ++failures;
    }
  }
  for (const fs::path& rule_dir : rule_dirs) {
    const std::string rule = rule_dir.filename().string();
    if (known.count(rule) == 0) {
      std::fprintf(stderr, "selftest: %s: unknown rule directory\n",
                   rule.c_str());
      ++failures;
      continue;
    }
    for (const char* kind : {"fail", "pass"}) {
      const fs::path dir = rule_dir / kind;
      if (!fs::is_directory(dir)) {
        std::fprintf(stderr, "selftest: %s/%s: missing fixture directory\n",
                     rule.c_str(), kind);
        ++failures;
        continue;
      }
      std::set<std::string> enabled = {rule};
      const fs::path allowlist = dir / "allowlist.txt";
      if (fs::exists(allowlist)) {
        // Enable rules referenced by the fixture allowlist so hit tracking
        // is meaningful for the stale-allowlist fixtures.
        std::ifstream in(allowlist);
        std::string line;
        while (std::getline(in, line)) {
          const size_t hash = line.find('#');
          if (hash != std::string::npos) line.resize(hash);
          line = Trim(line);
          const size_t colon = line.rfind(':');
          if (colon == std::string::npos) continue;
          const std::string entry_rule = line.substr(colon + 1);
          if (known.count(entry_rule) > 0) enabled.insert(entry_rule);
        }
      }
      Linter linter(enabled);
      if (fs::exists(allowlist)) linter.LoadAllowlist(allowlist.string());
      ScanInto(linter, dir, {"."}, /*skip_fixture_dirs=*/false);
      linter.Run();
      const size_t hits = CountRuleViolations(linter, rule);
      const bool ok =
          std::string(kind) == "fail" ? hits > 0 : hits == 0;
      std::printf("selftest: %-22s %-4s %s (%zu violation(s) of the rule)\n",
                  rule.c_str(), kind, ok ? "OK" : "FAILED", hits);
      if (!ok) {
        for (const Violation& v : linter.violations()) {
          std::printf("  %s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                      v.rule.c_str(), v.detail.c_str());
        }
        ++failures;
      }
      ++checked;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "selftest: no fixture directories under %s\n",
                 fixtures_root.c_str());
    return 2;
  }
  std::printf("selftest: %zu fixture dir(s) checked, %d failure(s)\n", checked,
              failures);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ricd_lint --root=<dir> [--allowlist=<file>]\n"
               "                 [--dirs=src,tests,bench,tools]\n"
               "                 [--rules=<csv>] [--order-inventory=<path>]\n"
               "                 [--expect-violations]\n"
               "       ricd_lint --selftest=<fixtures root>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string allowlist;
  std::string dirs_csv = "src,tests,bench,tools";
  std::string rules_csv;
  std::string inventory_path;
  std::string selftest_root;
  bool expect_violations = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (HasPrefix(arg, "--root=")) {
      root = arg.substr(7);
    } else if (HasPrefix(arg, "--allowlist=")) {
      allowlist = arg.substr(12);
    } else if (HasPrefix(arg, "--dirs=")) {
      dirs_csv = arg.substr(7);
    } else if (HasPrefix(arg, "--rules=")) {
      rules_csv = arg.substr(8);
    } else if (HasPrefix(arg, "--order-inventory=")) {
      inventory_path = arg.substr(18);
    } else if (HasPrefix(arg, "--selftest=")) {
      selftest_root = arg.substr(11);
    } else if (arg == "--expect-violations") {
      expect_violations = true;
    } else {
      return Usage();
    }
  }

  if (!selftest_root.empty()) return RunSelfTest(selftest_root);

  std::set<std::string> enabled = AllRules();
  if (!rules_csv.empty()) {
    enabled.clear();
    const std::set<std::string> known = AllRules();
    for (const std::string& rule : SplitCsv(rules_csv)) {
      if (known.count(rule) == 0) {
        std::fprintf(stderr, "ricd_lint: unknown rule '%s'\n", rule.c_str());
        return 2;
      }
      enabled.insert(rule);
    }
  }

  Linter linter(std::move(enabled));
  if (!allowlist.empty()) linter.LoadAllowlist(allowlist);

  const fs::path root_path(root);
  if (!fs::is_directory(root_path)) {
    std::fprintf(stderr, "ricd_lint: root '%s' is not a directory\n",
                 root.c_str());
    return 2;
  }
  ScanInto(linter, root_path, SplitCsv(dirs_csv), /*skip_fixture_dirs=*/true);

  linter.Run();
  for (const Violation& v : linter.violations()) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.detail.c_str());
  }
  if (!inventory_path.empty()) {
    if (!linter.WriteOrderInventory(inventory_path)) {
      std::fprintf(stderr, "ricd_lint: cannot write inventory '%s'\n",
                   inventory_path.c_str());
      return 2;
    }
    std::printf("ricd_lint: %zu tagged ordering site(s) -> %s\n",
                linter.order_sites().size(), inventory_path.c_str());
  }
  std::printf("ricd_lint: scanned %zu files, %zu violation(s), %zu "
              "allowlisted\n",
              linter.files_scanned(), linter.violations().size(),
              linter.allowlisted_hits());
  const bool dirty = !linter.violations().empty();
  if (expect_violations) {
    if (!dirty) {
      std::fprintf(stderr,
                   "ricd_lint: expected planted violations but found none\n");
    }
    return dirty ? 0 : 1;
  }
  return dirty ? 1 : 0;
}
