#include "lint/index.h"

#include <algorithm>
#include <deque>

#include "lint/lexer.h"

namespace msamp::lint {
namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

const Token* at(const Tokens& toks, std::size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

// Identifiers that can never start (or continue) a declaration's type.
// `auto` is included: an auto-typed name cannot be resolved without real
// type inference, so it stays kOther by construction.
const std::set<std::string, std::less<>> kNotATypeHead = {
    "auto",     "break",    "case",        "catch",   "continue", "co_await",
    "co_return","co_yield", "default",     "delete",  "do",       "else",
    "enum",     "for",      "goto",        "if",      "namespace","new",
    "operator", "private",  "protected",   "public",  "return",   "sizeof",
    "switch",   "template", "throw",       "try",     "typedef",  "using",
    "while",    "static_assert", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "decltype", "requires", "concept",
    "noexcept", "alignas",  "alignof",     "asm",     "explicit", "friend",
    "this",     "true",     "false",       "nullptr", "virtual",  "override",
    "final"};

const std::set<std::string, std::less<>> kFloatHeads = {"float", "double"};
const std::set<std::string, std::less<>> kUnorderedHeads = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// Skips a balanced template-argument list with toks[i] on `<`; returns the
// index one past the matching `>`, or i when the angles never balance
// before a `;` (then `<` was a comparison).
std::size_t skip_angles(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], "<")) ++depth;
    if (is_punct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    }
    if (is_punct(toks[j], ";")) return i;
  }
  return i;
}

// Extracts `#include "..."` directives (with line numbers) from the raw
// source — the lexer drops preprocessor lines, so this is a line scan.
void scan_includes(std::string_view src, std::vector<IndexedInclude>& out) {
  int line = 1;
  std::size_t pos = 0;
  while (pos < src.size()) {
    const std::size_t eol = src.find('\n', pos);
    const std::string_view ln =
        src.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    std::size_t i = ln.find_first_not_of(" \t");
    if (i != std::string_view::npos && ln[i] == '#') {
      i = ln.find_first_not_of(" \t", i + 1);
      if (i != std::string_view::npos && ln.substr(i, 7) == "include") {
        const std::size_t open = ln.find('"', i + 7);
        if (open != std::string_view::npos) {
          const std::size_t close = ln.find('"', open + 1);
          if (close != std::string_view::npos && close > open + 1) {
            out.push_back(
                {std::string(ln.substr(open + 1, close - open - 1)), "", line});
          }
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line;
  }
}

// Parses `using NAME = <target>;` at toks[i] (on `using`).  Returns the
// index to resume scanning from.
std::size_t scan_alias(const Tokens& toks, std::size_t i, FileIndex& out) {
  const Token* name = at(toks, i + 1);
  const Token* eq = at(toks, i + 2);
  if (!name || name->kind != TokKind::kIdentifier || !eq ||
      !is_punct(*eq, "=")) {
    return i + 1;  // `using namespace ...` or a using-declaration
  }
  IndexedAlias alias;
  alias.name = name->text;
  alias.line = name->line;
  std::size_t j = i + 3;
  while (const Token* t = at(toks, j)) {
    if (is_punct(*t, ";")) break;
    if (is_punct(*t, "<")) break;  // template args are not part of the head
    if (t->kind == TokKind::kIdentifier && t->text != "const" &&
        t->text != "typename" && t->text != "struct" && t->text != "class") {
      alias.target_head.push_back(t->text);
    }
    ++j;
  }
  if (!alias.target_head.empty()) out.aliases.push_back(std::move(alias));
  // Resume at the `;` (or wherever the head scan stopped).
  return j;
}

// Attempts to parse a declaration (or function signature) whose type head
// starts at toks[i].  On success records it and returns the index of the
// terminator token; on failure returns i.
std::size_t scan_decl(const Tokens& toks, std::size_t i, FileIndex& out) {
  std::vector<std::string> idents;
  int last_line = toks[i].line;
  std::size_t j = i;
  bool pointer = false;
  while (const Token* t = at(toks, j)) {
    if (t->kind == TokKind::kIdentifier) {
      if (kNotATypeHead.count(t->text)) return i;
      idents.push_back(t->text);
      last_line = t->line;
      ++j;
      if (const Token* n = at(toks, j); n && is_punct(*n, "<")) {
        const std::size_t after = skip_angles(toks, j);
        if (after == j) return i;  // comparison, not a template id
        j = after;
      }
      continue;
    }
    if (is_punct(*t, "::")) {
      ++j;
      continue;
    }
    if (is_punct(*t, "&")) {
      ++j;
      continue;
    }
    if (is_punct(*t, "*")) {
      pointer = true;
      ++j;
      continue;
    }
    break;
  }
  if (idents.size() < 2) return i;
  const Token* term = at(toks, j);
  if (!term) return i;
  std::string name = idents.back();
  idents.pop_back();
  if (is_punct(*term, "(")) {
    out.functions.push_back({std::move(name), last_line});
    return j;
  }
  if (is_punct(*term, ";") || is_punct(*term, "=") || is_punct(*term, "{") ||
      is_punct(*term, ",") || is_punct(*term, ")")) {
    // Accumulating through a pointer is pointer arithmetic, never a float
    // reduction; drop the declaration so the name resolves to kOther.
    if (!pointer) {
      out.decls.push_back({std::move(name), std::move(idents), last_line});
    }
    return j;
  }
  return i;
}

}  // namespace

FileIndex index_source(std::string_view path, std::string_view src) {
  FileIndex out;
  out.path = std::string(path);
  scan_includes(src, out.includes);
  const LexOutput lexed = lex(src);
  const Tokens& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "using") {
      i = scan_alias(toks, i, out);
      continue;
    }
    if (kNotATypeHead.count(t.text)) continue;
    // Only attempt a declaration parse at a plausible statement position:
    // after `;`, `{`, `}`, `(`, `,`, an access label's `:`, or file start.
    if (i > 0) {
      const Token& p = toks[i - 1];
      if (!(is_punct(p, ";") || is_punct(p, "{") || is_punct(p, "}") ||
            is_punct(p, "(") || is_punct(p, ",") || is_punct(p, ":"))) {
        continue;
      }
    }
    const std::size_t after = scan_decl(toks, i, out);
    if (after != i) i = after;
  }
  return out;
}

const std::vector<std::string> TreeIndex::kEmptyClosure;

void TreeIndex::add(FileIndex fi) {
  std::string key = fi.path;
  files_.insert_or_assign(std::move(key), std::move(fi));
}

void TreeIndex::link() {
  // Resolve includes: nearest-dir first, then the repo's include roots.
  for (auto& [path, fi] : files_) {
    std::string dir;
    if (const std::size_t slash = path.rfind('/');
        slash != std::string::npos) {
      dir = path.substr(0, slash + 1);
    }
    for (IndexedInclude& inc : fi.includes) {
      for (const std::string& cand :
           {dir + inc.quoted, "src/" + inc.quoted, "tools/" + inc.quoted,
            "bench/" + inc.quoted, inc.quoted}) {
        if (files_.count(cand)) {
          inc.resolved = cand;
          break;
        }
      }
    }
  }
  // Precompute every closure so const lookups stay pure.
  closures_.clear();
  for (const auto& [path, fi] : files_) {
    std::set<std::string, std::less<>> seen{path};
    std::deque<const FileIndex*> queue{&fi};
    while (!queue.empty()) {
      const FileIndex* cur = queue.front();
      queue.pop_front();
      for (const IndexedInclude& inc : cur->includes) {
        if (inc.resolved.empty() || seen.count(inc.resolved)) continue;
        seen.insert(inc.resolved);
        queue.push_back(&files_.find(inc.resolved)->second);
      }
    }
    closures_[path] = {seen.begin(), seen.end()};
  }
}

const FileIndex* TreeIndex::file(std::string_view path) const {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

std::vector<std::string> TreeIndex::files() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, fi] : files_) out.push_back(path);
  return out;
}

const std::vector<std::string>& TreeIndex::closure(
    std::string_view path) const {
  const auto it = closures_.find(path);
  return it == closures_.end() ? kEmptyClosure : it->second;
}

TypeCat TreeIndex::resolve_head(const std::vector<std::string>& head,
                                const std::vector<std::string>& clos,
                                std::set<std::string, std::less<>>& guard)
    const {
  for (const std::string& ident : head) {
    if (kFloatHeads.count(ident)) return TypeCat::kFloat;
    if (kUnorderedHeads.count(ident)) return TypeCat::kUnordered;
    if (guard.count(ident)) continue;
    guard.insert(ident);
    for (const std::string& f : clos) {
      const FileIndex& fi = files_.find(f)->second;
      for (const IndexedAlias& a : fi.aliases) {
        if (a.name != ident) continue;
        const TypeCat cat = resolve_head(a.target_head, clos, guard);
        if (cat != TypeCat::kOther) return cat;
      }
    }
  }
  return TypeCat::kOther;
}

TypeCat TreeIndex::category_of(std::string_view path,
                               std::string_view name) const {
  const std::vector<std::string>& clos = closure(path);
  if (clos.empty()) return TypeCat::kOther;
  // The file's own declarations shadow the closure's.
  std::vector<std::string_view> order{path};
  for (const std::string& f : clos) {
    if (f != path) order.push_back(f);
  }
  for (const std::string_view f : order) {
    const auto it = files_.find(f);
    if (it == files_.end()) continue;
    for (const IndexedDecl& d : it->second.decls) {
      if (d.name != name) continue;
      std::set<std::string, std::less<>> guard;
      return resolve_head(d.type_head, clos, guard);
    }
  }
  return TypeCat::kOther;
}

TypeCat TreeIndex::head_category(std::string_view path,
                                 std::string_view head) const {
  const std::vector<std::string>& clos = closure(path);
  if (clos.empty()) return TypeCat::kOther;
  std::set<std::string, std::less<>> guard;
  return resolve_head({std::string(head)}, clos, guard);
}

int layer_rank(std::string_view path) {
  const auto under = [&](std::string_view dir) {
    return path.substr(0, dir.size()) == dir;
  };
  if (under("src/util/")) return 0;
  if (under("src/core/") || under("src/net/") || under("src/sim/") ||
      under("src/transport/")) {
    return 1;
  }
  if (under("src/workload/")) return 2;
  if (under("src/analysis/")) return 3;
  if (under("src/fleet/")) return 4;
  if (under("src/cluster/")) return 5;
  // bench/, tools/, examples/, tests/, and the src/msamp.h umbrella may
  // depend on everything.
  return 6;
}

namespace {

const char* layer_name(int rank) {
  switch (rank) {
    case 0: return "util";
    case 1: return "core/net/sim/transport";
    case 2: return "workload";
    case 3: return "analysis";
    case 4: return "fleet";
    case 5: return "cluster";
    default: return "bench/tools";
  }
}

}  // namespace

std::vector<Finding> check_include_layering(const TreeIndex& index) {
  std::vector<Finding> findings;
  const std::vector<std::string> files = index.files();

  // Upward includes: a file may only include its own layer or below.
  for (const std::string& path : files) {
    const FileIndex* fi = index.file(path);
    const int from = layer_rank(path);
    for (const IndexedInclude& inc : fi->includes) {
      if (inc.resolved.empty()) continue;
      const int to = layer_rank(inc.resolved);
      if (to > from) {
        findings.push_back(
            {path, inc.line, "include-layering",
             "'" + inc.resolved + "' (layer " + layer_name(to) +
                 ") included from layer " + layer_name(from) +
                 " — the layer DAG is util -> core/net/sim/transport -> "
                 "workload -> analysis -> fleet -> cluster -> bench/tools "
                 "(docs/STATIC_ANALYSIS.md)"});
      }
    }
  }

  // Cycles: strongly connected components of the resolved include graph.
  // Iterative Tarjan, visiting files in sorted order for determinism.
  std::map<std::string, int, std::less<>> idx, low;
  std::vector<std::string> stack;
  std::set<std::string, std::less<>> on_stack;
  int counter = 0;
  struct Frame {
    const std::string* path;
    std::size_t edge = 0;
  };
  for (const std::string& start : files) {
    if (idx.count(start)) continue;
    std::vector<Frame> call{{&start}};
    while (!call.empty()) {
      Frame& fr = call.back();
      const std::string& v = *fr.path;
      if (fr.edge == 0) {
        idx[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack.insert(v);
      }
      const FileIndex* fi = index.file(v);
      bool descended = false;
      while (fr.edge < fi->includes.size()) {
        const std::string& w = fi->includes[fr.edge].resolved;
        ++fr.edge;
        if (w.empty()) continue;
        if (!idx.count(w)) {
          call.push_back({&index.file(w)->path});
          descended = true;
          break;
        }
        if (on_stack.count(w)) low[v] = std::min(low[v], idx[w]);
      }
      if (descended) continue;
      if (low[v] == idx[v]) {
        std::vector<std::string> scc;
        while (true) {
          std::string w = stack.back();
          stack.pop_back();
          on_stack.erase(w);
          const bool done = w == v;
          scc.push_back(std::move(w));
          if (done) break;
        }
        bool self_loop = false;
        if (scc.size() == 1) {
          for (const IndexedInclude& inc : index.file(scc[0])->includes) {
            if (inc.resolved == scc[0]) self_loop = true;
          }
        }
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          std::string members = scc[0];
          for (std::size_t i = 1; i < scc.size(); ++i) {
            members += " <-> " + scc[i];
          }
          findings.push_back(
              {scc[0], 1, "include-layering",
               "include cycle: " + members +
                   " — break the cycle (forward-declare, or move the shared "
                   "piece down a layer)"});
        }
      }
      call.pop_back();
      if (!call.empty()) {
        Frame& parent = call.back();
        low[*parent.path] = std::min(low[*parent.path], low[v]);
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace msamp::lint
