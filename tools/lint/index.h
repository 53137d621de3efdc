// msamp_lint pass 1: the tree-wide symbol index.
//
// Before any rule runs, every file in the tree is indexed once:
//
//   * the `#include "..."` graph, resolved to repo-relative paths (the
//     lexer strips preprocessor lines, so includes are extracted from the
//     raw source here);
//   * `using` aliases (name -> target type head), so a container hidden
//     behind an alias declared in *another header* still resolves;
//   * declarations — locals, parameters, and data members — with their
//     type head resolved through the alias chain to a category
//     (float/double, unordered container, or other);
//   * function signatures (name + line of each definition/declaration).
//
// Pass 2 (lint/rules.cc) runs the per-file rules over the token stream
// *plus* this index: a member declared `std::unordered_map<...>` in a
// header and iterated in its .cc — the documented v1 known-limit — now
// resolves, as does a `double` accumulator behind a header.  The index is
// also the input to the tree-level `include-layering` rule below.
//
// Build with add()+link(), then every const lookup (closure(),
// category_of()) is pure — link() precomputes all include closures, so
// pass 2 never mutates the index.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.h"

namespace msamp::lint {

/// What a declared name's type resolves to, after chasing `using` aliases
/// (possibly across headers).
enum class TypeCat {
  kOther,      ///< anything the determinism rules do not care about
  kFloat,      ///< float / double / long double (accumulation-order hazard)
  kUnordered,  ///< std::unordered_{map,set,multimap,multiset}
};

/// One `#include "..."` directive.
struct IndexedInclude {
  std::string quoted;    ///< the path as written between the quotes
  std::string resolved;  ///< repo-relative path; empty until link() matches it
  int line = 0;
};

/// One `using NAME = <target>;` alias.
struct IndexedAlias {
  std::string name;
  /// Identifier tokens of the target's type head (e.g. {"std",
  /// "unordered_map"}); template arguments are not part of the head.
  std::vector<std::string> target_head;
  int line = 0;
};

/// One variable / parameter / data-member declaration.
struct IndexedDecl {
  std::string name;
  std::vector<std::string> type_head;  ///< see IndexedAlias::target_head
  int line = 0;
};

/// One function declaration or definition (approximate: the token pattern
/// `type name(...)` followed by `{`, `;`, or `const`).
struct IndexedFunction {
  std::string name;
  int line = 0;
};

/// Everything pass 1 extracts from one file.
struct FileIndex {
  std::string path;  ///< repo-relative, forward slashes
  std::vector<IndexedInclude> includes;
  std::vector<IndexedAlias> aliases;
  std::vector<IndexedDecl> decls;
  std::vector<IndexedFunction> functions;
};

/// Indexes one file.  `src` is the raw source (includes are line-scanned
/// before lexing; everything else comes from the token stream).
FileIndex index_source(std::string_view path, std::string_view src);

/// The tree-wide index: every FileIndex plus the linked include graph.
class TreeIndex {
 public:
  /// Registers a file.  Call for every file, then link() once.
  void add(FileIndex fi);

  /// Resolves every include against the registered file set and
  /// precomputes the transitive include closure of every file.  Must be
  /// called before any lookup.
  void link();

  const FileIndex* file(std::string_view path) const;

  /// Sorted repo-relative paths of every registered file.
  std::vector<std::string> files() const;

  /// Transitive include closure of `path` (self included), sorted.
  /// Empty for unknown paths.
  const std::vector<std::string>& closure(std::string_view path) const;

  /// Category of the name `name` as visible from `path`: the file's own
  /// declarations win, then the include closure in sorted path order.
  /// Aliases are chased transitively (cycle-guarded) across the closure.
  TypeCat category_of(std::string_view path, std::string_view name) const;

  /// Category a bare type head resolves to from `path`'s closure — used
  /// for range expressions that name a type or alias directly.
  TypeCat head_category(std::string_view path, std::string_view head) const;

 private:
  TypeCat resolve_head(const std::vector<std::string>& head,
                       const std::vector<std::string>& clos,
                       std::set<std::string, std::less<>>& guard) const;

  std::map<std::string, FileIndex, std::less<>> files_;
  std::map<std::string, std::vector<std::string>, std::less<>> closures_;
  static const std::vector<std::string> kEmptyClosure;
};

/// The tree-level layering rule over the linked include graph.
///
/// The measured layer DAG of this repo (each layer may include itself and
/// anything below; docs/STATIC_ANALYSIS.md):
///
///   util -> {core, net, sim, transport} -> workload -> analysis
///        -> fleet -> cluster -> {bench, tools, examples, tests}
///
/// Findings: an include whose target sits in a *higher* layer than the
/// including file (`include-layering`), and any cycle in the resolved
/// include graph (reported once, at the lexicographically smallest member).
std::vector<Finding> check_include_layering(const TreeIndex& index);

/// Layer rank of a repo-relative path (0 = util, larger = higher).  Files
/// outside the known layers (docs, scripts) rank as top and may include
/// anything.  Exposed for tests.
int layer_rank(std::string_view path);

}  // namespace msamp::lint
