// msamp_lint — project-invariant static analysis for the msamp tree.
//
//   msamp_lint [--root DIR] [--format=text|json] [FILE...]
//
// Two passes (docs/STATIC_ANALYSIS.md):
//
//   pass 1  index every file under src/ tools/ bench/ examples/ tests/
//           (declarations, using-aliases, the #include graph) and link
//           the include closures — lint/index.h;
//   pass 2  run the per-file rules over each file's token stream plus
//           the tree index — lint/rules.cc.
//
// With FILE arguments, only those files are linted in pass 2, but pass 1
// still indexes the whole tree so cross-header types resolve; the
// tree-level rules (fingerprint-coverage, include-layering) run only on
// full-tree invocations, where their findings are actionable.
//
// Both passes run serially over a file list that is sorted and
// deduplicated first, so the output bytes are identical for any
// file-argument order (ctest LintParallelDeterminism).
//
// Findings print to stdout — `file:line: rule-id: message` lines for
// --format=text (the default), the msamp-lint-report/2 JSON document for
// --format=json (lint/report.h).  A per-rule count summary goes to
// stderr.  Exit code: 0 clean, 1 findings remain, 2 usage/IO errors.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/report.h"
#include "lint/rules.h"

namespace {

namespace fs = std::filesystem;
using msamp::lint::Finding;

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool lintable(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// Path relative to root with forward slashes, as classify_path() expects.
std::string rel(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

int usage() {
  std::cerr << "usage: msamp_lint [--root DIR] [--format=text|json] "
               "[FILE...]\n";
  return 2;
}

struct SourceFile {
  std::string rel;  ///< repo-relative, forward slashes
  std::string src;
};

void append(std::vector<Finding>& to, std::vector<Finding>&& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> file_args;
  std::string format = "text";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return usage();
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") return usage();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      file_args.emplace_back(arg);
    }
  }
  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "msamp_lint: bad --root: " << ec.message() << "\n";
    return 2;
  }

  // The index always covers the whole tree; explicit FILE args only
  // narrow which files pass 2 lints.
  std::vector<fs::path> tree_files;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file(ec) && lintable(it->path())) {
        tree_files.push_back(it->path());
      }
    }
  }
  const bool full_tree = file_args.empty();
  for (auto& f : file_args) {
    if (f.is_relative()) f = root / f;
  }
  std::vector<fs::path> lint_paths = full_tree ? tree_files : file_args;
  for (const fs::path& f : lint_paths) tree_files.push_back(f);

  // Sort + dedup by repo-relative path: lint order (and therefore output
  // byte order) must not depend on argv order or directory enumeration.
  int io_errors = 0;
  const auto load = [&](std::vector<fs::path>& paths) {
    std::vector<SourceFile> out;
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
    for (const fs::path& f : paths) {
      SourceFile sf;
      sf.rel = rel(root, f);
      if (!read_file(f, &sf.src)) {
        std::cerr << "msamp_lint: cannot read " << f.string() << "\n";
        ++io_errors;
        continue;
      }
      out.push_back(std::move(sf));
    }
    std::sort(out.begin(), out.end(),
              [](const SourceFile& a, const SourceFile& b) {
                return a.rel < b.rel;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const SourceFile& a, const SourceFile& b) {
                            return a.rel == b.rel;
                          }),
              out.end());
    return out;
  };
  std::vector<SourceFile> tree = load(tree_files);
  std::vector<SourceFile> to_lint = full_tree ? tree : load(lint_paths);

  // Pass 1: index every tree file, then link the include closures.
  msamp::lint::TreeIndex index;
  for (const SourceFile& f : tree) {
    index.add(msamp::lint::index_source(f.rel, f.src));
  }
  index.link();

  // Pass 2: per-file rules, in sorted-path order.
  std::vector<Finding> findings;
  for (const SourceFile& f : to_lint) {
    append(findings, msamp::lint::lint_source(f.rel, f.src, nullptr, &index));
  }

  // Tree-level rules: include layering over the linked graph, and
  // fingerprint coverage of FleetConfig vs fleet_runner.cc.
  if (full_tree) {
    append(findings, msamp::lint::check_include_layering(index));

    struct Header {
      const char* struct_name;
      const char* path;
    };
    const Header headers[] = {
        {"FleetConfig", "src/fleet/config.h"},
        {"FabricConfig", "src/fleet/config.h"},
        {"SharedBufferConfig", "src/net/buffer_policy.h"},
        {"DelayDrivenConfig", "src/net/buffer_policy.h"},
        {"ClockModelConfig", "src/core/clock_model.h"},
        {"LossAssocConfig", "src/analysis/loss_assoc.h"},
        {"ClassifyConfig", "src/analysis/rack_classify.h"},
    };
    const char* impl_path = "src/fleet/fleet_runner.cc";
    if (fs::is_regular_file(root / "src/fleet/config.h", ec)) {
      std::vector<msamp::lint::StructSource> structs;
      bool ok = true;
      for (const Header& h : headers) {
        std::string src;
        if (!read_file(root / h.path, &src)) {
          std::cerr << "msamp_lint: cannot read " << h.path << "\n";
          ++io_errors;
          ok = false;
          continue;
        }
        structs.push_back({h.struct_name, h.path, std::move(src)});
      }
      std::string impl_src;
      if (ok && read_file(root / impl_path, &impl_src)) {
        append(findings,
               msamp::lint::check_fingerprint_coverage(
                   structs, "FleetConfig", impl_path, impl_src));
      } else if (ok) {
        std::cerr << "msamp_lint: cannot read " << impl_path << "\n";
        ++io_errors;
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  if (format == "json") {
    std::cout << msamp::lint::to_json(findings, to_lint.size());
  } else {
    for (const Finding& f : findings) {
      std::cout << msamp::lint::to_string(f) << "\n";
    }
  }

  for (const auto& [rule, n] : msamp::lint::count_by_rule(findings)) {
    std::cerr << "msamp_lint: " << rule << ": " << n << "\n";
  }
  if (io_errors != 0) return 2;
  if (!findings.empty()) {
    std::cerr << "msamp_lint: " << findings.size() << " finding(s) in "
              << to_lint.size() << " file(s)\n";
    return 1;
  }
  std::cerr << "msamp_lint: clean (" << to_lint.size() << " files)\n";
  return 0;
}
