// msamp_lint report format: the machine-readable JSON report.
//
// JSON schema (stable; asserted by tests/test_lint.cc):
//
//   {
//     "schema": "msamp-lint-report/2",
//     "files": <number of files linted>,
//     "counts": {"<rule-id>": <n>, ...},          // sorted by rule id
//     "findings": [
//       {"file": "...", "line": N, "rule": "...", "message": "..."},
//       ...                                        // sorted by the driver
//     ]
//   }
//
// Byte-stability contract: given the same sorted findings, to_json()
// returns the same bytes — no timestamps, no absolute paths, no map
// iteration surprises — so `--format=json` is comparable with `cmp`
// across any file-argument order (ctest LintParallelDeterminism).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.h"

namespace msamp::lint {

/// Per-rule finding counts (std::map: iteration sorted by rule id).
std::map<std::string, std::size_t> count_by_rule(
    const std::vector<Finding>& findings);

/// Escapes a string for a JSON string literal (exposed for tests).
std::string json_escape(std::string_view s);

/// Serializes the report.  `findings` must already be sorted by the
/// driver's canonical order (file, line, rule, message).
std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_linted);

}  // namespace msamp::lint
