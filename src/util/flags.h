// Command-line flag parser shared by the CLI front ends.
//
// Parses `--key value` pairs (later duplicates win; absent flags keep
// their fallback).  Malformed input — an unknown flag, a trailing flag
// with no value, a positional token where none is allowed, a non-numeric
// value for a numeric accessor, a value outside a ranged read's bounds,
// or a value a choice read does not list — throws util::UsageError.
// Front ends catch it, print the message plus their usage text, and exit
// with status 2, which keeps the historic msampctl semantics while making
// the parser directly unit-testable (tests/test_flags.cc).
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msamp::util {

/// A malformed command line.  The message describes the offending token;
/// the catcher owns the usage text and the exit code (2 by convention).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// Parses argv[first..argc).  Every flag must appear in `known` and
  /// takes exactly one value.  Tokens that do not start with "--" are
  /// collected in order into positionals() when `allow_positionals` is
  /// true, and are a UsageError otherwise.
  Flags(int argc, char** argv, int first, std::vector<std::string> known,
        bool allow_positionals = false);

  bool has(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback) const;

  /// Integer value; throws UsageError unless the whole token parses.
  long num(const std::string& key, long fallback) const;

  /// Floating-point value; throws UsageError unless the whole token parses.
  double real(const std::string& key, double fallback) const;

  /// Ranged reads: as above, and the value must be finite and lie in
  /// [lo, hi], else UsageError.  An absent flag yields `fallback`.
  long num(const std::string& key, long fallback, long lo, long hi) const;
  double real(const std::string& key, double fallback, double lo,
              double hi) const;

  /// Index of the value in `options`, or `fallback` when the flag is
  /// absent; any other value is a UsageError listing the options.
  int choice(const std::string& key,
             const std::vector<std::string_view>& options,
             int fallback) const;

  /// "I/N" pair value (e.g. `--shard 1/3`).  Requires two integers
  /// separated by '/' with 0 <= I < N; anything else is a UsageError.
  std::pair<long, long> index_count(const std::string& key,
                                    std::pair<long, long> fallback) const;

  /// Non-flag tokens, in command-line order (empty unless the constructor
  /// allowed them).
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace msamp::util
