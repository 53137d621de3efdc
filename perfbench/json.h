// Minimal JSON for the benchmark's own files: a value tree, a strict
// parser, and a writer for numbers and strings.  Enough for BENCHMARK.json,
// result.json and trace.json; not a general-purpose library.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace msamp::perfbench::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  /// Member `key` of an object, or nullptr.
  const Value* get(const std::string& key) const;
};

/// Parses a whole document; nullopt (with a reason in *error) on any
/// syntax error or trailing garbage.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Reads and parses a file.
std::optional<Value> parse_file(const std::string& path,
                                std::string* error = nullptr);

/// A JSON string literal for `s`, quotes included.
std::string quote(std::string_view s);

/// A JSON number with every significant digit of `v` (17 digits);
/// non-finite values become null.
std::string number(double v);

}  // namespace msamp::perfbench::json
