#include "lint/report.h"

#include <algorithm>
#include <cstdio>

namespace msamp::lint {

std::map<std::string, std::size_t> count_by_rule(
    const std::vector<Finding>& findings) {
  std::map<std::string, std::size_t> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_linted) {
  std::string out = "{\n  \"schema\": \"msamp-lint-report/2\",\n  \"files\": ";
  out += std::to_string(files_linted);
  out += ",\n  \"counts\": {";
  const auto counts = count_by_rule(findings);
  bool first = true;
  for (const auto& [rule, n] : counts) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(rule) + "\": " + std::to_string(n);
    first = false;
  }
  out += counts.empty() ? "},\n" : "\n  },\n";
  out += "  \"findings\": [";
  first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    out += "    {\"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\"}";
    first = false;
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace msamp::lint
