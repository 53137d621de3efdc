#include "result.h"

#include <cstdio>
#include <iostream>

#include "json.h"
#include "util/table.h"

namespace msamp::perfbench {

void RunResult::add(const std::string& name, const std::string& unit,
                    std::vector<double> values) {
  const Summary s = summarize(values);
  metrics.push_back({name, unit, std::move(values), s});
}

bool write_result_json(const RunResult& r, const fs::path& path) {
  std::string out = "{\n  \"schema\": \"msamp-bench-result/1\",\n";
  out += "  \"workload\": " + json::quote(r.workload) + ",\n";
  out += std::string("  \"trace\": ") + (r.trace ? "true" : "false") + ",\n";
  out += "  \"seed\": " + std::to_string(r.seed) + ",\n";
  out += "  \"data_seed\": " + std::to_string(r.data_seed) + ",\n";
  out += "  \"stamp\": " + r.stamp_json + ",\n";
  out += std::string("  \"correct\": ") + (r.correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(r.failed) + ",\n";
  out += "  \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json::quote(r.errors[i]);
  }
  out += "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const Summary& s = m.summary;
    out += (i == 0 ? "\n    " : ",\n    ") + json::quote(m.name) +
           ": {\"value\": " + json::number(m.value()) +
           ", \"unit\": " + json::quote(m.unit) +
           ", \"q1\": " + json::number(s.q1) + ", \"q3\": " + json::number(s.q3) +
           ", \"min\": " + json::number(s.min) + ", \"max\": " + json::number(s.max) +
           ", \"n\": " + std::to_string(s.n) + ", \"samples\": [";
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      out += (k == 0 ? "" : ", ") + json::number(m.samples[k]);
    }
    out += "]}";
  }
  out += "\n  },\n  \"digests\": {";
  bool first = true;
  for (const auto& [k, v] : r.digests) {
    out += (first ? "\n    " : ",\n    ") + json::quote(k) + ": " + json::quote(v);
    first = false;
  }
  out += "\n  },\n  \"counts\": {";
  first = true;
  for (const auto& [k, v] : r.counts) {
    out += (first ? "\n    " : ",\n    ") + json::quote(k) + ": " + json::number(v);
    first = false;
  }
  out += "\n  }\n}\n";
  return write_file(path, out);
}

std::string contract_line(const RunResult& r) {
  std::string out = std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "" : ", ") + json::quote(m.name) +
           ": {\"value\": " + json::number(m.value()) +
           ", \"unit\": " + json::quote(m.unit) + "}";
  }
  return out + "}}";
}

void print_table(const RunResult& r) {
  std::printf("%s%s seed %llu (data seed %llu): %d attempted, %d failed\n",
              r.workload.c_str(), r.trace ? " [trace]" : "",
              static_cast<unsigned long long>(r.seed),
              static_cast<unsigned long long>(r.data_seed), r.attempted,
              r.failed);
  util::Table table({"metric", "median", "unit", "min", "max", "n"});
  for (const Metric& m : r.metrics) {
    table.row()
        .cell(m.name)
        .cell(format_g(m.value()))
        .cell(m.unit)
        .cell(format_g(m.summary.min))
        .cell(format_g(m.summary.max))
        .cell(m.summary.n);
  }
  table.print(std::cout);
  for (const std::string& e : r.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
}

}  // namespace msamp::perfbench
