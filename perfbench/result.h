// One benchmark run's outcome: its metrics, checks and stamp, written to
// result.json and summarized on stdout.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support.h"

namespace msamp::perfbench {

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  ///< one per execution (or profile pass)
  Summary summary;              ///< of `samples`
  double value() const { return summary.median; }
};

struct RunResult {
  std::string workload;
  bool trace = false;
  std::uint64_t seed = 0;
  std::uint64_t data_seed = 0;
  std::string stamp_json = "{}";
  int attempted = 0;  ///< timed executions (profile passes when tracing)
  int failed = 0;     ///< executions that exited badly or failed a check
  std::vector<std::string> errors;  ///< every failed check, in order
  std::vector<Metric> metrics;
  std::map<std::string, std::string> digests;  ///< of the reference outputs
  std::map<std::string, double> counts;        ///< extra facts for result.json

  bool correct() const { return errors.empty() && failed == 0 && attempted > 0; }
  void fail(std::string why) { errors.push_back(std::move(why)); }
  void add(const std::string& name, const std::string& unit,
           std::vector<double> values);
};

/// Full record (schema msamp-bench-result/1) for --compare and humans.
bool write_result_json(const RunResult& r, const fs::path& path);

/// The last stdout line the benchmark contract asks for.
std::string contract_line(const RunResult& r);

/// Human-readable metric table (stdout, before the contract line).
void print_table(const RunResult& r);

}  // namespace msamp::perfbench
