#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "json.h"
#include "util/table.h"

namespace msamp::perfbench {
namespace {

struct MetricSpec {
  bool lower_is_better = true;
  std::optional<double> bound;  ///< end-to-end metrics only
};

struct Run {
  double seed = 0.0;
  std::string path;
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< value, unit
};

/// workload (plus " [trace]") -> runs, sorted by seed then path.
using RunSet = std::map<std::string, std::vector<Run>>;

bool load_runs(const fs::path& dir, RunSet* out) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "compare: %s is not a directory\n", dir.c_str());
    return false;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.path().filename() != "result.json") continue;
    std::string err;
    const auto doc = json::parse_file(entry.path().string(), &err);
    const json::Value* schema = doc ? doc->get("schema") : nullptr;
    if (schema == nullptr || schema->string != "msamp-bench-result/1" ||
        doc->get("workload") == nullptr) {
      std::fprintf(stderr, "compare: skipping %s (%s)\n", entry.path().c_str(),
                   err.empty() ? "not a msamp_bench result" : err.c_str());
      continue;
    }
    Run run;
    run.path = entry.path().string();
    if (const auto* seed = doc->get("seed")) run.seed = seed->number;
    if (const auto* metrics = doc->get("metrics")) {
      for (const auto& [name, m] : metrics->object) {
        const json::Value* value = m.get("value");
        const json::Value* unit = m.get("unit");
        if (value == nullptr || value->kind != json::Value::Kind::kNumber) continue;
        run.metrics[name] = {value->number, unit != nullptr ? unit->string : ""};
      }
    }
    const json::Value* trace = doc->get("trace");
    const std::string key = doc->get("workload")->string +
                            (trace != nullptr && trace->boolean ? " [trace]" : "");
    (*out)[key].push_back(std::move(run));
  }
  for (auto& [key, runs] : *out) {
    std::sort(runs.begin(), runs.end(), [](const Run& x, const Run& y) {
      return x.seed != y.seed ? x.seed < y.seed : x.path < y.path;
    });
  }
  return true;
}

std::map<std::string, MetricSpec> load_specs(const fs::path& root) {
  std::map<std::string, MetricSpec> specs;
  const auto doc = json::parse_file((root / "BENCHMARK.json").string());
  if (!doc) return specs;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const json::Value* list = doc->get(section);
    if (list == nullptr) continue;
    for (const json::Value& m : list->array) {
      MetricSpec spec;
      if (const auto* better = m.get("better")) {
        spec.lower_is_better = better->string != "higher";
      }
      if (const auto* bound = m.get("bound")) spec.bound = bound->number;
      if (const auto* name = m.get("name")) specs[name->string] = spec;
    }
  }
  return specs;
}

double spread(const Summary& s) {
  return s.median != 0.0 ? (s.q3 - s.q1) / std::fabs(s.median) : 0.0;
}

}  // namespace

int run_compare(const fs::path& a, const fs::path& b, const fs::path& root) {
  RunSet runs_a, runs_b;
  if (!load_runs(a, &runs_a) || !load_runs(b, &runs_b)) return 2;
  const auto specs = load_specs(root);
  int regressions = 0;
  util::Table table({"workload", "metric", "unit", "A median", "A q1", "A q3",
                     "B median", "B q1", "B q3", "B wins", "verdict"});
  for (const auto& [workload, side_a] : runs_a) {
    const auto it = runs_b.find(workload);
    if (it == runs_b.end()) continue;
    const std::vector<Run>& side_b = it->second;
    for (const auto& [metric, first] : side_a.front().metrics) {
      std::vector<double> va, vb;
      for (const Run& r : side_a) {
        if (const auto m = r.metrics.find(metric); m != r.metrics.end()) {
          va.push_back(m->second.first);
        }
      }
      for (const Run& r : side_b) {
        if (const auto m = r.metrics.find(metric); m != r.metrics.end()) {
          vb.push_back(m->second.first);
        }
      }
      if (va.empty() || vb.empty()) continue;
      const MetricSpec spec = specs.count(metric) ? specs.at(metric) : MetricSpec{};
      const auto better = [&](double x, double y) {  // x better than y
        return spec.lower_is_better ? x < y : x > y;
      };
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) wins += better(vb[i], va[i]) ? 1 : 0;
      const Summary sa = summarize(va), sb = summarize(vb);
      const double gap = std::fabs(sb.median - sa.median);
      const bool b_worse = better(sa.median, sb.median);
      const bool all_better = better(*std::max_element(vb.begin(), vb.end(), better),
                                     *std::min_element(va.begin(), va.end(), better));
      std::string verdict = "unchanged";
      if ((10 * wins >= 9 * pairs && gap > sa.q3 - sa.q1 && !b_worse) ||
          (all_better && !b_worse && gap > 0.0)) {
        verdict = "improved";
      } else if (spec.bound && b_worse && gap > *spec.bound * std::fabs(sa.median)) {
        verdict = "regressed";
        ++regressions;
      } else if (spec.bound && (spread(sa) > *spec.bound || spread(sb) > *spec.bound)) {
        verdict = "unresolved";
      }
      table.row()
          .cell(workload)
          .cell(metric)
          .cell(first.second)
          .cell(format_g(sa.median))
          .cell(format_g(sa.q1))
          .cell(format_g(sa.q3))
          .cell(format_g(sb.median))
          .cell(format_g(sb.q1))
          .cell(format_g(sb.q3))
          .cell(std::to_string(wins) + "/" + std::to_string(pairs))
          .cell(verdict);
    }
  }
  table.print(std::cout);
  return regressions > 0 ? 1 : 0;
}

}  // namespace msamp::perfbench
