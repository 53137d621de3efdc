#include "cluster/sweep.h"

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <stdexcept>

#include "fleet/fleet_runner.h"
#include "fleet/spill_sink.h"
#include "util/stats.h"

namespace msamp::cluster {

namespace {

namespace fs = std::filesystem;

/// Shortest decimal spelling of a parameter value ("0.25", "1", "4"), so
/// cell names are stable and readable.
std::string trim_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

fleet::FleetConfig cell_config(const fleet::FleetConfig& base,
                               net::BufferPolicy policy) {
  fleet::FleetConfig cfg = base;
  cfg.buffer.policy = policy;
  return cfg;
}

}  // namespace

std::vector<SweepCell> expand_grid(const SweepConfig& config) {
  std::vector<SweepCell> cells;
  for (const net::BufferPolicy policy : config.policies) {
    switch (policy) {
      case net::BufferPolicy::kDynamicThreshold:
        for (const double alpha : config.alphas) {
          SweepCell cell{"dt-a" + trim_double(alpha),
                         cell_config(config.base, policy)};
          cell.config.buffer.alpha = alpha;
          cells.push_back(std::move(cell));
        }
        break;
      case net::BufferPolicy::kStaticPartition:
        cells.push_back({"static", cell_config(config.base, policy)});
        break;
      case net::BufferPolicy::kCompleteSharing:
        cells.push_back({"complete", cell_config(config.base, policy)});
        break;
      case net::BufferPolicy::kBurstAbsorbDt:
        for (const double boost : config.boosts) {
          SweepCell cell{"burst-absorb-b" + trim_double(boost),
                         cell_config(config.base, policy)};
          cell.config.buffer.burst_alpha_boost = boost;
          cells.push_back(std::move(cell));
        }
        break;
      case net::BufferPolicy::kDelayDriven:
        for (const double target : config.target_delays_ms) {
          SweepCell cell{"delay-d" + trim_double(target),
                         cell_config(config.base, policy)};
          cell.config.buffer.delay.target_delay_ms = target;
          cells.push_back(std::move(cell));
        }
        break;
    }
  }
  return cells;
}

CellSummary summarize_cell(const std::string& name,
                           const fleet::DatasetView& view) {
  CellSummary s;
  s.name = name;
  const auto& bursts = view.bursts();
  s.bursts = static_cast<long>(bursts.size());
  for (auto c : bursts.contended) s.contended += c ? 1 : 0;
  for (auto l : bursts.lossy) s.lossy += l ? 1 : 0;
  std::vector<double> contention;
  const auto& runs = view.rack_runs();
  const double in_bytes =
      util::canonical_sum(runs.in_bytes.data(), runs.in_bytes.size());
  const double drop_bytes =
      util::canonical_sum(runs.drop_bytes.data(), runs.drop_bytes.size());
  const double ecn_bytes =
      util::canonical_sum(runs.ecn_bytes.data(), runs.ecn_bytes.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs.usable[i]) contention.push_back(runs.avg_contention[i]);
  }
  if (in_bytes > 0.0) {
    s.loss_kb_per_gb = drop_bytes / (in_bytes / 1e9) / 1e3;
    s.ecn_mb_per_gb = ecn_bytes / (in_bytes / 1e9) / 1e6;
  }
  for (const int p : kSweepPercentiles) {
    s.contention_pct.push_back(util::percentile(contention, p));
  }
  return s;
}

bool run_sweep(const SweepConfig& config, SweepResult* result,
               std::ostream* log, std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  const auto say = [&](const std::string& line) {
    if (log != nullptr) *log << "sweep: " << line << "\n" << std::flush;
  };

  const std::vector<SweepCell> cells = expand_grid(config);
  if (cells.empty()) return fail("empty sweep grid (no policies)");
  for (const SweepCell& cell : cells) {
    if (auto st = cell.config.validate(); !st) {
      return fail("cell " + cell.name + ": " + st.reason());
    }
  }

  std::error_code ec;
  fs::create_directories(config.out_dir, ec);
  if (ec) {
    return fail("cannot create " + config.out_dir + ": " + ec.message());
  }

  result->cells.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    const std::string ds_path =
        (fs::path(config.out_dir) / (cell.name + ".bin")).string();
    say("cell " + std::to_string(i + 1) + "/" +
        std::to_string(cells.size()) + " " + cell.name);

    // The cell's day goes to a v6 file at ds_path and is summarized
    // through a mapped view — the summary never materializes record
    // vectors.  The sink is inside the try: one that throws fails the
    // cell, not the process.
    try {
      fleet::SpillSink sink(cell.config, fleet::ShardSpec{}, ds_path);
      fleet::run_fleet(cell.config, fleet::ShardSpec{}, sink, nullptr);
      if (auto st = sink.finalize(); !st) {
        return fail("cell " + cell.name + ": " + st.to_string());
      }
    } catch (const std::exception& e) {
      return fail("cell " + cell.name + ": " + e.what());
    }

    fleet::DatasetView view;
    if (auto st = fleet::Dataset::open_mapped(ds_path, &view); !st) {
      return fail("cell " + cell.name + ": " + st.to_string());
    }

    CellSummary summary = summarize_cell(cell.name, view);
    summary.fingerprint = cell.config.fingerprint();
    result->cells.push_back(std::move(summary));
    view.close();
    if (!config.keep_datasets) {
      fs::remove(ds_path, ec);
    }
  }
  return true;
}

}  // namespace msamp::cluster
