// Performance microbenchmarks for the library's hot paths (google-
// benchmark): the fluid rack step, burst detection, contention series,
// SyncMillisampler combining, the flow sketch, and the compressed codec.
// These bound how fast the fleet-scale experiments regenerate and act as
// regression tripwires for the inner loops.
#include <benchmark/benchmark.h>

#include "analysis/burst_detect.h"
#include "analysis/contention.h"
#include "core/encoding.h"
#include "core/sync_controller.h"
#include "fleet/fluid_rack.h"
#include "util/rng.h"

using namespace msamp;

namespace {

workload::RackMeta bench_rack(int servers) {
  workload::RackMeta rack;
  rack.rack_id = 1;
  rack.region = workload::RegionId::kRegA;
  rack.intensity = 1.5;
  rack.server_service.assign(static_cast<std::size_t>(servers), 0);
  for (int s = 0; s < servers; ++s) {
    rack.server_kind.push_back(static_cast<workload::TaskKind>(s % 5));
  }
  return rack;
}

void BM_FluidRackWindow(benchmark::State& state) {
  const auto rack = bench_rack(92);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = 700;
  // One rack re-armed per window with a fresh seed, as each run_fleet
  // lane does: only the first arm allocates.
  fleet::FluidRack fluid;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fluid.arm(rack, cfg, 6, util::Rng(seed++));
    benchmark::DoNotOptimize(fluid.run());
  }
  state.SetItemsProcessed(state.iterations() * 92 *
                          (cfg.samples_per_run + cfg.warmup_ms));
  state.SetLabel("92 servers x 0.7s window (one fleet rack-run)");
}
BENCHMARK(BM_FluidRackWindow)->Unit(benchmark::kMillisecond);

core::SyncRun sample_sync(int servers, int samples) {
  const auto rack = bench_rack(servers);
  fleet::FleetConfig cfg;
  cfg.samples_per_run = samples;
  fleet::FluidRack fluid(rack, cfg, 6, util::Rng(3));
  return fluid.run().sync;
}

void BM_DetectBursts(benchmark::State& state) {
  const auto sync = sample_sync(92, 700);
  const analysis::BurstDetectConfig cfg;
  std::size_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::detect_bursts(sync.series[s % sync.num_servers()], cfg));
    ++s;
  }
  state.SetLabel("one 700-sample server series");
}
BENCHMARK(BM_DetectBursts);

void BM_ContentionSeries(benchmark::State& state) {
  const auto sync = sample_sync(92, 700);
  const analysis::BurstDetectConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::contention_series(sync, cfg));
  }
  state.SetLabel("92 servers x 700 samples");
}
BENCHMARK(BM_ContentionSeries)->Unit(benchmark::kMicrosecond);

void BM_CombineRuns(benchmark::State& state) {
  // 92 records that hold one fluid rack window's series, every counter
  // as the window measured it, restarted at sub-ms skewed starts so that
  // the grid falls between buckets.
  const core::SyncRun window = sample_sync(92, 700);
  std::vector<core::RunRecord> records;
  util::Rng rng(4);
  for (std::size_t s = 0; s < window.num_servers(); ++s) {
    core::RunRecord r;
    r.host = static_cast<net::HostId>(s);
    r.start = static_cast<sim::SimTime>(rng.uniform_int(900)) *
              sim::kMicrosecond;
    r.interval = sim::kMillisecond;
    r.buckets = window.series[s];
    records.push_back(std::move(r));
  }
  // The reusing overload: the SyncRun keeps its storage from one
  // iteration to the next, so this times the trim and the alignment.
  core::SyncRun sync;
  for (auto _ : state) {
    core::combine_runs(records, sync);
    benchmark::DoNotOptimize(sync.series.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("92 runs aligned + trimmed");
}
BENCHMARK(BM_CombineRuns)->Unit(benchmark::kMicrosecond);

void BM_FlowSketchAdd(benchmark::State& state) {
  core::FlowSketch sketch;
  std::uint64_t flow = 1;
  for (auto _ : state) {
    sketch.add(flow++);
    benchmark::DoNotOptimize(sketch);
  }
}
BENCHMARK(BM_FlowSketchAdd);

void BM_CompressRun(benchmark::State& state) {
  core::RunRecord r;
  r.host = 1;
  r.start = 0;
  r.interval = sim::kMillisecond;
  r.buckets.resize(2000);
  util::Rng rng(5);
  for (auto& b : r.buckets) {
    if (rng.bernoulli(0.15)) {
      b.in_bytes = static_cast<std::int64_t>(rng.uniform_int(1 << 21));
      b.connections = rng.uniform(0, 100);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compress_run(r));
  }
  state.SetLabel("2000-bucket run, 15% occupancy");
}
BENCHMARK(BM_CompressRun)->Unit(benchmark::kMicrosecond);

void BM_DecompressRun(benchmark::State& state) {
  core::RunRecord r;
  r.host = 1;
  r.start = 0;
  r.interval = sim::kMillisecond;
  r.buckets.resize(2000);
  util::Rng rng(6);
  for (auto& b : r.buckets) {
    if (rng.bernoulli(0.15)) b.in_bytes = 12345;
  }
  const auto blob = core::compress_run(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decompress_run(blob));
  }
}
BENCHMARK(BM_DecompressRun)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
