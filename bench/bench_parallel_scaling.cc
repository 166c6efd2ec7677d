// Plan-sweep scaling: wall-clock time of an 8-budget LP-LF sweep
// (core::PlanSweep) on a 400-node / 200-sample deployment at 1/2/4/8
// threads. PlanSweep is where planning fans out across a pool: each
// request plans serially with its own planner, and requests run
// concurrently.
//
// Two guarantees are exercised here, not just measured:
//   * every thread count produces bit-identical plans to the
//     single-threaded sweep (the process aborts otherwise), and
//   * the speedup column in BENCH_parallel_scaling.json records how much
//     wall time the pool actually buys on this machine.
//
// Emits BENCH_parallel_scaling.json in the current working directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_manager.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace {

constexpr int kNodes = 400;
constexpr int kTop = 20;
constexpr int kSamples = 200;
constexpr int kRepeats = 3;  // best-of to damp scheduler noise

struct Instance {
  net::Topology topology;
  sampling::SampleSet samples;
  core::PlannerContext ctx;
};

Instance MakeInstance() {
  Rng rng(20060606);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = kNodes;
  geo.width = 200.0;
  geo.height = 200.0;
  geo.radio_range = 25.0;
  Instance inst{net::BuildConnectedGeometricNetwork(geo, &rng).value(),
                sampling::SampleSet::ForTopK(kNodes, kTop),
                core::PlannerContext{}};
  data::GaussianField field =
      data::GaussianField::Random(kNodes, 40.0, 60.0, 1.0, 16.0, &rng);
  for (int s = 0; s < kSamples; ++s) inst.samples.Add(field.Sample(&rng));
  inst.ctx.topology = &inst.topology;
  return inst;
}

// The timed unit of work: one 8-budget LP-LF sweep on `pool` (serial when
// null).
std::vector<core::QueryPlan> RunSweep(const Instance& inst,
                                      util::ThreadPool* pool) {
  std::vector<core::PlanRequest> requests;
  for (double b : {8.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0, 48.0}) {
    core::PlanRequest r;
    r.k = kTop;
    r.energy_budget_mj = b;
    requests.push_back(r);
  }
  core::PlannerFactory factory = [] {
    return std::make_unique<core::LpNoFilterPlanner>();
  };
  std::vector<core::QueryPlan> plans;
  for (auto& r :
       core::PlanSweep(factory, inst.ctx, inst.samples, requests, pool)) {
    if (!r.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n", r.status().ToString().c_str());
      std::abort();
    }
    plans.push_back(std::move(*r));
  }
  return plans;
}

void CheckIdentical(const std::vector<core::QueryPlan>& base,
                    const std::vector<core::QueryPlan>& got, int threads) {
  if (base != got) {
    std::fprintf(stderr,
                 "FATAL: %d-thread sweep differs from single-threaded\n",
                 threads);
    std::abort();
  }
}

void Run() {
  const Instance inst = MakeInstance();
  std::printf("Plan-sweep scaling: n=%d, k=%d, S=%d (hardware threads: %d)\n",
              kNodes, kTop, kSamples, util::ThreadPool::HardwareThreads());
  std::printf("%10s%14s%12s%12s\n", "threads", "best_ms", "speedup", "eff_pct");

  struct Row {
    int threads;
    double best_ms;
    double speedup;
  };
  std::vector<Row> rows;
  std::vector<core::QueryPlan> baseline;

  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    double best_ms = 0.0;
    std::vector<core::QueryPlan> result;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      result = RunSweep(inst, pool.get());
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) {
      baseline = result;
    } else {
      CheckIdentical(baseline, result, threads);
    }
    const double speedup = rows.empty() ? 1.0 : rows[0].best_ms / best_ms;
    rows.push_back({threads, best_ms, speedup});
    std::printf("%10d%14.1f%12.2f%12.1f\n", threads, best_ms, speedup,
                100.0 * speedup / threads);
  }

  // On a single-core host every extra thread is pure oversubscription:
  // speedup < 1 is the expected shape, not a regression. Say so out loud
  // and stamp the artifact, so a bench_diff against a multi-core run (or a
  // human reading the table) doesn't misread the column.
  const int hardware = util::ThreadPool::HardwareThreads();
  const bool single_core = hardware <= 1;
  if (single_core) {
    std::printf(
        "NOTE: host has 1 hardware thread; speedup < 1 above reflects "
        "oversubscription overhead, not a planner regression\n");
  }

  bench::BenchJson json("parallel_scaling");
  json.Meta("nodes", kNodes)
      .Meta("k", kTop)
      .Meta("samples", kSamples)
      .Meta("repeats", kRepeats)
      .Meta("bit_identical", 1)
      .HostFact("hardware_concurrency", hardware)
      .HostFact("speedup_below_one_expected", single_core ? 1 : 0)
      .Columns({"threads", "best_ms", "speedup"})
      .WallClock({"best_ms", "speedup"});
  for (const Row& r : rows) {
    json.Row({double(r.threads), r.best_ms, r.speedup});
  }
  json.Write();
  std::printf("(all thread counts bit-identical to serial)\n");
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
