// Incremental replanning: per-epoch planning cost with and without a
// shared core::PlanningWorkspace on the Figure-3 deployment (n=100,
// k=10, geometric network). Each query epoch slides the sample window by
// one fresh reading and replans.
//
// Two modes per planner:
//   * cold      — no workspace; every epoch builds and solves its LP from
//     scratch.
//   * workspace — the cached LP skeleton is delta-patched (new sample
//     blocks appended, departed ones tombstoned, budget RHS patched) and
//     solved once with SimplexSolver::Solve; topology caches are reused.
//     The process aborts if any epoch's plan differs from the cold plan.
//
// workspace_speedup = cold steady ms / workspace steady ms, per planner:
// what the skeleton and topology caches buy over rebuilding.
//
// Emits BENCH_incremental_replan.json in the current working directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/proof_planner.h"
#include "src/core/workspace.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/util/rng.h"

namespace prospector {
namespace {

constexpr int kNodes = 100;
// The proof LP grows as #samples x #nodes x tree height and is
// dense-tableau bound, so — like the Figure-8 bench — the proof planner
// runs on a smaller deployment.
constexpr int kProofNodes = 50;
constexpr int kTop = 10;
constexpr int kWindow = 16;        // sliding sample window
constexpr int kAddsPerEpoch = 1;   // fresh readings per query epoch
constexpr double kBudgetMj = 12.0;

std::unique_ptr<core::Planner> MakePlanner(int which) {
  core::LpPlannerOptions lp_opts;
  switch (which) {
    case 0:
      return std::make_unique<core::GreedyPlanner>();
    case 1:
      return std::make_unique<core::LpNoFilterPlanner>(lp_opts);
    case 2:
      return std::make_unique<core::LpFilterPlanner>(lp_opts);
    default:
      return std::make_unique<core::ProofPlanner>(lp_opts);
  }
}

bool SamePlan(const core::QueryPlan& a, const core::QueryPlan& b) {
  return a.kind == b.kind && a.k == b.k && a.bandwidth == b.bandwidth &&
         a.chosen == b.chosen;
}

/// The reading sequence every mode replays, so all modes plan against an
/// identical sample history.
struct Stream {
  std::vector<std::vector<double>> initial;             // fills the window
  std::vector<std::vector<std::vector<double>>> epochs; // per-epoch adds
};

struct ModeResult {
  std::vector<core::QueryPlan> plans;  // one per epoch
  double first_ms = 0.0;   // epoch 0: the cold build even with a workspace
  double steady_ms = 0.0;  // median over the remaining epochs
  core::WorkspaceCounters counters;
};

ModeResult RunMode(int which, const Stream& stream, const net::Topology& topo,
                   double budget, core::PlanningWorkspace* workspace) {
  core::PlannerContext ctx;
  ctx.topology = &topo;
  ctx.workspace = workspace;

  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), kTop, kWindow);
  for (const auto& r : stream.initial) samples.Add(r);

  core::PlanRequest req;
  req.k = kTop;
  req.energy_budget_mj = budget;

  std::unique_ptr<core::Planner> planner = MakePlanner(which);
  ModeResult out;
  std::vector<double> steady;
  for (size_t e = 0; e < stream.epochs.size(); ++e) {
    for (const auto& r : stream.epochs[e]) samples.Add(r);
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = planner->Plan(ctx, samples, req);
    const auto t1 = std::chrono::steady_clock::now();
    if (!plan.ok()) {
      std::fprintf(stderr, "%s failed at epoch %zu: %s\n",
                   planner->name().c_str(), e,
                   plan.status().ToString().c_str());
      std::abort();
    }
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (e == 0) {
      out.first_ms = ms;
    } else {
      steady.push_back(ms);
    }
    out.plans.push_back(std::move(*plan));
  }
  // Median, not mean: a single-core box under sporadic scheduler steal
  // produces multi-x outliers that would swamp the cold/workspace
  // comparison.
  if (steady.empty()) {
    out.steady_ms = out.first_ms;
  } else {
    std::sort(steady.begin(), steady.end());
    out.steady_ms = steady[steady.size() / 2];
  }
  if (workspace != nullptr) out.counters = workspace->counters();
  return out;
}

struct Deployment {
  net::Topology topology;
  Stream stream;
};

Deployment MakeDeployment(int num_nodes, double radio_range, int epochs,
                          Rng* rng) {
  net::GeometricNetworkOptions geo;
  geo.num_nodes = num_nodes;
  geo.radio_range = radio_range;
  Deployment d{net::BuildConnectedGeometricNetwork(geo, rng).value(), {}};
  data::GaussianField field =
      data::GaussianField::Random(num_nodes, 40.0, 60.0, 1.0, 16.0, rng);
  for (int s = 0; s < kWindow; ++s) d.stream.initial.push_back(field.Sample(rng));
  for (int e = 0; e < epochs; ++e) {
    std::vector<std::vector<double>> adds;
    for (int a = 0; a < kAddsPerEpoch; ++a) adds.push_back(field.Sample(rng));
    d.stream.epochs.push_back(std::move(adds));
  }
  return d;
}

void Run() {
  const int epochs = bench::QueryEpochs(30);
  Rng rng(20060403);
  const Deployment fig3 = MakeDeployment(kNodes, 22.0, epochs, &rng);
  const Deployment proof_net = MakeDeployment(kProofNodes, 24.0, epochs, &rng);

  // The proof planner needs its mandatory per-edge floor covered.
  core::PlannerContext floor_ctx;
  floor_ctx.topology = &proof_net.topology;
  const double proof_budget = core::ProofPlanner::MinimumCost(floor_ctx) * 1.6;

  std::printf("Incremental replanning (n=%d, k=%d, window=%d, +%d/epoch, "
              "%d epochs)\n",
              kNodes, kTop, kWindow, kAddsPerEpoch, epochs);
  std::printf(
      "steady-state ms = median plan time over epochs after the first\n");

  bench::BenchJson json("incremental_replan");
  json.Meta("nodes", kNodes)
      .Meta("proof_nodes", kProofNodes)
      .Meta("k", kTop)
      .Meta("window", kWindow)
      .Meta("adds_per_epoch", kAddsPerEpoch)
      .Meta("epochs", epochs)
      .Meta("budget_mj", kBudgetMj)
      .Meta("proof_budget_mj", proof_budget)
      .Meta("bit_identical_checked", 1);

  bench::TableHeader(&json, "steady-state replan cost (ms per plan)",
                     {"planner", "cold_first_ms", "cold_steady_ms",
                      "workspace_steady_ms", "workspace_speedup"});

  struct CounterRow {
    int which;
    core::WorkspaceCounters c;
  };
  std::vector<CounterRow> counter_rows;

  for (int which = 0; which < 4; ++which) {
    const Deployment& dep = which == 3 ? proof_net : fig3;
    const net::Topology& topo = dep.topology;
    const Stream& stream = dep.stream;
    const double budget = which == 3 ? proof_budget : kBudgetMj;
    const ModeResult cold = RunMode(which, stream, topo, budget, nullptr);
    core::PlanningWorkspace ws;
    const ModeResult cached = RunMode(which, stream, topo, budget, &ws);

    // The workspace's contract: bit-identical plans, every epoch.
    for (size_t e = 0; e < cold.plans.size(); ++e) {
      if (!SamePlan(cold.plans[e], cached.plans[e])) {
        std::fprintf(stderr,
                     "FATAL: planner %d epoch %zu: workspace plan differs "
                     "from cold plan\n",
                     which, e);
        std::abort();
      }
    }

    const double speedup =
        cached.steady_ms > 0.0 ? cold.steady_ms / cached.steady_ms : 0.0;
    std::printf("  [%d] %s\n", which, MakePlanner(which)->name().c_str());
    bench::TableRow(&json, {double(which), cold.first_ms, cold.steady_ms,
                            cached.steady_ms, speedup});
    counter_rows.push_back({which, cached.counters});
  }

  bench::TableHeader(&json, "workspace counters",
                     {"planner", "lp_hits", "lp_misses", "lp_patches",
                      "topo_hits", "topo_misses"});
  for (const CounterRow& r : counter_rows) {
    bench::TableRow(&json, {double(r.which), double(r.c.lp_hits),
                            double(r.c.lp_misses), double(r.c.lp_patches),
                            double(r.c.topo_hits), double(r.c.topo_misses)});
  }

  json.Write();
  std::printf("(workspace plans bit-identical to cold plans)\n");
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
