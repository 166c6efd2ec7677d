// Incremental replanning: per-epoch planning cost of each planner on the
// Figure-3 deployment (n=100, k=10, geometric network). Each query epoch
// slides the sample window by one fresh reading and replans: every LP is
// built and solved from the current window, plans are scored from it, and
// the per-node lists come with the tree.
//
// first_ms is epoch 0's plan time; steady_ms the median over the epochs
// after it.
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

/// The reading sequence a planner replays: the initial window, then the
/// per-epoch adds.
struct Stream {
  std::vector<std::vector<double>> initial;             // fills the window
  std::vector<std::vector<std::vector<double>>> epochs; // per-epoch adds
};

struct Timing {
  double first_ms = 0.0;   // epoch 0
  double steady_ms = 0.0;  // median over the remaining epochs
};

Timing RunPlanner(int which, const Stream& stream, const net::Topology& topo,
                  double budget) {
  core::PlannerContext ctx;
  ctx.topology = &topo;

  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), kTop, kWindow);
  for (const auto& r : stream.initial) samples.Add(r);

  core::PlanRequest req;
  req.k = kTop;
  req.energy_budget_mj = budget;

  std::unique_ptr<core::Planner> planner = MakePlanner(which);
  Timing out;
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
  }
  // Median, not mean: sporadic scheduler steal produces multi-x outliers.
  if (steady.empty()) {
    out.steady_ms = out.first_ms;
  } else {
    std::sort(steady.begin(), steady.end());
    out.steady_ms = steady[steady.size() / 2];
  }
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
      .Meta("proof_budget_mj", proof_budget);

  bench::TableHeader(&json, "replan cost (ms per plan)",
                     {"planner", "first_ms", "steady_ms"});
  json.WallClock({"first_ms", "steady_ms"});
  for (int which = 0; which < 4; ++which) {
    const Deployment& dep = which == 3 ? proof_net : fig3;
    const double budget = which == 3 ? proof_budget : kBudgetMj;
    const Timing t = RunPlanner(which, dep.stream, dep.topology, budget);
    std::printf("  [%d] %s\n", which, MakePlanner(which)->name().c_str());
    bench::TableRow(&json, {double(which), t.first_ms, t.steady_ms});
  }
  json.Write();
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
