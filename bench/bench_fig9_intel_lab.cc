// Figure 9 reproduction: the Intel Berkeley Research Lab experiment, run
// on our synthetic lab trace (see DESIGN.md for the substitution): 54
// motes, shortened radio range forcing a hierarchical tree, temperature
// readings with persistently warm spots, ~3% missing readings imputed by
// prior/next-epoch averaging. The first 50 epochs serve as samples; the
// queries run on the following epochs with k=5.
//
// Expected shape: LP-LF beats Greedy until both saturate near 100%;
// LP+LF is nearly identical to LP-LF (top-k locations are predictable, so
// local filtering adds nothing); NAIVE-k needs several times more energy.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/naive.h"
#include "src/data/lab_trace.h"

namespace prospector {
namespace {

constexpr int kTop = 5;
constexpr int kSampleEpochs = 50;

void Run() {
  const int query_epochs = bench::QueryEpochs(100);
  data::LabTraceOptions opts;
  opts.num_epochs = kSampleEpochs + query_epochs;
  Rng rng(91);
  auto built = data::BuildLabScenario(opts, &rng);
  if (!built.ok()) {
    std::fprintf(stderr, "lab scenario: %s\n", built.status().ToString().c_str());
    return;
  }
  data::LabScenario& lab = built.value();
  lab.trace.ImputeMissing();
  const net::Topology& topo = lab.topology;
  const int n = topo.num_nodes();

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, kTop);
  const Status loaded = samples.AddTrace(lab.trace.Slice(0, kSampleEpochs));
  if (!loaded.ok()) {
    std::fprintf(stderr, "samples: %s\n", loaded.ToString().c_str());
    return;
  }

  core::PlannerContext ctx;
  ctx.topology = &topo;

  std::printf("Figure 9: Intel-Lab-style trace (54 motes, tree height %d, "
              "k=%d, %d sample epochs)\n",
              topo.height(), kTop, kSampleEpochs);
  bench::BenchJson json("fig9_intel_lab");
  json.Meta("nodes", n)
      .Meta("k", kTop)
      .Meta("sample_epochs", kSampleEpochs)
      .Meta("query_epochs", query_epochs);

  // Queries replay the trace after the sample window.
  auto evaluate = [&](const core::QueryPlan& plan) {
    net::NetworkSimulator sim(&topo, ctx.energy);
    RunningStats acc, joule;
    for (int t = kSampleEpochs; t < lab.trace.num_epochs(); ++t) {
      const std::vector<double>& truth = lab.trace.epoch(t);
      auto r = core::CollectionExecutor::Execute(plan, truth, &sim);
      acc.Add(core::TopKRecall(r, truth, kTop));
      joule.Add(r.total_energy_mj());
      sim.ResetStats();
    }
    return std::pair<double, double>(joule.mean(), acc.mean());
  };

  core::GreedyPlanner greedy;
  core::LpNoFilterPlanner lp_no_lf;
  core::LpFilterPlanner lp_lf;
  core::Planner* planners[] = {&greedy, &lp_no_lf, &lp_lf};
  for (core::Planner* p : planners) {
    bench::TableHeader(&json, p->name(),
                       {"budget_mJ", "energy_mJ", "accuracy_pct"});
    for (double b : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 9.0}) {
      core::PlanRequest req;
      req.k = kTop;
      req.energy_budget_mj = b;
      auto plan = p->Plan(ctx, samples, req);
      if (!plan.ok()) {
        std::fprintf(stderr, "# %s @ %.1f: %s\n", p->name().c_str(), b,
                     plan.status().ToString().c_str());
        continue;
      }
      auto [joule, acc] = evaluate(*plan);
      bench::TableRow(&json, {b, joule, 100.0 * acc});
    }
  }

  // NAIVE-k reference cost at full accuracy.
  auto [nk_joule, nk_acc] = evaluate(core::MakeNaiveKPlan(topo, kTop));
  json.Meta("naive_k_mj", nk_joule).Meta("naive_k_accuracy", nk_acc);
  json.Write();
  std::printf("\nNaive-k: %.3f mJ at %.1f%% accuracy (the approximate plans "
              "above should reach ~100%% for roughly a third of that)\n",
              nk_joule, 100.0 * nk_acc);
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
