// Long-running building monitoring, modeled on the Intel Lab deployment:
// 54 motes report temperature; the operator keeps a standing "5 hottest
// spots" query alive for days. This example exercises the full life cycle:
//   * bootstrap samples from the trace (with missing-value imputation),
//   * adaptive re-planning via PlanManager when conditions drift,
//   * periodic PROSPECTOR Proof runs that measure true accuracy without
//     trusting the model (Section 4.4's re-sampling policy),
//   * PROSPECTOR Exact when the operator demands a guaranteed answer.
//
// Build & run:  ./build/examples/lab_monitoring

#include <cstdio>

#include "src/core/exact.h"
#include "src/core/executor.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_manager.h"
#include "src/data/lab_trace.h"
#include "src/net/simulator.h"
#include "src/sampling/collector.h"
#include "src/sampling/sample_set.h"

using namespace prospector;

int main() {
  constexpr int kTop = 5;
  constexpr int kBootstrapEpochs = 40;
  constexpr int kRunEpochs = 160;

  data::LabTraceOptions lab_opts;
  lab_opts.num_epochs = kBootstrapEpochs + kRunEpochs;
  lab_opts.radio_range = 7.0;  // this placement seed needs a little margin
  Rng rng(12);
  auto lab_or = data::BuildLabScenario(lab_opts, &rng);
  if (!lab_or.ok()) {
    std::fprintf(stderr, "%s\n", lab_or.status().ToString().c_str());
    return 1;
  }
  data::LabScenario& lab = lab_or.value();
  const int missing = lab.trace.CountMissing();
  lab.trace.ImputeMissing();
  const net::Topology& topo = lab.topology;
  std::printf("lab: %d motes, tree height %d, %d missing readings imputed\n",
              topo.num_nodes(), topo.height(), missing);

  core::PlannerContext ctx;
  ctx.topology = &topo;
  net::NetworkSimulator sim(&topo, ctx.energy);

  // Bootstrap the sample window from the first epochs.
  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), kTop, /*window=*/40);
  const Status loaded = samples.AddTrace(lab.trace.Slice(0, kBootstrapEpochs));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }

  core::LpNoFilterPlanner planner;  // lab top-k is predictable: LP-LF suffices
  core::PlanManager manager(&planner, core::PlanRequest{kTop, 4.5});
  sampling::SampleCollector collector;

  double query_energy = 0.0, sampling_energy = 0.0, recall_sum = 0.0;
  int queries = 0;
  Rng policy_rng(13);
  for (int t = kBootstrapEpochs; t < lab.trace.num_epochs(); ++t) {
    const std::vector<double>& truth = lab.trace.epoch(t);

    // Exploration step? (rate adapts to observed accuracy)
    if (collector.ShouldExplore(&policy_rng) ||
        policy_rng.Bernoulli(manager.explore_probability())) {
      sampling_energy += collector.CollectSample(truth, &sim, &samples);
      sim.ResetStats();
      auto changed = manager.MaybeReplan(ctx, samples, &sim);
      if (changed.ok() && *changed) {
        std::printf("epoch %3d: new plan disseminated (visits %d motes)\n", t,
                    manager.plan().CountVisitedNodes(topo));
      }
      sim.ResetStats();
      continue;
    }
    if (!manager.has_plan()) {
      (void)*manager.MaybeReplan(ctx, samples, &sim);
      sim.ResetStats();
    }

    auto r = core::CollectionExecutor::Execute(manager.plan(), truth, &sim);
    recall_sum += core::TopKRecall(r, truth, kTop);
    query_energy += r.total_energy_mj();
    ++queries;
    sim.ResetStats();

    // Every 50 epochs, audit accuracy with a proof-backed exact query.
    if (t % 50 == 0) {
      auto exact = core::RunProspectorExact(
          ctx, samples, kTop,
          core::ProofPlanner::MinimumCost(ctx) * 1.15, truth, &sim);
      if (exact.ok()) {
        const double observed =
            static_cast<double>(exact->phase1_proven) / kTop;
        manager.ObserveAccuracy(observed);
        std::printf("epoch %3d: audit proved %d/%d up front "
                    "(%.1f + %.1f mJ); explore rate now %.2f\n",
                    t, exact->phase1_proven, kTop, exact->phase1_energy_mj,
                    exact->phase2_energy_mj, manager.explore_probability());
      }
      sim.ResetStats();
    }
  }

  std::printf("\n%d standing queries: %.1f%% avg recall, %.2f mJ/query;\n"
              "sampling overhead %.1f mJ total, %d dissemination(s)\n",
              queries, 100.0 * recall_sum / queries, query_energy / queries,
              sampling_energy, manager.disseminations());
  return 0;
}
