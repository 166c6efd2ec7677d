// End-to-end shape checks: miniature versions of the paper's headline
// results, asserted rather than plotted. These complement the per-module
// tests by exercising full planner -> executor -> metric pipelines.

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "src/core/executor.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/naive.h"
#include "src/core/oracle.h"
#include "src/data/contention.h"
#include "src/data/gaussian_field.h"
#include "src/data/lab_trace.h"
#include "src/net/simulator.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

// Average recall of a plan over fresh epochs.
double AverageRecall(const QueryPlan& plan, const net::Topology& topo,
                     const std::function<std::vector<double>(Rng*)>& draw,
                     int k, int epochs, uint64_t seed) {
  Rng rng(seed);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  double recall = 0.0;
  for (int q = 0; q < epochs; ++q) {
    const std::vector<double> truth = draw(&rng);
    auto r = CollectionExecutor::Execute(plan, truth, &sim);
    recall += TopKRecall(r, truth, k);
    sim.ResetStats();
  }
  return recall / epochs;
}

TEST(IntegrationTest, Figure3ShapeApproximateBeatsExactOnEnergy) {
  // At ~90% accuracy, approximate plans must cost several times less than
  // NAIVE-k; the oracle bounds everything from below.
  Rng rng(1);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 70;
  geo.radio_range = 24.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(70, 40, 60, 1, 16, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(70, 8);
  for (int s = 0; s < 20; ++s) samples.Add(field.Sample(&rng));
  PlannerContext ctx;
  ctx.topology = &topo;
  net::NetworkSimulator sim(&topo, ctx.energy);
  auto draw = [&field](Rng* r) { return field.Sample(r); };

  LpFilterPlanner planner;
  auto plan = planner.Plan(ctx, samples, PlanRequest{8, 14.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(AverageRecall(*plan, topo, draw, 8, 30, 2), 0.85);

  const double approx_cost = ExpectedCollectionCost(*plan, sim);
  const double naive_cost =
      ExpectedCollectionCost(MakeNaiveKPlan(topo, 8), sim);
  EXPECT_GT(naive_cost, 1.7 * approx_cost);

  const std::vector<double> truth = field.Sample(&rng);
  const double oracle_cost =
      ExpectedCollectionCost(MakeOraclePlan(topo, truth, 8), sim);
  EXPECT_LT(oracle_cost, approx_cost);
}

TEST(IntegrationTest, Figure5ShapeLocalFilteringWinsUnderContention) {
  data::ContentionZoneOptions opts;
  opts.num_zones = 6;
  opts.nodes_per_zone = 8;
  opts.num_background = 36;
  Rng rng(3);
  auto scenario = data::BuildContentionScenario(opts, &rng).value();
  const net::Topology& topo = scenario.topology;
  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), 8);
  for (int s = 0; s < 20; ++s) samples.Add(scenario.field.Sample(&rng));
  PlannerContext ctx;
  ctx.topology = &topo;
  auto draw = [&scenario](Rng* r) { return scenario.field.Sample(r); };

  LpFilterPlanner with;
  LpNoFilterPlanner without;
  auto with_plan = with.Plan(ctx, samples, PlanRequest{8, 12.0});
  auto without_plan = without.Plan(ctx, samples, PlanRequest{8, 12.0});
  ASSERT_TRUE(with_plan.ok());
  ASSERT_TRUE(without_plan.ok());
  const double with_recall = AverageRecall(*with_plan, topo, draw, 8, 40, 4);
  const double without_recall =
      AverageRecall(*without_plan, topo, draw, 8, 40, 4);
  EXPECT_GT(with_recall, without_recall + 0.03)
      << "LP+LF must clearly beat LP-LF on contention zones";
}

TEST(IntegrationTest, Figure9ShapeLabDataTopologyMattersFilteringDoesNot) {
  data::LabTraceOptions opts;
  opts.num_epochs = 120;
  opts.radio_range = 7.0;
  Rng rng(5);
  auto lab = data::BuildLabScenario(opts, &rng).value();
  lab.trace.ImputeMissing();
  const net::Topology& topo = lab.topology;
  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), 5);
  ASSERT_TRUE(samples.AddTrace(lab.trace.Slice(0, 40)).ok());
  PlannerContext ctx;
  ctx.topology = &topo;

  auto eval = [&](Planner* p, double budget) {
    auto plan = p->Plan(ctx, samples, PlanRequest{5, budget});
    EXPECT_TRUE(plan.ok());
    net::NetworkSimulator sim(&topo, ctx.energy);
    double recall = 0.0;
    int n = 0;
    for (int t = 40; t < lab.trace.num_epochs(); ++t) {
      auto r = CollectionExecutor::Execute(plan.value(), lab.trace.epoch(t),
                                           &sim);
      recall += TopKRecall(r, lab.trace.epoch(t), 5);
      ++n;
      sim.ResetStats();
    }
    return recall / n;
  };

  GreedyPlanner greedy;
  LpNoFilterPlanner lp_no_lf;
  LpFilterPlanner lp_lf;
  const double budget = 3.0;
  const double greedy_recall = eval(&greedy, budget);
  const double lp_recall = eval(&lp_no_lf, budget);
  const double lp_lf_recall = eval(&lp_lf, budget);
  // Topology-awareness helps at tight budgets; filtering adds ~nothing on
  // this predictable workload.
  EXPECT_GE(lp_recall, greedy_recall);
  EXPECT_NEAR(lp_lf_recall, lp_recall, 0.25);
}

TEST(IntegrationTest, ExactPipelineUnconditionallyExactUnderBadSamples) {
  // Feed the exact pipeline *misleading* samples (drawn from a different
  // distribution than the queries): accuracy of the knowledge must not
  // affect correctness, only cost (Section 4.3).
  Rng rng(7);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 30;
  geo.radio_range = 30.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField lying =
      data::GaussianField::Random(30, 80, 90, 1, 4, &rng);
  data::GaussianField actual =
      data::GaussianField::Random(30, 40, 60, 1, 16, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(30, 5);
  for (int s = 0; s < 8; ++s) samples.Add(lying.Sample(&rng));

  PlannerContext ctx;
  ctx.topology = &topo;
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> truth = actual.Sample(&rng);
    net::NetworkSimulator sim(&topo, ctx.energy);
    auto exact = RunProspectorExact(ctx, samples, 5,
                                    ProofPlanner::MinimumCost(ctx) * 1.2,
                                    truth, &sim);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(exact->answer, TrueTopK(truth, 5));
  }
}

TEST(IntegrationTest, FailureInjectedExecutionStillDeliversPlannedValues) {
  // Transient failures change cost (re-routing), never the delivered data
  // under the reliable protocol.
  Rng rng(9);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 40;
  geo.radio_range = 26.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(40, 40, 60, 1, 9, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 10; ++s) samples.Add(field.Sample(&rng));
  PlannerContext ctx;
  ctx.topology = &topo;
  LpFilterPlanner planner;
  auto plan = planner.Plan(ctx, samples, PlanRequest{5, 10.0});
  ASSERT_TRUE(plan.ok());

  net::FailureModel f;
  f.edge_failure_prob.assign(40, 0.3);
  const std::vector<double> truth = field.Sample(&rng);
  net::NetworkSimulator clean(&topo, ctx.energy);
  net::NetworkSimulator failing(&topo, ctx.energy, f, 99);
  auto clean_run = CollectionExecutor::Execute(*plan, truth, &clean);
  auto failing_run = CollectionExecutor::Execute(*plan, truth, &failing);
  EXPECT_EQ(clean_run.answer, failing_run.answer);
  EXPECT_GT(failing.stats().total_energy_mj, clean.stats().total_energy_mj);
  EXPECT_GT(failing.stats().reroutes, 0);
}

}  // namespace
}  // namespace core
}  // namespace prospector
