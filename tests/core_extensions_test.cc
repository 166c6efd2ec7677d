#include <gtest/gtest.h>

#include <string>

#include "src/core/generalized.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/plan_manager.h"
#include "src/data/gaussian_field.h"
#include "src/net/simulator.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

struct World {
  net::Topology topo;
  data::GaussianField field;
  PlannerContext ctx;

  explicit World(uint64_t seed, int n = 40) {
    Rng rng(seed);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = n;
    geo.radio_range = 28.0;
    topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
    field = data::GaussianField::Random(n, 40, 60, 1, 9, &rng);
    ctx.topology = &topo;
  }
};

// ---- PlanManager ----

TEST(PlanManagerTest, FirstReplanAlwaysDisseminates) {
  World w(1);
  Rng rng(2);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  EXPECT_FALSE(mgr.has_plan());
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  auto changed = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  EXPECT_TRUE(mgr.has_plan());
  EXPECT_GT(sim.stats().total_energy_mj, 0.0) << "install must be charged";
  EXPECT_EQ(mgr.disseminations(), 1);
}

TEST(PlanManagerTest, StableSamplesDoNotRedisseminate) {
  World w(3);
  Rng rng(4);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  ASSERT_TRUE(mgr.MaybeReplan(w.ctx, samples, &sim).ok());
  // Same samples: the recomputed plan cannot beat the installed one.
  auto again = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(mgr.disseminations(), 1);
}

TEST(PlanManagerTest, DistributionShiftTriggersRedissemination) {
  World w(5);
  Rng rng(6);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(40, 5,
                                                             /*window=*/10);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  GreedyPlanner planner;
  PlanManager mgr(&planner, PlanRequest{5, 10.0});
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  ASSERT_TRUE(mgr.MaybeReplan(w.ctx, samples, &sim).ok());

  // The hot region moves: a different set of nodes now dominates.
  data::GaussianField shifted = w.field;
  for (int i = 1; i < 40; ++i) {
    shifted.set_node(i, i % 7 == 0 ? 90.0 : 30.0, 1.0);
  }
  for (int s = 0; s < 10; ++s) samples.Add(shifted.Sample(&rng));
  auto changed = mgr.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(mgr.disseminations(), 2);
}

TEST(PlanManagerTest, AccuracyObservationControlsExploreRate) {
  GreedyPlanner planner;
  PlanManagerOptions opts;
  opts.min_accuracy = 0.9;
  opts.base_explore_probability = 0.02;
  opts.boosted_explore_probability = 0.25;
  PlanManager mgr(&planner, PlanRequest{5, 10.0}, opts);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.02);
  mgr.ObserveAccuracy(0.6);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.25);
  mgr.ObserveAccuracy(0.95);
  EXPECT_DOUBLE_EQ(mgr.explore_probability(), 0.02);
}

// A planner that records how often it actually runs.
class CountingPlanner : public Planner {
 public:
  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override {
    ++calls;
    return inner.Plan(ctx, samples, request);
  }
  std::string name() const override { return "counting"; }

  GreedyPlanner inner;
  int calls = 0;
};

TEST(PlanManagerTest, EveryReplanPlans) {
  World w(66, 30);
  Rng rng(67);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(30, 5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  CountingPlanner planner;
  PlanManager manager(&planner, PlanRequest{5, 8.0});

  auto first = manager.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  // An unchanged window replans and, planners being deterministic,
  // rejects the identical candidate.
  for (int i = 0; i < 3; ++i) {
    auto again = manager.MaybeReplan(w.ctx, samples, &sim);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
  }
  EXPECT_EQ(planner.calls, 4);
  EXPECT_EQ(manager.disseminations(), 1);

  // After InvalidatePlan (a heal) the next call installs again.
  manager.InvalidatePlan();
  auto reinstalled = manager.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(reinstalled.ok());
  EXPECT_TRUE(*reinstalled);
  EXPECT_EQ(planner.calls, 5);
}

// ---- Generalized subset queries ----

TEST(GeneralizedTest, SubsetBandwidthCapTracksLargestAnswer) {
  sampling::SampleSet s = sampling::SampleSet::ForSelection(5, 10.0);
  s.Add({11, 12, 1, 2, 3});     // 2 contributors
  s.Add({11, 12, 13, 14, 3});   // 4 contributors
  EXPECT_EQ(SubsetBandwidthCap(s, 0), 4);
  EXPECT_EQ(SubsetBandwidthCap(s, 2), 6);
}

class SelectionQueryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionQueryPropertyTest, GenerousBudgetRecallsSelection) {
  World w(100 + GetParam());
  Rng rng(200 + GetParam());
  const double threshold = 62.0;  // selective: only upper-tail readings
  sampling::SampleSet samples =
      sampling::SampleSet::ForSelection(40, threshold);
  for (int s = 0; s < 15; ++s) samples.Add(w.field.Sample(&rng));

  LpFilterPlanner planner;
  auto plan = PlanSubsetQuery(&planner, w.ctx, samples, /*budget=*/40.0,
                              /*headroom=*/3);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Evaluate on fresh epochs.
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  RunningStats recall;
  for (int q = 0; q < 30; ++q) {
    const std::vector<double> truth = w.field.Sample(&rng);
    std::vector<int> contributors;
    for (int i = 0; i < 40; ++i) {
      if (truth[i] > threshold) contributors.push_back(i);
    }
    auto r = CollectionExecutor::Execute(*plan, truth, &sim);
    recall.Add(SubsetRecall(r, contributors, 40));
    sim.ResetStats();
  }
  EXPECT_GT(recall.mean(), 0.55) << "generous budget should catch most of "
                                    "the selection answers";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionQueryPropertyTest,
                         ::testing::Range(1, 8));

TEST(GeneralizedTest, QuantileSamplesDriveaPlan) {
  World w(300);
  Rng rng(301);
  sampling::SampleSet samples = sampling::SampleSet::ForQuantile(40, 0.5);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  EXPECT_EQ(SubsetBandwidthCap(samples, 0), 1);
  LpFilterPlanner planner;
  auto plan = PlanSubsetQuery(&planner, w.ctx, samples, 10.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->CountVisitedNodes(w.topo), 1);
}

TEST(GeneralizedTest, SubsetRecallEdgeCases) {
  ExecutionResult r;
  r.arrived = {{2, 5.0}};
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {}, 5), 1.0);  // empty answer: trivially ok
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {2}, 5), 1.0);
  EXPECT_DOUBLE_EQ(SubsetRecall(r, {1, 2}, 5), 0.5);
}

}  // namespace
}  // namespace core
}  // namespace prospector
