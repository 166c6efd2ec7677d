#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "src/core/generalized.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/naive.h"
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

// A planner that records how often the manager actually runs it.
class CountingPlanner : public Planner {
 public:
  explicit CountingPlanner(
      std::unique_ptr<Planner> inner = std::make_unique<GreedyPlanner>())
      : inner_(std::move(inner)) {}
  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override {
    ++calls;
    return inner_->Plan(ctx, samples, request);
  }
  std::string name() const override { return "counting"; }

  int calls = 0;

 private:
  std::unique_ptr<Planner> inner_;
};

TEST(PlanManagerTest, ReplanPlansOnlyWhenACandidateCouldInstall) {
  World w(66, 30);
  Rng rng(67);
  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(30, 5, /*window=*/10);
  for (int s = 0; s < 10; ++s) samples.Add(w.field.Sample(&rng));
  net::NetworkSimulator sim(&w.topo, w.ctx.energy);
  CountingPlanner planner;
  // A budget rich enough to select every node that contributed.
  PlanManager manager(&planner, PlanRequest{5, 1000.0});

  auto first = manager.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  ASSERT_EQ(SampleHits(manager.plan(), w.topo, samples), samples.total_ones())
      << "the installed plan must saturate the window";
  const double predicted = manager.predicted_recall();

  // No plan can score above the window's 1-entries, so a saturated window
  // leaves nothing to beat: the manager does not plan.
  for (int i = 0; i < 3; ++i) {
    auto again = manager.MaybeReplan(w.ctx, samples, &sim);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
  }
  EXPECT_EQ(planner.calls, 1);
  EXPECT_EQ(manager.disseminations(), 1);
  EXPECT_EQ(manager.predicted_recall(), predicted);

  // The hot region moves: the installed plan falls below the ceiling, so
  // the manager plans, and the new plan installs.
  data::GaussianField shifted = w.field;
  for (int i = 1; i < 30; ++i) {
    shifted.set_node(i, i % 7 == 0 ? 90.0 : 30.0, 1.0);
  }
  for (int s = 0; s < 10; ++s) samples.Add(shifted.Sample(&rng));
  ASSERT_LT(SampleHits(manager.plan(), w.topo, samples), samples.total_ones());
  auto moved = manager.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(*moved);
  EXPECT_EQ(planner.calls, 2);
  EXPECT_EQ(manager.disseminations(), 2);

  // After InvalidatePlan (a heal) the next call plans and installs, even
  // on a window the dropped plan saturated.
  manager.InvalidatePlan();
  auto reinstalled = manager.MaybeReplan(w.ctx, samples, &sim);
  ASSERT_TRUE(reinstalled.ok());
  EXPECT_TRUE(*reinstalled);
  EXPECT_EQ(planner.calls, 3);
  EXPECT_EQ(manager.disseminations(), 3);
}

std::unique_ptr<Planner> MakePlanner(int which) {
  switch (which) {
    case 0:
      return std::make_unique<GreedyPlanner>();
    case 1:
      return std::make_unique<LpNoFilterPlanner>();
    default:
      return std::make_unique<LpFilterPlanner>();
  }
}

// The hit ceiling never changes what installs. On seeded trees, windows
// and budgets, an oracle plans every window; the manager must install
// exactly the plans that "plan, then install only on a margin" installs
// from the oracle's candidates, and skip only calls whose candidate that
// rule rejects.
TEST(PlanManagerTest, CeilingSkipsOnlyReplansThatCouldNotInstall) {
  const double threshold = PlanManagerOptions{}.improvement_threshold;
  int skipped = 0;
  int planned = 0;
  for (int which = 0; which < 3; ++which) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(100 * static_cast<uint64_t>(which) + seed);
      const int n = static_cast<int>(rng.UniformInt(30, 60));
      const int k = static_cast<int>(rng.UniformInt(2, 6));
      const int window = static_cast<int>(rng.UniformInt(8, 16));
      net::GeometricNetworkOptions geo;
      geo.num_nodes = n;
      geo.radio_range = 28.0;
      const net::Topology topo =
          net::BuildConnectedGeometricNetwork(geo, &rng).value();
      PlannerContext ctx;
      ctx.topology = &topo;
      net::NetworkSimulator sim(&topo, ctx.energy);
      // Tight to rich: a fraction of shipping top-k from every subtree.
      const double naive_cost =
          ExpectedCollectionCost(MakeNaiveKPlan(topo, k), sim);
      const double budget =
          naive_cost * std::array{0.2, 0.5, 1.0, 2.0}[seed % 4];
      SCOPED_TRACE("planner " + std::to_string(which) + " seed " +
                   std::to_string(seed) + " n " + std::to_string(n) +
                   " k " + std::to_string(k) + " window " +
                   std::to_string(window) + " budget " +
                   std::to_string(budget));

      data::GaussianField field =
          data::GaussianField::Random(n, 40, 60, 1, 9, &rng);
      sampling::SampleSet samples =
          sampling::SampleSet::ForTopK(n, k, static_cast<size_t>(window));
      for (int s = 0; s < window; ++s) samples.Add(field.Sample(&rng));

      CountingPlanner counting(MakePlanner(which));
      PlanManager manager(&counting, PlanRequest{k, budget});
      std::unique_ptr<Planner> oracle = MakePlanner(which);
      std::optional<QueryPlan> expected;  // what always planning installs
      for (int epoch = 0; epoch < 12; ++epoch) {
        if (epoch == 6) {  // the hot region moves mid-stream
          for (int i = 0; i < n; ++i) {
            if (i != topo.root() && rng.Bernoulli(0.3)) {
              field.set_node(i, rng.Uniform(60, 80), 1.0);
            }
          }
        }
        if (epoch > 0) samples.Add(field.Sample(&rng));

        auto candidate = oracle->Plan(ctx, samples, PlanRequest{k, budget});
        ASSERT_TRUE(candidate.ok()) << candidate.status().ToString();
        const int oracle_hits = SampleHits(*candidate, topo, samples);
        ASSERT_LE(oracle_hits, samples.total_ones());
        const bool installs =
            !expected.has_value() ||
            oracle_hits > SampleHits(*expected, topo, samples) *
                              (1.0 + threshold);
        if (installs) expected = *candidate;

        const int calls_before = counting.calls;
        auto changed = manager.MaybeReplan(ctx, samples, &sim);
        ASSERT_TRUE(changed.ok()) << changed.status().ToString();
        EXPECT_EQ(*changed, installs) << "epoch " << epoch;
        if (counting.calls == calls_before) {
          ++skipped;
          EXPECT_FALSE(installs) << "epoch " << epoch
                                 << ": skipped a replan that installs";
        } else {
          ++planned;
        }
        ASSERT_TRUE(manager.has_plan());
        EXPECT_EQ(manager.plan(), *expected) << "epoch " << epoch;
      }
    }
  }
  // Both sides of the property were exercised.
  EXPECT_GT(skipped, 0);
  EXPECT_GT(planned, 24);  // more than the first plans
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
