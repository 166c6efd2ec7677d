#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "src/core/executor.h"
#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_eval.h"
#include "src/core/proof_planner.h"
#include "src/data/contention.h"
#include "src/data/gaussian_field.h"
#include "src/net/simulator.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

struct Instance {
  net::Topology topology;
  data::GaussianField field;
  sampling::SampleSet samples;
  PlannerContext ctx;
};

Instance MakeGaussianInstance(int n, int k, int num_samples, uint64_t seed) {
  Rng rng(seed);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 25.0;
  Instance inst{net::BuildConnectedGeometricNetwork(geo, &rng).value(),
                data::GaussianField(), sampling::SampleSet::ForTopK(n, k),
                PlannerContext{}};
  inst.field = data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  for (int s = 0; s < num_samples; ++s) inst.samples.Add(inst.field.Sample(&rng));
  inst.ctx.topology = &inst.topology;
  return inst;
}

double SelectionPlanCost(const QueryPlan& plan, const PlannerContext& ctx) {
  net::NetworkSimulator sim(ctx.topology, ctx.energy, ctx.failures);
  return ExpectedCollectionCost(plan, sim);
}

// ---- Greedy ----

TEST(GreedyPlannerTest, RespectsBudgetAndPrefersFrequentNodes) {
  Instance inst = MakeGaussianInstance(60, 8, 15, 7);
  GreedyPlanner planner;
  PlanRequest req{8, 10.0};
  auto plan = planner.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->kind, PlanKind::kNodeSelection);
  EXPECT_LE(SelectionPlanCost(*plan, inst.ctx), req.energy_budget_mj + 1e-9);

  // Every chosen node contributed at least once; and no unchosen node has
  // a strictly higher column sum than every chosen one (greedy order).
  const auto& colsum = inst.samples.column_sums();
  int min_chosen = 1 << 30;
  for (int i = 1; i < 60; ++i) {
    if (plan->chosen[i]) {
      EXPECT_GT(colsum[i], 0);
      min_chosen = std::min(min_chosen, colsum[i]);
    }
  }
  SUCCEED();
}

TEST(GreedyPlannerTest, ZeroBudgetChoosesNothing) {
  Instance inst = MakeGaussianInstance(30, 5, 10, 8);
  GreedyPlanner planner;
  auto plan = planner.Plan(inst.ctx, inst.samples, PlanRequest{5, 0.0});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->CountVisitedNodes(inst.topology), 1);  // root only
}

TEST(GreedyPlannerTest, HugeBudgetTakesAllContributors) {
  Instance inst = MakeGaussianInstance(30, 5, 10, 9);
  GreedyPlanner planner;
  auto plan = planner.Plan(inst.ctx, inst.samples, PlanRequest{5, 1e9});
  ASSERT_TRUE(plan.ok());
  const auto& colsum = inst.samples.column_sums();
  for (int i = 1; i < 30; ++i) {
    EXPECT_EQ(plan->chosen[i] != 0, colsum[i] > 0) << "node " << i;
  }
}

TEST(GreedyPlannerTest, RejectsMismatchedSampleSet) {
  Instance inst = MakeGaussianInstance(30, 5, 10, 10);
  sampling::SampleSet wrong = sampling::SampleSet::ForTopK(29, 5);
  GreedyPlanner planner;
  EXPECT_FALSE(planner.Plan(inst.ctx, wrong, PlanRequest{5, 10}).ok());
}

// ---- LP-LF ----

class LpNoFilterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LpNoFilterPropertyTest, BudgetRespectedAndBeatsGreedyObjective) {
  Instance inst = MakeGaussianInstance(50, 8, 12, 100 + GetParam());
  PlanRequest req{8, 4.0 + (GetParam() % 5) * 2.0};

  LpNoFilterPlanner lp;
  auto lp_plan = lp.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(lp_plan.ok()) << lp_plan.status().ToString();
  EXPECT_LE(SelectionPlanCost(*lp_plan, inst.ctx), req.energy_budget_mj + 1e-6);

  GreedyPlanner greedy;
  auto greedy_plan = greedy.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(greedy_plan.ok());

  // SampleHits counts the root's free contribution, which the LPs omit.
  int root_ones = 0;
  for (int j = 0; j < inst.samples.num_samples(); ++j) {
    root_ones += inst.samples.Contributes(j, inst.topology.root());
  }
  const int lp_plan_hits = SampleHits(*lp_plan, inst.topology, inst.samples);
  const int greedy_hits =
      SampleHits(*greedy_plan, inst.topology, inst.samples);
  // The fractional optimum bounds every integral plan.
  EXPECT_GE(lp.last_lp_objective() + root_ones, lp_plan_hits - 1e-6);
  EXPECT_GE(lp.last_lp_objective() + root_ones, greedy_hits - 1e-6);
  // With repair+fill, the topology-aware LP should not lose to greedy by
  // more than a whisker on sample hits.
  EXPECT_GE(lp_plan_hits, greedy_hits * 0.9 - 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpNoFilterPropertyTest, ::testing::Range(1, 13));

// ---- LP+LF ----

class LpFilterPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LpFilterPropertyTest, BudgetRespectedAndDominatesNoFilterLp) {
  Instance inst = MakeGaussianInstance(50, 8, 12, 200 + GetParam());
  PlanRequest req{8, 4.0 + (GetParam() % 5) * 2.0};

  LpFilterPlanner with;
  auto with_plan = with.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(with_plan.ok()) << with_plan.status().ToString();
  EXPECT_EQ(with_plan->kind, PlanKind::kBandwidth);
  net::NetworkSimulator sim(&inst.topology, inst.ctx.energy);
  EXPECT_LE(ExpectedCollectionCost(*with_plan, sim),
            req.energy_budget_mj + 1e-6);

  LpNoFilterPlanner without;
  auto without_plan = without.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(without_plan.ok());

  // Any LP-LF solution embeds into LP+LF, so the fractional optima nest.
  EXPECT_GE(with.last_lp_objective(), without.last_lp_objective() - 1e-6);
  // And bound the integral plan's hits (SampleHits counts the root's free
  // contribution, which the LP omits).
  int root_ones = 0;
  for (int j = 0; j < inst.samples.num_samples(); ++j) {
    root_ones += inst.samples.Contributes(j, inst.topology.root());
  }
  EXPECT_GE(with.last_lp_objective() + root_ones,
            SampleHits(*with_plan, inst.topology, inst.samples) - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpFilterPropertyTest, ::testing::Range(1, 13));

TEST(LpFilterPlannerTest, BandwidthBoundedByK) {
  Instance inst = MakeGaussianInstance(40, 5, 10, 33);
  LpFilterPlanner planner;
  auto plan = planner.Plan(inst.ctx, inst.samples, PlanRequest{5, 50.0});
  ASSERT_TRUE(plan.ok());
  for (int e = 1; e < 40; ++e) {
    EXPECT_LE(plan->bandwidth[e], 5);
  }
}

TEST(LpFilterPlannerTest, LocalFilteringWinsOnContention) {
  // The Figure 5 effect: six perimeter zones whose nodes are
  // interchangeable. LP+LF should deliver more sample hits per mJ than
  // LP-LF at a budget that cannot afford shipping whole zones inward.
  data::ContentionZoneOptions opts;
  opts.num_zones = 6;
  opts.nodes_per_zone = 8;
  opts.num_background = 30;
  Rng rng(5);
  auto scenario = data::BuildContentionScenario(opts, &rng);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const net::Topology& topo = scenario->topology;
  const int n = topo.num_nodes();
  const int k = 8;

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, k);
  for (int s = 0; s < 15; ++s) samples.Add(scenario->field.Sample(&rng));

  PlannerContext ctx;
  ctx.topology = &topo;
  PlanRequest req{k, 12.0};

  LpFilterPlanner with;
  LpNoFilterPlanner without;
  auto with_plan = with.Plan(ctx, samples, req);
  auto without_plan = without.Plan(ctx, samples, req);
  ASSERT_TRUE(with_plan.ok());
  ASSERT_TRUE(without_plan.ok());
  const int with_hits = SampleHits(*with_plan, topo, samples);
  const int without_hits = SampleHits(*without_plan, topo, samples);
  EXPECT_GT(with_hits, without_hits)
      << "local filtering must help under negative correlation";
}

TEST(LpPlannersTest, FailureAwareCostsShrinkPlans) {
  Instance inst = MakeGaussianInstance(40, 6, 10, 44);
  PlanRequest req{6, 8.0};
  LpNoFilterPlanner planner;
  auto plain = planner.Plan(inst.ctx, inst.samples, req);
  ASSERT_TRUE(plain.ok());

  PlannerContext failing = inst.ctx;
  failing.failures.edge_failure_prob.assign(40, 0.4);
  failing.failures.reroute_cost_factor = 3.0;
  auto careful = planner.Plan(failing, inst.samples, req);
  ASSERT_TRUE(careful.ok());
  // Inflated edge costs buy fewer nodes under the same budget.
  EXPECT_LE(careful->CountVisitedNodes(inst.topology),
            plain->CountVisitedNodes(inst.topology));
  // And the inflated-cost accounting still fits the budget.
  net::NetworkSimulator sim(&inst.topology, failing.energy, failing.failures);
  EXPECT_LE(ExpectedCollectionCost(*careful, sim), req.energy_budget_mj + 1e-6);
}

// The acceptance gate for the revised simplex engine: every planner run
// with the dense oracle forced and with the revised engine forced must
// reach the same LP objective. In a -DPROSPECTOR_LP_CROSSCHECK=ON build,
// where every revised solve also runs the dense oracle and returns its
// solution, the plans themselves are bit-identical — a degenerate LP
// cannot round an alternate vertex into a different plan.
TEST(LpPlannersTest, PlansAgreeAcrossSimplexEnginesUnderCrossCheck) {
  auto make_planner = [](int which, lp::SimplexAlgorithm algorithm)
      -> std::unique_ptr<Planner> {
    LpPlannerOptions lp;
    lp.simplex.algorithm = algorithm;
    switch (which) {
      case 0:
        return std::make_unique<GreedyPlanner>();
      case 1:
        return std::make_unique<LpNoFilterPlanner>(lp);
      case 2:
        return std::make_unique<LpFilterPlanner>(lp);
      default:
        return std::make_unique<ProofPlanner>(lp);
    }
  };
  auto lp_objective = [](Planner* planner, int which) {
    switch (which) {
      case 1:
        return static_cast<LpNoFilterPlanner*>(planner)->last_lp_objective();
      case 2:
        return static_cast<LpFilterPlanner*>(planner)->last_lp_objective();
      default:
        return static_cast<ProofPlanner*>(planner)->last_lp_objective();
    }
  };
  auto expect_same_plan = [](const QueryPlan& a, const QueryPlan& b,
                             const std::string& where) {
    EXPECT_EQ(a.kind, b.kind) << where;
    EXPECT_EQ(a.k, b.k) << where;
    EXPECT_EQ(a.bandwidth, b.bandwidth) << where;
    EXPECT_EQ(a.chosen, b.chosen) << where;
  };

  for (int which = 0; which < 4; ++which) {
    Instance inst = MakeGaussianInstance(40, 6, 12, 400 + which);
    auto dense_planner = make_planner(which, lp::SimplexAlgorithm::kDense);
    auto revised_planner = make_planner(which, lp::SimplexAlgorithm::kRevised);

    const double budget =
        which == 3 ? ProofPlanner::MinimumCost(inst.ctx) * 1.6 : 9.0;
    PlanRequest request{6, budget};

    auto dense_plan = dense_planner->Plan(inst.ctx, inst.samples, request);
    auto revised_plan = revised_planner->Plan(inst.ctx, inst.samples, request);
    ASSERT_TRUE(dense_plan.ok()) << dense_plan.status().ToString();
    ASSERT_TRUE(revised_plan.ok()) << revised_plan.status().ToString();

    const std::string where = "planner " + dense_planner->name();
    if (which == 0) {
      // No LP in greedy: engine choice cannot matter.
      expect_same_plan(*dense_plan, *revised_plan, where);
      continue;
    }
    const double dense_obj = lp_objective(dense_planner.get(), which);
    const double revised_obj = lp_objective(revised_planner.get(), which);
    EXPECT_NEAR(revised_obj, dense_obj, 1e-6 * (1.0 + std::abs(dense_obj)))
        << where;
#ifdef PROSPECTOR_LP_CROSSCHECK
    expect_same_plan(*dense_plan, *revised_plan, where);
#endif
  }
}


}  // namespace
}  // namespace core
}  // namespace prospector
