#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/exact.h"
#include "src/data/gaussian_field.h"
#include "src/core/executor.h"
#include "src/core/naive.h"
#include "src/core/oracle.h"
#include "src/core/proof_executor.h"
#include "src/core/proof_planner.h"
#include "src/net/simulator.h"
#include "src/sampling/sample_set.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

std::vector<double> RandomTruth(int n, Rng* rng) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = rng->Uniform(0.0, 100.0);
  return v;
}

// True top-t of the subtree rooted at u.
std::vector<Reading> SubtreeTop(const net::Topology& topo,
                                const std::vector<double>& truth, int u,
                                int t) {
  std::vector<Reading> rs;
  for (int d : topo.DescendantsOf(u)) rs.push_back({d, truth[d]});
  SortReadings(&rs);
  if (static_cast<int>(rs.size()) > t) rs.resize(t);
  return rs;
}

QueryPlan RandomProofPlan(const net::Topology& topo, int k, Rng* rng) {
  std::vector<int> bw(topo.num_nodes(), 0);
  for (int e = 1; e < topo.num_nodes(); ++e) {
    bw[e] = 1 + static_cast<int>(rng->UniformInt(
                    static_cast<uint64_t>(topo.subtree_size(e))));
  }
  return QueryPlan::Bandwidth(k, std::move(bw), /*proof_carrying=*/true);
}

// ---- Lemma 1: the values proven by a node are exactly the top values of
// its subtree. ----
class ProofLemmaTest : public ::testing::TestWithParam<int> {};

TEST_P(ProofLemmaTest, ProvenPrefixIsSubtreeTop) {
  Rng rng(GetParam());
  const int n = 8 + static_cast<int>(rng.UniformInt(uint64_t{30}));
  const int k = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
  net::Topology topo = net::BuildRandomTree(n, 4, &rng);
  const std::vector<double> truth = RandomTruth(n, &rng);
  QueryPlan plan = RandomProofPlan(topo, k, &rng);

  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ProofExecutor exec(&plan, &sim);
  exec.ExecutePhase1(truth);

  for (int u = 0; u < n; ++u) {
    const int t = exec.proven_count(u);
    const std::vector<Reading>& mem = exec.retrieved(u);
    ASSERT_LE(t, static_cast<int>(mem.size()));
    const std::vector<Reading> expect = SubtreeTop(topo, truth, u, t);
    for (int r = 0; r < t; ++r) {
      EXPECT_EQ(mem[r].node, expect[r].node)
          << "node " << u << " proven rank " << r << " (seed " << GetParam()
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofLemmaTest, ::testing::Range(1, 60));

TEST(ProofExecutorTest, FullBandwidthProvesEverything) {
  // bandwidth = subtree size everywhere: every node forwards its whole
  // subtree, so every value is proven via (c.3) and the root proves all.
  Rng rng(9);
  const int n = 25;
  net::Topology topo = net::BuildRandomTree(n, 3, &rng);
  std::vector<int> bw(n, 0);
  for (int e = 1; e < n; ++e) bw[e] = topo.subtree_size(e);
  QueryPlan plan = QueryPlan::Bandwidth(5, std::move(bw), true);
  const std::vector<double> truth = RandomTruth(n, &rng);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ProofExecutor exec(&plan, &sim);
  ExecutionResult r = exec.ExecutePhase1(truth);
  EXPECT_EQ(exec.proven_count(0), n);
  EXPECT_EQ(r.proven_count, 5);
  EXPECT_EQ(r.answer, TrueTopK(truth, 5));
}

TEST(ProofExecutorTest, PaperFigure2Scenario) {
  // A node with local value 5 and three child subtrees returning
  // (9,8,7,6,4), (8,6), (7,3): charged with returning five values, it can
  // prove the first four but not the fifth (the middle subtree might hide
  // a value between 6 and... — see Figure 2 of the paper).
  // Topology: root 0 owns value 5; children 1, 2, 3 are chains/subtrees.
  // We model child subtrees as stars whose values produce exactly the
  // lists above with full proven counts.
  auto topo = net::Topology::FromParents(
                  {-1, 0, 0, 0, 1, 1, 1, 1, 2, 3})
                  .value();
  // children(1) = {4,5,6,7} -> subtree(1) = {1,4,5,6,7} values 9,8,7,6,4
  // children(2) = {8}      -> subtree(2) = {2,8}       values 8,6
  // children(3) = {9}      -> subtree(3) = {3,9}       values 7,3
  std::vector<double> truth{5, 9, 8, 7, 8.5, 7.5, 6, 4, 6.5, 3};
  // subtree(1) values: node1=9, node4=8.5, node5=7.5, node6=6, node7=4.
  // subtree(2): node2=8, node8=6.5. subtree(3): node3=7, node9=3.
  std::vector<int> bw(10, 0);
  bw[1] = 5;  // child 1 returns its whole subtree (proves all of it)
  bw[4] = bw[5] = bw[6] = bw[7] = 1;
  bw[2] = 2;  // child 2 returns both its values
  bw[8] = 1;
  bw[3] = 2;  // child 3 returns both
  bw[9] = 1;
  QueryPlan plan = QueryPlan::Bandwidth(5, std::move(bw), true);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ProofExecutor exec(&plan, &sim);
  ExecutionResult r = exec.ExecutePhase1(truth);
  // Everything is returned here, so the root proves all; instead check an
  // intermediate configuration: cut child 2's bandwidth to 1 so that its
  // subtree can hide values, then only values above its proven 8 are safe.
  net::NetworkSimulator sim2(&topo, net::EnergyModel{});
  plan.bandwidth[2] = 1;  // child 2 returns only its top value (8), proven
  ProofExecutor exec2(&plan, &sim2);
  ExecutionResult r2 = exec2.ExecutePhase1(truth);
  // Root sees 9, 8.5, 8, 7.5, 7, ... Values > 8 are provable; 8 itself is
  // proven via (c.1); 7.5 is not (child 2 might hide a value in (6.5, 8)).
  EXPECT_GE(r.proven_count, 5);
  EXPECT_EQ(r2.proven_count, 3);
}

TEST(OracleProofTest, ProvesAllKAndVisitsAllNodes) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 10 + static_cast<int>(rng.UniformInt(uint64_t{30}));
    const int k = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    net::Topology topo = net::BuildRandomTree(n, 4, &rng);
    const std::vector<double> truth = RandomTruth(n, &rng);
    QueryPlan plan = MakeOracleProofPlan(topo, truth, k);
    EXPECT_EQ(plan.CountVisitedNodes(topo), n);
    net::NetworkSimulator sim(&topo, net::EnergyModel{});
    ProofExecutor exec(&plan, &sim);
    ExecutionResult r = exec.ExecutePhase1(truth);
    EXPECT_EQ(r.proven_count, std::min(k, n));
    EXPECT_EQ(r.answer, TrueTopK(truth, k));
  }
}

// ---- PROSPECTOR Exact: unconditionally exact, whatever the plan. ----
class MopUpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MopUpPropertyTest, MopUpAlwaysRecoversExactTopK) {
  Rng rng(1000 + GetParam());
  const int n = 8 + static_cast<int>(rng.UniformInt(uint64_t{30}));
  const int k = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
  net::Topology topo = net::BuildRandomTree(n, 4, &rng);
  const std::vector<double> truth = RandomTruth(n, &rng);
  QueryPlan plan = RandomProofPlan(topo, k, &rng);

  // Exactness must hold in both request modes.
  for (MopUpMode mode : {MopUpMode::kBroadcast, MopUpMode::kPerChild}) {
    net::NetworkSimulator sim(&topo, net::EnergyModel{});
    ProofExecutor exec(&plan, &sim, mode);
    exec.ExecutePhase1(truth);
    ExecutionResult r = exec.ExecuteMopUp();
    EXPECT_EQ(r.answer, TrueTopK(truth, k))
        << "seed " << GetParam() << " mode "
        << (mode == MopUpMode::kBroadcast ? "broadcast" : "per-child");
  }
}

TEST(MopUpTest, PerChildModeSkipsExhaustedSubtrees) {
  // Star: the root's children are leaves that always transmit their whole
  // (single-node) subtree, so a per-child mop-up never sends any request.
  net::Topology topo = net::BuildStar(6);
  std::vector<int> bw(6, 1);
  bw[0] = 0;
  QueryPlan plan = QueryPlan::Bandwidth(3, std::move(bw), true);
  std::vector<double> truth{0, 5, 4, 3, 2, 1};
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ProofExecutor exec(&plan, &sim, MopUpMode::kPerChild);
  exec.ExecutePhase1(truth);
  const int msgs_before = sim.stats().unicast_messages;
  ExecutionResult r = exec.ExecuteMopUp();
  EXPECT_EQ(sim.stats().unicast_messages, msgs_before);
  EXPECT_EQ(r.answer, TrueTopK(truth, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MopUpPropertyTest, ::testing::Range(1, 80));

TEST(MopUpTest, NoPhase2MessagesWhenPhase1ProvesAll) {
  Rng rng(31);
  const int n = 20, k = 4;
  net::Topology topo = net::BuildRandomTree(n, 3, &rng);
  const std::vector<double> truth = RandomTruth(n, &rng);
  QueryPlan plan = MakeOracleProofPlan(topo, truth, k);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ProofExecutor exec(&plan, &sim);
  ExecutionResult p1 = exec.ExecutePhase1(truth);
  ASSERT_EQ(p1.proven_count, k);
  ExecutionResult p2 = exec.ExecuteMopUp();
  EXPECT_DOUBLE_EQ(p2.collection_energy_mj, 0.0);
  EXPECT_EQ(p2.answer, TrueTopK(truth, k));
}

// ---- ProofPlanner ----

TEST(ProofPlannerTest, RejectsBudgetBelowFloor) {
  Rng rng(3);
  net::Topology topo = net::BuildRandomTree(15, 3, &rng);
  PlannerContext ctx;
  ctx.topology = &topo;
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(15, 3);
  samples.Add(RandomTruth(15, &rng));
  PlanRequest req;
  req.k = 3;
  req.energy_budget_mj = 0.5 * ProofPlanner::MinimumCost(ctx);
  ProofPlanner planner;
  auto plan = planner.Plan(ctx, samples, req);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

class ProofPlannerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProofPlannerPropertyTest, PlansRespectFloorBudgetAndBounds) {
  Rng rng(2000 + GetParam());
  const int n = 8 + static_cast<int>(rng.UniformInt(uint64_t{16}));
  const int k = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
  net::Topology topo = net::BuildRandomTree(n, 3, &rng);
  PlannerContext ctx;
  ctx.topology = &topo;
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, k);
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 25, &rng);
  for (int s = 0; s < 6; ++s) samples.Add(field.Sample(&rng));

  PlanRequest req;
  req.k = k;
  req.energy_budget_mj =
      ProofPlanner::MinimumCost(ctx) * rng.Uniform(1.05, 1.8);
  ProofPlanner planner;
  auto plan = planner.Plan(ctx, samples, req);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->proof_carrying);
  for (int e = 1; e < n; ++e) {
    EXPECT_GE(plan->bandwidth[e], 1);
    EXPECT_LE(plan->bandwidth[e], topo.subtree_size(e));
  }
  // Budget holds after rounding repair (value-cost part + floor).
  double cost = 0.0;
  for (int e = 1; e < n; ++e) {
    cost += ctx.EdgeMessageCost(e, plan->bandwidth[e]);
    if (!topo.is_leaf(e)) cost += ctx.energy.per_byte_mj;
  }
  EXPECT_LE(cost, req.energy_budget_mj + 1e-6);

  // The plan executes and mop-up stays exact.
  const std::vector<double> truth = field.Sample(&rng);
  net::NetworkSimulator sim(&topo, ctx.energy);
  ProofExecutor exec(&plan.value(), &sim);
  exec.ExecutePhase1(truth);
  ExecutionResult r = exec.ExecuteMopUp();
  EXPECT_EQ(r.answer, TrueTopK(truth, k));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofPlannerPropertyTest,
                         ::testing::Range(1, 25));

// ---- Root placement: the root need not be node 0 (topology.h). ----

TEST(RootPlacementTest, PlansMatchAcrossRootRelabelling) {
  // The chain leaf -> mid -> root labelled root-last ({1, 2, root}) and
  // root-first ({root, 0, 1}): node i of one is node 2 - i of the other,
  // so every per-node result must match after reversing it.
  auto root_last = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  auto root_first =
      net::Topology::FromParents({net::Topology::kNoParent, 0, 1});
  ASSERT_TRUE(root_last.ok() && root_first.ok());
  auto reversed = [](auto v) {
    std::reverse(v.begin(), v.end());
    return v;
  };

  // The top value sits on the leaf.
  const std::vector<double> truth = {9.0, 5.0, 1.0};
  EXPECT_EQ(MakeNaiveKPlan(*root_last, 1).bandwidth,
            reversed(MakeNaiveKPlan(*root_first, 1).bandwidth));
  EXPECT_EQ(MakeOracleProofPlan(*root_last, truth, 1).bandwidth,
            reversed(MakeOracleProofPlan(*root_first, reversed(truth), 1)
                         .bandwidth));

  PlannerContext ctx_last;
  ctx_last.topology = &root_last.value();
  PlannerContext ctx_first;
  ctx_first.topology = &root_first.value();
  EXPECT_DOUBLE_EQ(ProofPlanner::MinimumCost(ctx_last),
                   ProofPlanner::MinimumCost(ctx_first));

  sampling::SampleSet samples_last = sampling::SampleSet::ForTopK(3, 1);
  sampling::SampleSet samples_first = sampling::SampleSet::ForTopK(3, 1);
  Rng rng(5);
  for (int s = 0; s < 4; ++s) {
    const std::vector<double> v = {rng.Uniform(50.0, 100.0),
                                   rng.Uniform(0.0, 50.0),
                                   rng.Uniform(0.0, 50.0)};
    samples_last.Add(v);
    samples_first.Add(reversed(v));
  }
  PlanRequest req;
  req.k = 1;
  req.energy_budget_mj = 1.5 * ProofPlanner::MinimumCost(ctx_first);
  ProofPlanner planner;
  auto plan_last = planner.Plan(ctx_last, samples_last, req);
  auto plan_first = planner.Plan(ctx_first, samples_first, req);
  ASSERT_TRUE(plan_last.ok()) << plan_last.status().ToString();
  ASSERT_TRUE(plan_first.ok()) << plan_first.status().ToString();
  EXPECT_EQ(plan_last->bandwidth, reversed(plan_first->bandwidth));
}

TEST(ProspectorExactTest, EndToEndExactAndPhaseTradeoff) {
  Rng rng(4242);
  const int n = 25, k = 5;
  net::Topology topo = net::BuildRandomTree(n, 3, &rng);
  PlannerContext ctx;
  ctx.topology = &topo;
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 9, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, k);
  for (int s = 0; s < 10; ++s) samples.Add(field.Sample(&rng));
  const std::vector<double> truth = field.Sample(&rng);

  const double floor = ProofPlanner::MinimumCost(ctx);
  net::NetworkSimulator lean(&topo, ctx.energy);
  auto lean_run =
      RunProspectorExact(ctx, samples, k, floor * 1.01, truth, &lean);
  ASSERT_TRUE(lean_run.ok()) << lean_run.status().ToString();
  EXPECT_EQ(lean_run->answer, TrueTopK(truth, k));

  net::NetworkSimulator rich(&topo, ctx.energy);
  auto rich_run =
      RunProspectorExact(ctx, samples, k, floor * 1.6, truth, &rich);
  ASSERT_TRUE(rich_run.ok()) << rich_run.status().ToString();
  EXPECT_EQ(rich_run->answer, TrueTopK(truth, k));
  // More phase-1 budget means more proven up front, less phase-2 work.
  EXPECT_GE(rich_run->phase1_proven, lean_run->phase1_proven);
  EXPECT_LE(rich_run->phase2_energy_mj, lean_run->phase2_energy_mj + 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace prospector
