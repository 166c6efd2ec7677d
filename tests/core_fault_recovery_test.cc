// End-to-end robustness: scripted faults, degraded answers, and the
// engine watchdog's rebuild-remap-replan recovery loop. Everything here
// is deterministic given the seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/plan_eval.h"
#include "src/core/proof_executor.h"
#include "src/core/query_engine.h"
#include "src/data/gaussian_field.h"

namespace prospector {
namespace core {
namespace {

constexpr double kRange = 25.0;
constexpr int kNodes = 40;
constexpr int kTop = 3;
constexpr int kKillEpoch = 12;
constexpr int kDeadAfter = 3;
constexpr int kEpochs = 24;
constexpr int kBootstrap = 6;

net::Topology BuildNet() {
  Rng rng(41);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = kNodes;
  geo.radio_range = kRange;
  return net::BuildConnectedGeometricNetwork(geo, &rng).value();
}

// An interior node with at least two children — the scripted casualty.
int PickVictim(const net::Topology& topo) {
  for (int u = 0; u < topo.num_nodes(); ++u) {
    if (u == topo.root()) continue;
    if (topo.children(u).size() >= 2) return u;
  }
  return -1;
}

// Recall of `answer` against the top-k over the `eligible` (original-id)
// node set — "eligible = everyone" is plain ground-truth recall;
// "eligible = survivors" is what a healed engine can still achieve.
double RecallAgainst(const std::vector<Reading>& answer,
                     const std::vector<double>& truth,
                     const std::vector<int>& eligible, int k) {
  std::vector<Reading> pool;
  for (int id : eligible) pool.push_back({id, truth[id]});
  SortReadings(&pool);
  if (static_cast<int>(pool.size()) > k) pool.resize(k);
  std::vector<char> in_ans(truth.size(), 0);
  for (const Reading& r : answer) in_ans[r.node] = 1;
  int hit = 0;
  for (const Reading& r : pool) hit += in_ans[r.node];
  return static_cast<double>(hit) / static_cast<double>(k);
}

struct EpochLog {
  QueryEngine::QueryEpochKind kind;
  std::vector<Reading> answer;
  std::vector<double> truth;
  double energy = 0.0;
  bool degraded = false;
  bool replanned = false;
  bool rebuilt = false;
  std::vector<int> removed;
};

struct ScenarioRun {
  int victim = -1;
  std::vector<int> hot;        // victim's two hot children + two outsiders
  std::vector<EpochLog> log;
  int rebuilds = 0;
  std::vector<int> survivors;  // original ids still in the tree at the end
};

// The canonical scenario: a hot subtree hangs off `victim`; at kKillEpoch
// the victim dies. With `transient_partition` the victim's edge is instead
// cut for two epochs (below the watchdog threshold) and then heals.
ScenarioRun RunScenario(bool transient_partition,
                        net::LossyTransport lossy = {},
                        net::FailureModel failures = {}) {
  net::Topology topo = BuildNet();
  ScenarioRun run;
  run.victim = PickVictim(topo);
  EXPECT_GE(run.victim, 0);

  // Background field is near-constant and cool; four hot nodes carry the
  // top-k. Two sit under the victim, two are elsewhere, so the true top-3
  // is {95, 92, 88} while the victim's subtree is up and hot nodes fill
  // every top-3 slot afterwards too (no rotating third place).
  Rng frng(43);
  data::GaussianField field =
      data::GaussianField::Random(kNodes, 18, 22, 0.01, 0.02, &frng);
  const std::vector<int> subtree = topo.DescendantsOf(run.victim);
  run.hot = {topo.children(run.victim)[0], topo.children(run.victim)[1]};
  field.set_node(run.hot[0], 95.0, 0.25);
  field.set_node(run.hot[1], 92.0, 0.25);
  double outside_mean = 88.0;
  for (int u = 0; u < kNodes && run.hot.size() < 4; ++u) {
    if (u == topo.root() || u == run.victim) continue;
    if (std::find(subtree.begin(), subtree.end(), u) != subtree.end()) {
      continue;
    }
    field.set_node(u, outside_mean, 0.25);
    outside_mean -= 3.0;
    run.hot.push_back(u);
  }

  QueryEngineOptions opt;
  opt.sample_window = 16;
  opt.bootstrap_sweeps = kBootstrap;
  opt.dead_after_epochs = kDeadAfter;
  opt.rebuild_radio_range = kRange;
  opt.lossy = lossy;
  if (transient_partition) {
    opt.dead_after_epochs = kDeadAfter + 1;  // outlast the partition
    opt.faults.PartitionSubtree(kKillEpoch, run.victim)
        .HealSubtree(kKillEpoch + 2, run.victim);
  } else {
    opt.faults.KillNode(kKillEpoch, run.victim);
  }
  QuerySpec spec;
  spec.k = kTop;
  spec.energy_budget_mj = 100.0;  // generous: the plan can cover everything
  spec.planner = PlannerChoice::kLpFilter;
  spec.manager.base_explore_probability = 0.0;
  spec.manager.boosted_explore_probability = 0.0;

  QueryEngine engine(&topo, net::EnergyModel{}, failures, opt, /*seed=*/7);
  engine.AddQuery(spec);
  Rng truth_rng(99);
  for (int e = 0; e < kEpochs; ++e) {
    EpochLog entry;
    entry.truth = field.Sample(&truth_rng);
    auto tick = engine.Tick(entry.truth);
    EXPECT_TRUE(tick.ok()) << tick.status().ToString();
    if (!tick.ok()) break;
    const QueryEngine::QueryTickResult& q = tick->per_query[0];
    entry.kind = q.kind;
    entry.answer = q.answer;
    entry.energy = q.energy_mj;
    entry.degraded = q.degraded;
    entry.replanned = q.replanned;
    entry.rebuilt = tick->rebuilt;
    entry.removed = tick->removed_nodes;
    run.log.push_back(std::move(entry));
  }
  run.rebuilds = engine.rebuilds();
  run.survivors = engine.original_ids();
  return run;
}

std::vector<int> AllNodes() {
  std::vector<int> all(kNodes);
  for (int i = 0; i < kNodes; ++i) all[i] = i;
  return all;
}

TEST(FaultRecoveryTest, WatchdogRebuildsAfterKilledInteriorNode) {
  const ScenarioRun run = RunScenario(/*transient_partition=*/false);
  ASSERT_EQ(static_cast<int>(run.log.size()), kEpochs);
  const std::vector<int> all = AllNodes();

  // Healthy steady state: perfect recall on query epochs before the kill.
  for (int e = kBootstrap; e < kKillEpoch; ++e) {
    ASSERT_EQ(run.log[e].kind, QueryEngine::QueryEpochKind::kQuery);
    EXPECT_FALSE(run.log[e].degraded) << "epoch " << e;
    EXPECT_DOUBLE_EQ(
        RecallAgainst(run.log[e].answer, run.log[e].truth, all, kTop), 1.0)
        << "epoch " << e;
  }

  // Exactly one rebuild, within dead_after_epochs of the kill.
  ASSERT_EQ(run.rebuilds, 1);
  int rebuild_epoch = -1;
  for (int e = 0; e < kEpochs; ++e) {
    if (run.log[e].rebuilt) {
      EXPECT_EQ(rebuild_epoch, -1) << "second rebuild at epoch " << e;
      rebuild_epoch = e;
    }
  }
  ASSERT_GE(rebuild_epoch, kKillEpoch);
  EXPECT_EQ(rebuild_epoch, kKillEpoch + kDeadAfter - 1);

  // While the subtree was dark the answers are flagged and recall dips:
  // the two hot children (2 of the top 3) are unreachable.
  for (int e = kKillEpoch; e <= rebuild_epoch; ++e) {
    EXPECT_TRUE(run.log[e].degraded) << "epoch " << e;
    EXPECT_LE(RecallAgainst(run.log[e].answer, run.log[e].truth, all, kTop),
              1.0 / kTop + 1e-9)
        << "epoch " << e;
  }

  // The rebuild excluded the victim (plus any orphans) and replanned.
  EXPECT_TRUE(run.log[rebuild_epoch].replanned ||
              run.log[rebuild_epoch].rebuilt);
  ASSERT_FALSE(run.log[rebuild_epoch].removed.empty());
  EXPECT_TRUE(std::find(run.log[rebuild_epoch].removed.begin(),
                        run.log[rebuild_epoch].removed.end(),
                        run.victim) != run.log[rebuild_epoch].removed.end());
  EXPECT_TRUE(std::find(run.survivors.begin(), run.survivors.end(),
                        run.victim) == run.survivors.end());

  // Recovery: against what the surviving network can still deliver,
  // recall returns to perfect and the degraded flag clears.
  for (int e = rebuild_epoch + 1; e < kEpochs; ++e) {
    ASSERT_EQ(run.log[e].kind, QueryEngine::QueryEpochKind::kQuery);
    EXPECT_FALSE(run.log[e].degraded) << "epoch " << e;
    EXPECT_DOUBLE_EQ(RecallAgainst(run.log[e].answer, run.log[e].truth,
                                   run.survivors, kTop),
                     1.0)
        << "epoch " << e;
  }
}

TEST(FaultRecoveryTest, TransientPartitionBelowThresholdHealsWithoutRebuild) {
  const ScenarioRun run = RunScenario(/*transient_partition=*/true);
  ASSERT_EQ(static_cast<int>(run.log.size()), kEpochs);
  const std::vector<int> all = AllNodes();

  // The two partitioned epochs are degraded; no watchdog action.
  EXPECT_EQ(run.rebuilds, 0);
  for (const EpochLog& entry : run.log) EXPECT_FALSE(entry.rebuilt);
  for (int e = kKillEpoch; e < kKillEpoch + 2; ++e) {
    EXPECT_TRUE(run.log[e].degraded) << "epoch " << e;
    EXPECT_LT(RecallAgainst(run.log[e].answer, run.log[e].truth, all, kTop),
              1.0)
        << "epoch " << e;
  }
  // Once the partition heals the same plan works again, unchanged.
  for (int e = kKillEpoch + 2; e < kEpochs; ++e) {
    EXPECT_FALSE(run.log[e].degraded) << "epoch " << e;
    EXPECT_DOUBLE_EQ(
        RecallAgainst(run.log[e].answer, run.log[e].truth, all, kTop), 1.0)
        << "epoch " << e;
  }
}

void ExpectIdenticalRuns(const ScenarioRun& a, const ScenarioRun& b) {
  ASSERT_EQ(a.log.size(), b.log.size());
  EXPECT_EQ(a.rebuilds, b.rebuilds);
  EXPECT_EQ(a.survivors, b.survivors);
  for (size_t e = 0; e < a.log.size(); ++e) {
    EXPECT_EQ(a.log[e].kind, b.log[e].kind) << "epoch " << e;
    EXPECT_EQ(a.log[e].energy, b.log[e].energy) << "epoch " << e;
    EXPECT_EQ(a.log[e].degraded, b.log[e].degraded) << "epoch " << e;
    EXPECT_EQ(a.log[e].rebuilt, b.log[e].rebuilt) << "epoch " << e;
    EXPECT_EQ(a.log[e].removed, b.log[e].removed) << "epoch " << e;
    ASSERT_EQ(a.log[e].answer.size(), b.log[e].answer.size())
        << "epoch " << e;
    for (size_t i = 0; i < a.log[e].answer.size(); ++i) {
      EXPECT_EQ(a.log[e].answer[i].node, b.log[e].answer[i].node)
          << "epoch " << e << " rank " << i;
      EXPECT_EQ(a.log[e].answer[i].value, b.log[e].answer[i].value)
          << "epoch " << e << " rank " << i;
    }
  }
}

TEST(FaultRecoveryTest, ScenarioIsDeterministic) {
  ExpectIdenticalRuns(RunScenario(false), RunScenario(false));
}

TEST(FaultRecoveryTest, LossySessionDegradesGracefullyAndDeterministically) {
  net::LossyTransport lossy;
  lossy.enabled = true;
  lossy.max_retries = 2;
  lossy.backoff_cost_growth = 1.5;
  const net::FailureModel failures = net::FailureModel::Uniform(0.5);
  const ScenarioRun a =
      RunScenario(/*transient_partition=*/true, lossy, failures);
  const ScenarioRun b =
      RunScenario(/*transient_partition=*/true, lossy, failures);
  ExpectIdenticalRuns(a, b);
  // At p=0.5 with two retries, one in eight messages genuinely drops;
  // across hundreds of messages some epoch must have lost values.
  bool any_degraded = false;
  for (const EpochLog& entry : a.log) any_degraded |= entry.degraded;
  EXPECT_TRUE(any_degraded);
  // The engine still answers every query epoch with a sane result.
  for (const EpochLog& entry : a.log) {
    if (entry.kind != QueryEngine::QueryEpochKind::kQuery) continue;
    EXPECT_LE(static_cast<int>(entry.answer.size()), kTop);
    for (const Reading& r : entry.answer) {
      EXPECT_GE(r.node, 0);
      EXPECT_LT(r.node, kNodes);
    }
  }
}

TEST(CollectionExecutorFaultTest, DeadNodeDarkensItsSubtreeAndFlagsResult) {
  net::Topology chain = net::BuildChain(4);
  net::FaultInjector injector(4, net::FaultSchedule{}.KillNode(0, 2));
  injector.AdvanceTo(0);
  net::NetworkSimulator sim(&chain, net::EnergyModel{});
  sim.set_fault_injector(&injector);

  QueryPlan plan = QueryPlan::Bandwidth(2, {0, 4, 4, 4});
  const std::vector<double> truth = {1.0, 2.0, 9.0, 8.0};
  ExecutionResult r = CollectionExecutor::Execute(plan, truth, &sim);

  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.values_lost, 0);
  // The watchdog's evidence: the edges above the dead node and its child
  // went dark; the edge above node 1 delivered.
  EXPECT_TRUE(r.edge_expected[1] && r.edge_delivered[1]);
  EXPECT_TRUE(r.edge_expected[2] && !r.edge_delivered[2]);
  EXPECT_TRUE(r.edge_expected[3] && !r.edge_delivered[3]);
  // Only reachable nodes appear in the answer.
  for (const Reading& x : r.answer) EXPECT_LT(x.node, 2);

  // The true top-2 (nodes 2 and 3) is exactly what went dark.
  const AccuracyMetrics acc = TopKAccuracy(r, truth, 2);
  EXPECT_DOUBLE_EQ(acc.recall, 0.0);
  EXPECT_DOUBLE_EQ(acc.precision, 0.0);
  EXPECT_EQ(acc.answered, 2);
}

TEST(ProofExecutorFaultTest, DroppedListsUnderClaimTheProof) {
  net::Topology chain = net::BuildChain(4);
  net::FaultInjector injector(4, net::FaultSchedule{}.KillNode(0, 3));
  injector.AdvanceTo(0);
  net::NetworkSimulator sim(&chain, net::EnergyModel{});
  sim.set_fault_injector(&injector);

  QueryPlan plan =
      QueryPlan::Bandwidth(2, {0, 3, 2, 1}, /*proof_carrying=*/true);
  const std::vector<double> truth = {5.0, 6.0, 7.0, 8.0};
  ProofExecutor ex(&plan, &sim);

  ExecutionResult phase1 = ex.ExecutePhase1(truth);
  EXPECT_TRUE(phase1.degraded);
  // The dead leaf holds the global maximum; with its list missing the
  // evidence-based conditions can prove nothing — they under-claim, never
  // over-claim.
  EXPECT_EQ(phase1.proven_count, 0);
  EXPECT_EQ(phase1.edge_expected[3], 1);
  EXPECT_EQ(phase1.edge_delivered[3], 0);

  ExecutionResult phase2 = ex.ExecuteMopUp();
  EXPECT_TRUE(phase2.degraded);
  EXPECT_EQ(phase2.proven_count, 0);  // exactness claim voided by the loss
  // Everything reachable was still collected, best-first.
  ASSERT_EQ(phase2.answer.size(), 2u);
  EXPECT_EQ(phase2.answer[0].node, 2);
  EXPECT_EQ(phase2.answer[1].node, 1);
}

TEST(AccuracyMetricsTest, EmptyAnswerIsVacuouslyPrecise) {
  ExecutionResult r;
  const std::vector<double> truth = {3.0, 1.0, 2.0};
  const AccuracyMetrics acc = TopKAccuracy(r, truth, 2);
  EXPECT_DOUBLE_EQ(acc.recall, 0.0);
  EXPECT_DOUBLE_EQ(acc.precision, 1.0);
  EXPECT_EQ(acc.answered, 0);
}

TEST(TopKAccuracyTest, EmptyTruthYieldsVacuousRecallNotDivByZero) {
  ExecutionResult result;  // no answers either
  AccuracyMetrics m = TopKAccuracy(result, /*truth=*/{}, /*k=*/5);
  EXPECT_EQ(m.recall, 1.0);
  EXPECT_EQ(m.answered, 0);

  // Answers against an empty truth: still no crash, recall stays vacuous,
  // precision reports the all-miss.
  result.answer.push_back(Reading{3, 1.5});
  m = TopKAccuracy(result, /*truth=*/{}, /*k=*/5);
  EXPECT_EQ(m.recall, 1.0);
  EXPECT_EQ(m.precision, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace prospector
