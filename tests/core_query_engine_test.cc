#include "src/core/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/executor.h"
#include "src/core/plan_merge.h"
#include "src/data/gaussian_field.h"
#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

struct World {
  net::Topology topo;
  data::GaussianField field;

  explicit World(uint64_t seed, int n = 50) {
    Rng rng(seed);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = n;
    geo.radio_range = 26.0;
    topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
    field = data::GaussianField::Random(n, 40, 60, 1, 9, &rng);
  }
};

std::vector<double> DistinctTruth(int n) {
  std::vector<double> truth(n);
  for (int i = 0; i < n; ++i) {
    truth[i] = static_cast<double>((i * 37) % 101) + 0.01 * i;
  }
  return truth;
}

QueryPlan RandomBandwidthPlan(const net::Topology& topo, int k, int max_bw,
                              Rng* rng) {
  std::vector<int> bw(topo.num_nodes(), 0);
  for (int e = 0; e < topo.num_nodes(); ++e) {
    if (e == topo.root()) continue;
    bw[e] = 1 + static_cast<int>(rng->UniformInt(
                    static_cast<uint64_t>(max_bw)));
  }
  QueryPlan p = QueryPlan::Bandwidth(k, std::move(bw));
  p.Normalize(topo);
  return p;
}

TEST(PlanMergeTest, MergeTakesPointwiseMaxAndUnion) {
  // Root 0; chain 0-1-2 plus leaf 3 under 1.
  auto topo = net::Topology::FromParents({-1, 0, 1, 1}).value();
  QueryPlan a = QueryPlan::Bandwidth(2, {0, 2, 1, 0});
  QueryPlan b = QueryPlan::Bandwidth(4, {0, 1, 0, 1});
  Superplan sp = MergePlans({a, b}, topo, {7, 9});
  EXPECT_EQ(sp.num_queries(), 2);
  EXPECT_EQ(sp.query_ids, (std::vector<int>{7, 9}));
  EXPECT_EQ(sp.merged.kind, PlanKind::kBandwidth);
  EXPECT_EQ(sp.merged.k, 4);
  // Edge bandwidth is the pointwise max...
  EXPECT_EQ(sp.merged.bandwidth[1], 2);
  EXPECT_EQ(sp.merged.bandwidth[2], 1);
  // ...and the visited set is the union: node 3 only query b visits.
  EXPECT_EQ(sp.merged.bandwidth[3], 1);
  EXPECT_EQ(sp.merged.CountVisitedNodes(topo), 4);
}

TEST(PlanMergeTest, SingleQuerySuperplanMatchesCollectionExecutorExactly) {
  Rng rng(41);
  net::Topology topo = net::BuildRandomTree(40, 4, &rng);
  const std::vector<double> truth = DistinctTruth(40);
  QueryPlan plan = RandomBandwidthPlan(topo, 6, 3, &rng);

  net::NetworkSimulator sim_a(&topo, {}, {}, 5);
  ExecutionResult alone = CollectionExecutor::Execute(plan, truth, &sim_a);

  net::NetworkSimulator sim_b(&topo, {}, {}, 5);
  Superplan sp = MergePlans({plan}, topo);
  SuperplanResult merged = SuperplanExecutor::Execute(sp, truth, &sim_b);

  ASSERT_EQ(merged.per_query.size(), 1u);
  EXPECT_EQ(merged.per_query[0].answer, alone.answer);
  EXPECT_EQ(merged.per_query[0].arrived, alone.arrived);
  EXPECT_EQ(merged.per_query[0].edge_expected, alone.edge_expected);
  EXPECT_EQ(merged.per_query[0].edge_delivered, alone.edge_delivered);
  // Energy is the same sum in the same order — exactly equal, and the
  // sole query owns all of it.
  EXPECT_EQ(merged.trigger_energy_mj, alone.trigger_energy_mj);
  EXPECT_EQ(merged.collection_energy_mj, alone.collection_energy_mj);
  EXPECT_EQ(merged.attributed_mj[0], merged.total_energy_mj());
  EXPECT_EQ(sim_b.stats().total_energy_mj, sim_a.stats().total_energy_mj);
}

TEST(PlanMergeTest, MergedDemuxIsBitIdenticalToStandaloneExecution) {
  Rng rng(42);
  net::Topology topo = net::BuildRandomTree(60, 4, &rng);
  const int n = topo.num_nodes();
  const std::vector<double> truth = DistinctTruth(n);

  // Four co-resident queries with different shapes: three bandwidth plans
  // of different k, one node-selection plan (mixed-kind merge).
  std::vector<QueryPlan> plans;
  plans.push_back(RandomBandwidthPlan(topo, 5, 2, &rng));
  plans.push_back(RandomBandwidthPlan(topo, 10, 3, &rng));
  plans.push_back(RandomBandwidthPlan(topo, 1, 1, &rng));
  std::vector<char> chosen(n, 0);
  for (int i = 0; i < n; ++i) chosen[i] = rng.Bernoulli(0.3) ? 1 : 0;
  plans.push_back(QueryPlan::NodeSelection(3, chosen, topo));

  // Standalone baselines, each on its own loss-free simulator.
  std::vector<ExecutionResult> alone;
  double standalone_total_mj = 0.0;
  for (const QueryPlan& p : plans) {
    net::NetworkSimulator sim(&topo, {}, {}, 5);
    alone.push_back(CollectionExecutor::Execute(p, truth, &sim));
    standalone_total_mj += sim.stats().total_energy_mj;
  }

  net::NetworkSimulator sim(&topo, {}, {}, 5);
  Superplan sp = MergePlans(plans, topo);
  SuperplanResult merged = SuperplanExecutor::Execute(sp, truth, &sim);

  // Loss-free, demux must be bit-identical per query.
  ASSERT_EQ(merged.per_query.size(), plans.size());
  for (size_t q = 0; q < plans.size(); ++q) {
    EXPECT_EQ(merged.per_query[q].answer, alone[q].answer) << "query " << q;
    EXPECT_EQ(merged.per_query[q].arrived, alone[q].arrived) << "query " << q;
    EXPECT_EQ(merged.per_query[q].values_lost, 0);
    EXPECT_FALSE(merged.per_query[q].degraded);
  }

  // The shared execution must be cheaper than the standalone sum, and the
  // per-query attribution must reconcile against the audited total.
  EXPECT_GT(merged.shared_messages, 0);
  EXPECT_GT(merged.shared_values, 0);
  EXPECT_LT(merged.total_energy_mj(), standalone_total_mj);
  EXPECT_DOUBLE_EQ(merged.total_energy_mj(), sim.stats().total_energy_mj);
  double attributed = 0.0;
  for (double a : merged.attributed_mj) attributed += a;
  const obs::EnergyAuditResult audit =
      obs::CheckEnergyLedger(attributed, merged.total_energy_mj());
  EXPECT_TRUE(audit.ok) << "attributed " << attributed << " vs total "
                        << merged.total_energy_mj();
}

TEST(QueryEngineTest, RejectsWrongTruthSize) {
  World w(1);
  QueryEngine engine(&w.topo, {}, {}, QueryEngineOptions{});
  engine.AddQuery(QuerySpec{});
  EXPECT_FALSE(engine.Tick({1.0, 2.0}).ok());
}

// One-query cases: a standing query is an engine with one registered
// query, read through per_query[0].

TEST(QueryEngineOneQueryTest, BootstrapsThenQueries) {
  World w(2);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  QueryEngine engine(&w.topo, {}, {}, opts, 7);
  QuerySpec spec;
  spec.k = 5;
  spec.energy_budget_mj = 10.0;
  const int id = engine.AddQuery(spec);
  Rng rng(3);

  int bootstraps = 0, queries = 0;
  for (int t = 0; t < 30; ++t) {
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryEngine::QueryTickResult& q = r->per_query[0];
    if (q.kind == QueryEngine::QueryEpochKind::kBootstrap) {
      ++bootstraps;
      EXPECT_TRUE(q.answer.empty());
    }
    if (q.kind == QueryEngine::QueryEpochKind::kQuery) {
      ++queries;
      EXPECT_FALSE(q.answer.empty());
      EXPECT_LE(static_cast<int>(q.answer.size()), spec.k);
    }
  }
  EXPECT_EQ(bootstraps, 4);
  EXPECT_GT(queries, 15);
  EXPECT_TRUE(engine.has_plan(id));
  EXPECT_GT(engine.sampling_energy_mj(), 0.0);
  EXPECT_GT(engine.query_energy_mj(), 0.0);
  EXPECT_GT(engine.install_energy_mj(), 0.0);
  EXPECT_NEAR(engine.total_energy_mj(),
              engine.sampling_energy_mj() + engine.query_energy_mj() +
                  engine.install_energy_mj() + engine.audit_energy_mj(),
              1e-9);
}

TEST(QueryEngineOneQueryTest, QueriesAreReasonablyAccurate) {
  World w(5);
  QueryEngine engine(&w.topo, {}, {}, QueryEngineOptions{}, 9);
  QuerySpec spec;
  spec.k = 5;
  spec.energy_budget_mj = 15.0;
  engine.AddQuery(spec);
  Rng rng(10);
  double recall = 0.0;
  int queries = 0;
  for (int t = 0; t < 60; ++t) {
    const std::vector<double> truth = w.field.Sample(&rng);
    auto r = engine.Tick(truth);
    ASSERT_TRUE(r.ok());
    const QueryEngine::QueryTickResult& q = r->per_query[0];
    if (q.kind != QueryEngine::QueryEpochKind::kQuery) continue;
    ++queries;
    std::vector<char> in_answer(w.topo.num_nodes(), 0);
    for (const Reading& x : q.answer) in_answer[x.node] = 1;
    int hit = 0;
    for (const Reading& x : TrueTopK(truth, spec.k)) hit += in_answer[x.node];
    recall += static_cast<double>(hit) / spec.k;
  }
  ASSERT_GT(queries, 0);
  EXPECT_GT(recall / queries, 0.7);
}

TEST(QueryEngineOneQueryTest, AuditEpochsAreExactAndDriveExploreRate) {
  World w(6, 30);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 5;
  QueryEngine engine(&w.topo, {}, {}, opts, 11);
  QuerySpec spec;
  spec.k = 4;
  spec.energy_budget_mj = 8.0;
  spec.audit_every = 10;
  engine.AddQuery(spec);
  Rng rng(12);
  int audits = 0;
  for (int t = 0; t < 60; ++t) {
    const std::vector<double> truth = w.field.Sample(&rng);
    auto r = engine.Tick(truth);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryEngine::QueryTickResult& q = r->per_query[0];
    if (q.kind == QueryEngine::QueryEpochKind::kAudit) {
      ++audits;
      EXPECT_EQ(q.answer, TrueTopK(truth, spec.k)) << "audits must be exact";
      EXPECT_GE(q.proven, 0);
    }
  }
  EXPECT_GE(audits, 3);
  EXPECT_GT(engine.audit_energy_mj(), 0.0);
}

TEST(QueryEngineOneQueryTest, GreedyPlannerChoiceWorks) {
  World w(7, 30);
  QueryEngine engine(&w.topo, {}, {}, QueryEngineOptions{}, 13);
  QuerySpec spec;
  spec.k = 3;
  spec.energy_budget_mj = 6.0;
  spec.planner = PlannerChoice::kGreedy;
  const int id = engine.AddQuery(spec);
  Rng rng(14);
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(engine.Tick(w.field.Sample(&rng)).ok());
  }
  EXPECT_TRUE(engine.has_plan(id));
  EXPECT_EQ(engine.plan(id).kind, PlanKind::kNodeSelection);
}

TEST(QueryEngineTest, ZeroQueriesIdleTick) {
  World w(1);
  QueryEngine engine(&w.topo, {}, {}, QueryEngineOptions{});
  Rng rng(2);
  auto r = engine.Tick(w.field.Sample(&rng));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, QueryEngine::EpochKind::kIdle);
  EXPECT_TRUE(r->per_query.empty());
  EXPECT_EQ(r->energy_mj, 0.0);
}

TEST(QueryEngineTest, FourQueriesShareTheRadioAndLedgersReconcile) {
  World w(3);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  QueryEngine engine(&w.topo, {}, {}, opts, 7);

  QuerySpec a;  // LP+LF, the default
  a.k = 5;
  a.energy_budget_mj = 10.0;
  QuerySpec b;
  b.k = 10;
  b.energy_budget_mj = 14.0;
  QuerySpec c;
  c.k = 3;
  c.energy_budget_mj = 8.0;
  c.planner = PlannerChoice::kLpNoFilter;
  QuerySpec d;
  d.k = 4;
  d.energy_budget_mj = 6.0;
  d.planner = PlannerChoice::kGreedy;  // node-selection joins the merge
  const int qa = engine.AddQuery(a);
  const int qb = engine.AddQuery(b);
  const int qc = engine.AddQuery(c);
  const int qd = engine.AddQuery(d);
  EXPECT_EQ(engine.num_queries(), 4);

  Rng rng(8);
  int query_epochs = 0;
  long long shared_values = 0;
  for (int t = 0; t < 30; ++t) {
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->per_query.size(), 4u);
    if (r->kind == QueryEngine::EpochKind::kQuery) {
      ++query_epochs;
      shared_values += r->shared_values;
      for (const auto& qr : r->per_query) {
        EXPECT_EQ(qr.kind, QueryEngine::QueryEpochKind::kQuery);
        EXPECT_FALSE(qr.answer.empty());
        EXPECT_GT(qr.energy_mj, 0.0);
      }
      // Attributed epoch shares sum to the epoch total.
      double shares = 0.0;
      for (const auto& qr : r->per_query) shares += qr.energy_mj;
      EXPECT_TRUE(obs::CheckEnergyLedger(shares, r->energy_mj).ok);
    }
  }
  ASSERT_GT(query_epochs, 10);
  EXPECT_GT(shared_values, 0) << "co-resident plans never shared an edge";
  EXPECT_EQ(engine.superplan().num_queries(), 4);

  // Per-query cumulative ledgers reconcile against the audited totals.
  for (int id : {qa, qb, qc, qd}) {
    EXPECT_GT(engine.query_energy_mj(id), 0.0);
    EXPECT_GT(engine.sampling_energy_mj(id), 0.0);
  }
  const double per_query_sum =
      engine.query_energy_mj(qa) + engine.query_energy_mj(qb) +
      engine.query_energy_mj(qc) + engine.query_energy_mj(qd);
  EXPECT_TRUE(
      obs::CheckEnergyLedger(per_query_sum, engine.query_energy_mj()).ok)
      << per_query_sum << " vs " << engine.query_energy_mj();
  const double all_ledgers =
      engine.total_energy_mj(qa) + engine.total_energy_mj(qb) +
      engine.total_energy_mj(qc) + engine.total_energy_mj(qd);
  EXPECT_TRUE(obs::CheckEnergyLedger(all_ledgers, engine.total_energy_mj()).ok)
      << all_ledgers << " vs " << engine.total_energy_mj();
}

TEST(QueryEngineTest, AdmissionHydratesWindowAndRetirementSticks) {
  World w(5);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  QueryEngine engine(&w.topo, {}, {}, opts, 9);
  QuerySpec spec;
  spec.k = 5;
  const int first = engine.AddQuery(spec);

  Rng rng(10);
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(engine.Tick(w.field.Sample(&rng)).ok());
  }
  // A latecomer starts with the incumbents' sweep history.
  QuerySpec late;
  late.k = 8;
  const int second = engine.AddQuery(late);
  EXPECT_NE(first, second);
  EXPECT_EQ(engine.samples(second).num_samples(),
            engine.samples(first).num_samples());
  EXPECT_GT(engine.samples(second).num_samples(), 0);

  bool second_answered = false;
  for (int t = 0; t < 15; ++t) {
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok());
    for (const auto& qr : r->per_query) {
      if (qr.query_id == second &&
          qr.kind == QueryEngine::QueryEpochKind::kQuery) {
        second_answered = !qr.answer.empty();
      }
    }
  }
  EXPECT_TRUE(second_answered);

  // Retirement: id disappears, ticks keep serving the survivor, energy
  // totals stay monotone.
  const double total_before = engine.total_energy_mj();
  EXPECT_TRUE(engine.RemoveQuery(first));
  EXPECT_FALSE(engine.RemoveQuery(first));
  EXPECT_EQ(engine.num_queries(), 1);
  EXPECT_EQ(engine.query_ids(), (std::vector<int>{second}));
  for (int t = 0; t < 5; ++t) {
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->per_query.size(), 1u);
    EXPECT_EQ(r->per_query[0].query_id, second);
  }
  EXPECT_GE(engine.total_energy_mj(), total_before);
}

TEST(QueryEngineTest, RetireThenReadmitNeverAliasesState) {
  // Pins the fleet contract: a retired query's id, attributed-energy
  // pools, and health windows can never be revived by a newcomer.
  World w(11);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  QueryEngine engine(&w.topo, {}, {}, opts, 13);
  QuerySpec spec;
  spec.k = 4;
  const int victim = engine.AddQuery(spec);
  const int survivor = engine.AddQuery(spec);

  Rng rng(14);
  for (int t = 0; t < 12; ++t) {
    ASSERT_TRUE(engine.Tick(w.field.Sample(&rng)).ok());
  }
  const double victim_energy = engine.total_energy_mj(victim);
  const QueryHealth victim_health = engine.query_health(victim);
  EXPECT_GT(victim_energy, 0.0);
  EXPECT_GT(victim_health.scored_epochs, 0);
  const double engine_total = engine.total_energy_mj();

  ASSERT_TRUE(engine.RemoveQuery(victim));
  // The retired energy stays in the engine totals...
  EXPECT_EQ(engine.total_energy_mj(), engine_total);
  // ...and the id is burned: neither allocation path hands it out again.
  EXPECT_FALSE(engine.AddQueryWithId(victim, spec).ok());
  const int readmitted = engine.AddQuery(spec);
  EXPECT_NE(readmitted, victim);
  EXPECT_NE(readmitted, survivor);
  EXPECT_GT(readmitted, survivor);

  // The newcomer starts with fresh pools and a fresh health window, not
  // the retiree's.
  EXPECT_EQ(engine.total_energy_mj(readmitted), 0.0);
  const QueryHealth fresh = engine.query_health(readmitted);
  EXPECT_EQ(fresh.scored_epochs, 0);
  EXPECT_EQ(fresh.status, HealthStatus::kUnknown);

  // External ids can skip ahead; internal allocation never collides.
  auto external = engine.AddQueryWithId(readmitted + 5, spec);
  ASSERT_TRUE(external.ok());
  EXPECT_EQ(engine.AddQuery(spec), readmitted + 6);
  // But an ever-used external id stays refused even after retirement.
  ASSERT_TRUE(engine.RemoveQuery(readmitted + 5));
  EXPECT_FALSE(engine.AddQueryWithId(readmitted + 5, spec).ok());

  for (int t = 0; t < 5; ++t) {
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok());
    for (const auto& qr : r->per_query) EXPECT_NE(qr.query_id, victim);
  }
}

TEST(QueryEngineTest, PerQueryAuditsRunAlongsideMergedQueries) {
  World w(6, 30);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 5;
  QueryEngine engine(&w.topo, {}, {}, opts, 11);
  QuerySpec audited;
  audited.k = 4;
  audited.energy_budget_mj = 8.0;
  audited.audit_every = 6;
  QuerySpec plain;
  plain.k = 6;
  plain.energy_budget_mj = 10.0;
  const int q_audited = engine.AddQuery(audited);
  engine.AddQuery(plain);

  Rng rng(12);
  int audits = 0;
  int merged_during_audit = 0;
  for (int t = 0; t < 60; ++t) {
    const std::vector<double> truth = w.field.Sample(&rng);
    auto r = engine.Tick(truth);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    bool this_epoch_audited = false;
    for (const auto& qr : r->per_query) {
      if (qr.kind == QueryEngine::QueryEpochKind::kAudit) {
        ASSERT_EQ(qr.query_id, q_audited);
        ++audits;
        this_epoch_audited = true;
        EXPECT_EQ(qr.answer, TrueTopK(truth, audited.k))
            << "audits must be exact";
        EXPECT_GE(qr.proven, 0);
      }
    }
    if (this_epoch_audited) {
      for (const auto& qr : r->per_query) {
        if (qr.kind == QueryEngine::QueryEpochKind::kQuery) {
          ++merged_during_audit;
          EXPECT_FALSE(qr.answer.empty());
        }
      }
    }
  }
  EXPECT_GE(audits, 3);
  EXPECT_GT(merged_during_audit, 0)
      << "the unaudited query must keep answering during audits";
  EXPECT_GT(engine.audit_energy_mj(q_audited), 0.0);
}

// A proof certifies at most min(k, n) values, so an audit that proves
// every node of a tree smaller than k is fully accurate and must leave
// exploration at its base rate. k = 8 on a 6-node star, where every proof
// plan delivers every reading to the root.
TEST(QueryEngineTest, AuditAccuracyIsScoredAgainstMinOfKAndTreeSize) {
  auto topo = net::Topology::FromParents({-1, 0, 0, 0, 0, 0}).value();
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 3;
  QueryEngine engine(&topo, {}, {}, opts, 29);
  QuerySpec spec;
  spec.k = 8;
  spec.energy_budget_mj = 20.0;
  spec.planner = PlannerChoice::kGreedy;
  spec.audit_every = 1;
  const int id = engine.AddQuery(spec);

  Rng rng(30);
  int audits = 0;
  for (int t = 0; t < 40; ++t) {
    std::vector<double> truth(6);
    for (double& v : truth) v = rng.Uniform(0.0, 100.0);
    auto r = engine.Tick(truth);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->per_query[0].kind != QueryEngine::QueryEpochKind::kAudit) continue;
    ++audits;
    EXPECT_EQ(r->per_query[0].proven, 6) << "epoch " << t;
    EXPECT_EQ(engine.manager(id).last_accuracy(), 1.0) << "epoch " << t;
    EXPECT_EQ(engine.manager(id).explore_probability(),
              spec.manager.base_explore_probability)
        << "epoch " << t;
  }
  EXPECT_GE(audits, 20);
}

// --- Audit-plan memo -----------------------------------------------------

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name)->value();
}

// The engine solves each audit's proof plan once per (k, budget, LP
// options) and sample window. Oracle: every audit executes exactly the
// plan a fresh ProofPlanner::Plan computes on that query's own window and
// the tree, across explore epochs, a mid-run admit, a retire and a
// watchdog heal; and the engine's solves and reuses follow that key, so
// same-spec queries share one solve while a different k or budget factor
// never rides on it.
TEST(QueryEngineTest, AuditPlanMemoMatchesFreshProofPlans) {
  World w(31, 30);
  int victim = -1;  // a leaf, so the heal re-trees the survivors
  for (int u = 0; u < w.topo.num_nodes() && victim < 0; ++u) {
    if (u != w.topo.root() && w.topo.is_leaf(u)) victim = u;
  }
  ASSERT_GE(victim, 0);
  constexpr int kAdmitEpoch = 14;
  constexpr int kKillEpoch = 24;
  constexpr int kRetireEpoch = 34;
  constexpr int kEpochs = 48;
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 4;
  opts.dead_after_epochs = 2;
  opts.rebuild_radio_range = 26.0;
  opts.faults.KillNode(kKillEpoch, victim);
  QueryEngine engine(&w.topo, {}, {}, opts, 23);

  // Greedy plans without LPs, so every LP solve in a tick is an audit's.
  // Every query epoch audits every query, so the heal (its watchdog counts
  // each audit's silent edges) lands in an epoch whose audits planned on
  // the old tree.
  QuerySpec shared;
  shared.k = 4;
  shared.energy_budget_mj = 8.0;
  shared.planner = PlannerChoice::kGreedy;
  shared.audit_every = 1;
  shared.manager.base_explore_probability = 0.15;
  QuerySpec other_k = shared;
  other_k.k = 5;
  QuerySpec other_factor = shared;
  other_factor.audit_budget_factor = 1.3;
  const std::pair<int, double> shared_key{shared.k,
                                          shared.audit_budget_factor};
  engine.AddQuery(shared);
  const int twin = engine.AddQuery(shared);
  engine.AddQuery(other_k);
  engine.AddQuery(other_factor);
  int late = -1;

  // The memo's model: which query first planned each (k, factor) key
  // since the windows last changed.
  std::map<std::pair<int, double>, int> planned_by;
  int checked = 0;
  int checked_after_heal = 0;
  int cross_query_reuses = 0;
  int late_reuses = 0;
  int distinct_solves_beside_shared = 0;
  int heal_epoch_audits = 0;
  Rng rng(24);
  for (int t = 0; t < kEpochs; ++t) {
    if (t == kAdmitEpoch) late = engine.AddQuery(shared);
    if (t == kRetireEpoch) {
      ASSERT_TRUE(engine.RemoveQuery(twin));
    }
    // Audits plan before the heal, on the windows and tree the tick
    // starts from.
    const net::Topology tree = engine.topology();
    std::map<int, sampling::SampleSet> windows;
    for (int id : engine.query_ids()) windows.emplace(id, engine.samples(id));
    const bool healed_before = engine.rebuilds() > 0;

    const int64_t solves_before = CounterValue("lp.solves");
    const int64_t reuses_before = CounterValue("engine.audit_plan_reuses");
    auto r = engine.Tick(w.field.Sample(&rng));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int64_t tick_solves = CounterValue("lp.solves") - solves_before;
    const int64_t tick_reuses =
        CounterValue("engine.audit_plan_reuses") - reuses_before;

    if (r->kind != QueryEngine::EpochKind::kQuery) planned_by.clear();
    int64_t want_solves = 0;
    int64_t want_reuses = 0;
    for (const auto& qr : r->per_query) {
      if (qr.kind != QueryEngine::QueryEpochKind::kAudit) continue;
      const QuerySpec& spec = engine.spec(qr.query_id);
      const PlannerContext ctx{&tree, {}, {}};
      const int64_t oracle_before = CounterValue("lp.solves");
      auto fresh = ProofPlanner(spec.lp).Plan(
          ctx, windows.at(qr.query_id),
          PlanRequest{spec.k, ProofPlanner::MinimumCost(ctx) *
                                  spec.audit_budget_factor});
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      const std::pair<int, double> key{spec.k, spec.audit_budget_factor};
      const auto [it, first] = planned_by.emplace(key, qr.query_id);
      if (first) {
        want_solves += CounterValue("lp.solves") - oracle_before;
        if (key != shared_key && planned_by.count(shared_key)) {
          ++distinct_solves_beside_shared;
        }
      } else {
        ++want_reuses;
        if (it->second != qr.query_id) ++cross_query_reuses;
        if (qr.query_id == late && it->second != late) ++late_reuses;
      }
      if (r->rebuilt) {
        // The memo holds nothing for the rebuilt tree.
        EXPECT_EQ(engine.audit_plan(qr.query_id), nullptr) << "epoch " << t;
        ++heal_epoch_audits;
        continue;
      }
      const QueryPlan* executed = engine.audit_plan(qr.query_id);
      ASSERT_NE(executed, nullptr) << "epoch " << t;
      EXPECT_TRUE(*executed == *fresh)
          << "query " << qr.query_id << " epoch " << t;
      ++checked;
      if (healed_before) ++checked_after_heal;
    }
    if (r->rebuilt) planned_by.clear();
#ifndef PROSPECTOR_OBS_DISABLED
    EXPECT_EQ(tick_solves, want_solves) << "epoch " << t;
    EXPECT_EQ(tick_reuses, want_reuses) << "epoch " << t;
#endif
  }
  EXPECT_EQ(engine.rebuilds(), 1);
  EXPECT_GT(heal_epoch_audits, 0);
  EXPECT_GE(checked, 40);
  EXPECT_GT(checked_after_heal, 0);
  EXPECT_GT(cross_query_reuses, 0);
  EXPECT_GT(late_reuses, 0);
  EXPECT_GT(distinct_solves_beside_shared, 0);
}

// --- Health monitor ------------------------------------------------------

// The acceptance scenario for HealthReport(): kill the subtree holding a
// query's entire answer and the victim must go unhealthy within
// breach_epochs (2) scored epochs, while a co-resident query whose recall
// survives the kill stays healthy.
TEST(QueryEngineHealthTest, SubtreeKillFlagsVictimWithinTwoEpochs) {
  // Star: root 0, leaves 1..6. Node 1 holds the unique top-1 value, so
  // killing it zeroes the k=1 query's recall while the k=5 query keeps
  // 4 of its 5 members (0.8 >= the 0.7 SLO floor).
  auto topo = net::Topology::FromParents({-1, 0, 0, 0, 0, 0, 0}).value();
  const std::vector<double> truth = {1.0, 100.0, 50.0, 40.0, 30.0, 20.0,
                                     10.0};
  constexpr int kKillEpoch = 5;

  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 3;
  opts.faults.KillNode(kKillEpoch, 1);
  QueryEngine engine(&topo, {}, {}, opts, 13);

  QuerySpec victim;
  victim.k = 1;
  victim.energy_budget_mj = 20.0;
  victim.manager.base_explore_probability = 0.0;
  victim.manager.boosted_explore_probability = 0.0;
  QuerySpec survivor = victim;
  survivor.k = 5;
  const int victim_id = engine.AddQuery(victim);
  const int survivor_id = engine.AddQuery(survivor);

  int victim_unhealthy_at = -1;
  for (int t = 0; t < 12; ++t) {
    auto r = engine.Tick(truth);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const auto& qr : r->per_query) {
      if (qr.query_id == victim_id && qr.health == HealthStatus::kUnhealthy &&
          victim_unhealthy_at < 0) {
        victim_unhealthy_at = t;
      }
    }
    if (t < kKillEpoch && t >= opts.bootstrap_sweeps) {
      // Before the kill both queries answer perfectly: nobody is flagged.
      for (const auto& qr : r->per_query) {
        EXPECT_NE(qr.health, HealthStatus::kUnhealthy)
            << "query " << qr.query_id << " flagged before the fault at t="
            << t;
      }
    }
  }

  ASSERT_GE(victim_unhealthy_at, 0) << "victim was never flagged";
  EXPECT_LE(victim_unhealthy_at, kKillEpoch + 1)
      << "unhealthy must trip within breach_epochs=2 of the kill";

  const QueryHealth victim_health = engine.query_health(victim_id);
  EXPECT_EQ(victim_health.status, HealthStatus::kUnhealthy);
  EXPECT_GE(victim_health.consecutive_breaches, 2);
  EXPECT_NE(victim_health.breached.find("recall"), std::string::npos);
  EXPECT_DOUBLE_EQ(victim_health.last_recall, 0.0);

  const QueryHealth survivor_health = engine.query_health(survivor_id);
  EXPECT_EQ(survivor_health.status, HealthStatus::kHealthy)
      << "co-resident query breached despite recall "
      << survivor_health.last_recall;
  EXPECT_GE(survivor_health.last_recall, 0.7);

  // HealthReport lists both, in admission order, with matching verdicts.
  const std::vector<QueryHealth> report = engine.HealthReport();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].query_id, victim_id);
  EXPECT_EQ(report[0].status, HealthStatus::kUnhealthy);
  EXPECT_EQ(report[1].query_id, survivor_id);
  EXPECT_EQ(report[1].status, HealthStatus::kHealthy);

  // The planner's predicted recall and the realized residual both surface.
  EXPECT_GE(report[0].predicted_recall, 0.0);
  EXPECT_GT(report[0].recall_residual, 0.0)
      << "prediction should exceed realized recall after the kill";
}

// A disarmed SLO never trips: thresholds of -1 disable each check.
TEST(QueryEngineHealthTest, DisarmedSloNeverTrips) {
  auto topo = net::Topology::FromParents({-1, 0, 0, 0}).value();
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 2;
  opts.faults.KillNode(3, 1);
  QueryEngine engine(&topo, {}, {}, opts, 17);
  QuerySpec spec;
  spec.k = 1;
  spec.slo.min_recall = -1.0;  // nothing armed
  spec.manager.base_explore_probability = 0.0;
  spec.manager.boosted_explore_probability = 0.0;
  const int id = engine.AddQuery(spec);
  const std::vector<double> truth = {1.0, 100.0, 50.0, 40.0};
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(engine.Tick(truth).ok());
  }
  EXPECT_NE(engine.query_health(id).status, HealthStatus::kUnhealthy);
  EXPECT_NE(engine.query_health(id).status, HealthStatus::kDegraded);
}

// The health scrape parses back to every field in declaration order, with
// numbers exact: an energy of 615.3320000000001 mJ keeps its last digit.
TEST(QueryEngineHealthTest, HealthReportJsonParsesToEveryField) {
  QueryHealth q;
  q.query_id = 4;
  q.deployment_id = 2;
  q.tenant_id = 9;
  q.status = HealthStatus::kDegraded;
  q.scored_epochs = 12;
  q.consecutive_breaches = 1;
  q.last_recall = 0.6;
  q.mean_recall = 2.0 / 3.0;
  q.mean_energy_mj = 615.3320000000001;
  q.mean_replan_latency_ms = 0.125;
  q.mean_guard_rejects = 1.5;
  q.predicted_recall = 0.9;
  q.recall_residual = 0.9 - 0.6;
  q.breached = "recall,energy";

  auto json = util::Json::Parse(HealthReportJson({q, QueryHealth{}}));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  ASSERT_EQ(json->size(), 2u);
  const util::Json& j = (*json)[0];
  std::vector<std::string> keys;
  for (const auto& [key, value] : j.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "query", "deployment", "tenant", "status",
                      "scored_epochs", "consecutive_breaches", "last_recall",
                      "mean_recall", "mean_energy_mj",
                      "mean_replan_latency_ms", "mean_guard_rejects",
                      "predicted_recall", "recall_residual", "breached"}));
  EXPECT_EQ(j.at("query").number(), 4);
  EXPECT_EQ(j.at("deployment").number(), 2);
  EXPECT_EQ(j.at("tenant").number(), 9);
  EXPECT_EQ(j.at("status").str(), "degraded");
  EXPECT_EQ(j.at("scored_epochs").number(), 12);
  EXPECT_EQ(j.at("consecutive_breaches").number(), 1);
  EXPECT_EQ(j.at("last_recall").number(), q.last_recall);
  EXPECT_EQ(j.at("mean_recall").number(), q.mean_recall);
  EXPECT_EQ(j.at("mean_energy_mj").number(), q.mean_energy_mj);
  EXPECT_EQ(j.at("mean_replan_latency_ms").number(),
            q.mean_replan_latency_ms);
  EXPECT_EQ(j.at("mean_guard_rejects").number(), q.mean_guard_rejects);
  EXPECT_EQ(j.at("predicted_recall").number(), q.predicted_recall);
  EXPECT_EQ(j.at("recall_residual").number(), q.recall_residual);
  EXPECT_EQ(j.at("breached").str(), "recall,energy");
  // A default (untagged, signal-less) entry keeps its -1 sentinels.
  EXPECT_EQ((*json)[1].at("query").number(), -1);
  EXPECT_EQ((*json)[1].at("status").str(), "unknown");
  EXPECT_EQ((*json)[1].at("mean_recall").number(), -1);
  EXPECT_EQ((*json)[1].at("breached").str(), "");
}

// --- MetricsRegistry::ResetAll leakage (satellite) -----------------------

// Two engine lifetimes with a ResetAll between them must start from the
// same observability state: no counter value, flight event, or trace span
// may leak from the first run into the second run's snapshot.
TEST(QueryEngineTest, ResetAllClearsCrossRunObservabilityState) {
  const auto run_once = [] {
    World w(21, 30);
    QueryEngineOptions opts;
    opts.bootstrap_sweeps = 3;
    QueryEngine engine(&w.topo, {}, {}, opts, 19);
    QuerySpec spec;
    spec.k = 4;
    engine.AddQuery(spec);
    Rng rng(22);
    for (int t = 0; t < 8; ++t) {
      EXPECT_TRUE(engine.Tick(w.field.Sample(&rng)).ok());
    }
  };

  obs::MetricsRegistry::Global().ResetAll();
  run_once();
  const obs::MetricsSnapshot first = obs::MetricsRegistry::Global().Snapshot();
  const size_t first_flight = obs::FlightRecorder::Global().Snapshot().size();

  obs::MetricsRegistry::Global().ResetAll();
#ifndef PROSPECTOR_OBS_DISABLED
  // ResetAll wiped the flight recorder along with the metrics...
  EXPECT_TRUE(obs::FlightRecorder::Global().Snapshot().empty());
  EXPECT_GT(first_flight, 0u);
#endif
#ifndef PROSPECTOR_OBS_DISABLED
  // ...and a zeroed registry renders differently from a used one. (In OFF
  // builds both snapshots are empty, so only the leak equality below holds.)
  EXPECT_NE(obs::MetricsRegistry::Global().Snapshot().ToJson(),
            first.ToJson());
#endif

  run_once();
  const obs::MetricsSnapshot second =
      obs::MetricsRegistry::Global().Snapshot();
  // Identical runs from identical zero states leave identical counters —
  // any leak through ResetAll would break this equality. (Histograms are
  // excluded only because replan latency is wall-clock.)
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.gauges, second.gauges);

  // A local registry's ResetAll must NOT clear the global flight recorder
  // (it only owns its own metrics).
#ifndef PROSPECTOR_OBS_DISABLED
  obs::FlightRecorder::Global().Clear();
  obs::FlightRecorder::Global().Record(obs::FlightKind::kNote, "test.keep",
                                       -1, 1.0, 0.0);
  obs::MetricsRegistry local;
  local.counter("x")->Increment();
  local.ResetAll();
  EXPECT_EQ(local.counter("x")->value(), 0);
  EXPECT_EQ(obs::FlightRecorder::Global().Snapshot().size(), 1u);
  obs::FlightRecorder::Global().Clear();
#endif
  obs::MetricsRegistry::Global().ResetAll();
}

}  // namespace
}  // namespace core
}  // namespace prospector
