#include "src/core/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/plan_merge.h"
#include "src/data/gaussian_field.h"
#include "src/obs/audit.h"
#include "src/obs/obs.h"
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

TEST(QueryEngineTest, RetiredQueriesReleaseTheirCachedLps) {
  // Churn: each round admits an LP query, ticks until it has planned and
  // audited, then retires the oldest. A query caches at most one LP per
  // planner kind under its own id (here its planner's and the audit's
  // proof LP), so the workspace must hold entries for standing queries
  // only, not for every query ever admitted.
  World w(21, 30);
  QueryEngineOptions opts;
  opts.bootstrap_sweeps = 3;
  QueryEngine engine(&w.topo, {}, {}, opts, 23);
  Rng rng(24);
  std::deque<int> standing;
  for (int round = 0; round < 12; ++round) {
    QuerySpec spec;
    spec.k = 4;
    spec.planner = round % 2 == 0 ? PlannerChoice::kLpFilter
                                  : PlannerChoice::kLpNoFilter;
    spec.audit_every = 2;
    standing.push_back(engine.AddQuery(spec));
    for (int t = 0; t < 4; ++t) {
      ASSERT_TRUE(engine.Tick(w.field.Sample(&rng)).ok());
    }
    if (standing.size() > 2) {
      ASSERT_TRUE(engine.RemoveQuery(standing.front()));
      standing.pop_front();
    }
    EXPECT_LE(engine.workspace().num_lp_entries(), 2 * standing.size())
        << "round " << round;
  }
  EXPECT_GT(engine.workspace().num_lp_entries(), 0u);
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
