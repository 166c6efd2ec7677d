// Contract of the incremental planning workspace: threading a
// PlanningWorkspace through any planner changes how much work planning
// costs, never what plan comes out. Every planner is swept across
// sliding sample windows and topology rebuilds with and without a
// workspace, and both must agree bit for bit, serially and pooled. Plus
// the cache-policy units: lease collisions, eviction by lease key,
// PlanManager's steady-state short-circuit, and counter surfacing.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_eval.h"
#include "src/core/plan_manager.h"
#include "src/core/proof_planner.h"
#include "src/core/workspace.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

struct Instance {
  net::Topology topology;
  sampling::SampleSet samples;
  PlannerContext ctx;
  data::GaussianField field;
  Rng rng;
};

Instance MakeInstance(int n, int k, int num_samples, uint64_t seed,
                      size_t window = 0) {
  Rng rng(seed);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 25.0;
  Instance inst{net::BuildConnectedGeometricNetwork(geo, &rng).value(),
                sampling::SampleSet::ForTopK(n, k, window), PlannerContext{},
                data::GaussianField::Random(n, 40, 60, 1, 16, &rng),
                Rng(seed ^ 0xabcdef)};
  for (int s = 0; s < num_samples; ++s) {
    inst.samples.Add(inst.field.Sample(&inst.rng));
  }
  inst.ctx.topology = &inst.topology;
  return inst;
}

void ExpectSamePlan(const QueryPlan& a, const QueryPlan& b,
                    const std::string& where) {
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.k, b.k) << where;
  EXPECT_EQ(a.bandwidth, b.bandwidth) << where;
  EXPECT_EQ(a.chosen, b.chosen) << where;
}

std::unique_ptr<Planner> MakePlanner(int which, int threads,
                                     lp::SimplexOptions simplex = {}) {
  LpPlannerOptions lp;
  lp.threads = threads;
  lp.simplex = simplex;
  switch (which) {
    case 0:
      return std::make_unique<GreedyPlanner>(GreedyPlannerOptions{threads});
    case 1:
      return std::make_unique<LpNoFilterPlanner>(lp);
    case 2:
      return std::make_unique<LpFilterPlanner>(lp);
    default:
      return std::make_unique<ProofPlanner>(lp);
  }
}

double LastLpObjective(Planner* planner, int which) {
  switch (which) {
    case 1:
      return static_cast<LpNoFilterPlanner*>(planner)->last_lp_objective();
    case 2:
      return static_cast<LpFilterPlanner*>(planner)->last_lp_objective();
    case 3:
      return static_cast<ProofPlanner*>(planner)->last_lp_objective();
    default:
      return 0.0;
  }
}

// The acceptance sweep: every planner, across a sliding window and a
// topology rebuild, plans bit-identically with no workspace and with one
// (cached models patched, tombstoned, grown, and solved once per plan).
void RunIdentitySweep(int threads) {
  for (int which = 0; which < 4; ++which) {
    Instance inst = MakeInstance(36, 6, 10, 90 + which, /*window=*/10);

    PlanningWorkspace ws;
    auto bare_planner = MakePlanner(which, threads);
    auto ws_planner = MakePlanner(which, threads);
    PlannerContext ws_ctx = inst.ctx;
    ws_ctx.workspace = &ws;

    // Proof plans need the per-edge floor covered; the others get a mid
    // budget so rounding and repair paths all engage.
    const double budget =
        which == 3 ? ProofPlanner::MinimumCost(inst.ctx) * 1.6 : 9.0;
    PlanRequest request{6, budget};

    auto plan_all = [&](const std::string& where) {
      auto a = bare_planner->Plan(inst.ctx, inst.samples, request);
      auto b = ws_planner->Plan(ws_ctx, inst.samples, request);
      ASSERT_TRUE(a.ok()) << where << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << where << ": " << b.status().ToString();
      ExpectSamePlan(*a, *b, where + ", planner " + bare_planner->name());
      const double cold = LastLpObjective(bare_planner.get(), which);
      EXPECT_NEAR(LastLpObjective(ws_planner.get(), which), cold,
                  1e-6 * (1.0 + std::abs(cold)))
          << where << ", planner " << bare_planner->name();
    };

    plan_all("cold");
    // Slide the window: three appends (evicting three rows) per step, so
    // cached LPs tombstone old blocks and append fresh ones.
    for (int step = 0; step < 3; ++step) {
      for (int add = 0; add < 3; ++add) {
        inst.samples.Add(inst.field.Sample(&inst.rng));
      }
      plan_all("slide step " + std::to_string(step));
    }
    // Budget drift patches the RHS without rebuilding.
    request.energy_budget_mj *= 1.25;
    plan_all("budget drift");

    // Topology rebuild: a fresh epoch must invalidate every cache.
    Rng rng2(1234 + which);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = 36;
    geo.radio_range = 28.0;
    net::Topology rebuilt =
        net::BuildConnectedGeometricNetwork(geo, &rng2).value();
    EXPECT_NE(rebuilt.epoch(), inst.topology.epoch());
    inst.topology = std::move(rebuilt);
    request.energy_budget_mj =
        which == 3 ? ProofPlanner::MinimumCost(inst.ctx) * 1.6 : 9.0;
    plan_all("after rebuild");
    plan_all("steady state on rebuilt tree");

    // The workspace must actually have been exercised, not bypassed.
    const WorkspaceCounters t = ws.counters();
    EXPECT_GT(t.topo_hits + t.topo_misses, 0)
        << bare_planner->name() << " never touched the topology caches";
    if (which != 0) {  // greedy has no LP
      EXPECT_GT(t.lp_misses, 0) << bare_planner->name();
      EXPECT_GT(t.lp_hits, 0)
          << bare_planner->name() << " never reused a cached LP";
      EXPECT_GT(t.lp_patches, 0) << bare_planner->name();
    }
  }
}

TEST(WorkspaceIdentityTest, AllPlannersBitIdenticalSerial) {
  RunIdentitySweep(/*threads=*/1);
}

TEST(WorkspaceIdentityTest, AllPlannersBitIdenticalPooled) {
  RunIdentitySweep(/*threads=*/4);
}

// The acceptance gate for the revised simplex engine: every planner run
// with the dense oracle forced and with the revised engine forced must
// reach the same LP objective. In a -DPROSPECTOR_LP_CROSSCHECK=ON build,
// where every revised solve also runs the dense oracle and returns its
// solution, the plans themselves are bit-identical — a degenerate LP
// cannot round an alternate vertex into a different plan.
TEST(WorkspaceIdentityTest, PlansAgreeAcrossSimplexEnginesUnderCrossCheck) {
  for (int which = 0; which < 4; ++which) {
    Instance inst = MakeInstance(40, 6, 12, 400 + which);

    lp::SimplexOptions dense_opts;
    dense_opts.algorithm = lp::SimplexAlgorithm::kDense;
    lp::SimplexOptions revised_opts;
    revised_opts.algorithm = lp::SimplexAlgorithm::kRevised;

    auto dense_planner = MakePlanner(which, /*threads=*/0, dense_opts);
    auto revised_planner = MakePlanner(which, /*threads=*/0, revised_opts);

    const double budget =
        which == 3 ? ProofPlanner::MinimumCost(inst.ctx) * 1.6 : 9.0;
    PlanRequest request{6, budget};

    auto dense_plan = dense_planner->Plan(inst.ctx, inst.samples, request);
    auto revised_plan = revised_planner->Plan(inst.ctx, inst.samples, request);
    ASSERT_TRUE(dense_plan.ok()) << dense_plan.status().ToString();
    ASSERT_TRUE(revised_plan.ok()) << revised_plan.status().ToString();

    const std::string where = "planner " + std::string(dense_planner->name());
    if (which == 0) {
      // No LP in greedy: engine choice cannot matter.
      ExpectSamePlan(*dense_plan, *revised_plan, where);
      continue;
    }
    const double dense_obj = LastLpObjective(dense_planner.get(), which);
    const double revised_obj = LastLpObjective(revised_planner.get(), which);
    EXPECT_NEAR(revised_obj, dense_obj, 1e-6 * (1.0 + std::abs(dense_obj)))
        << where;
#ifdef PROSPECTOR_LP_CROSSCHECK
    ExpectSamePlan(*dense_plan, *revised_plan, where);
#endif
  }
}

TEST(WorkspaceIdentityTest, PlanSweepIdenticalWithWorkspace) {
  Instance inst = MakeInstance(40, 8, 12, 77);
  std::vector<PlanRequest> requests;
  for (double budget : {3.0, 6.0, 9.0, 12.0}) {
    requests.push_back(PlanRequest{8, budget});
  }
  PlannerFactory factory = [] { return std::make_unique<LpFilterPlanner>(); };

  const auto bare = PlanSweep(factory, inst.ctx, inst.samples, requests);
  PlanningWorkspace ws;
  util::ThreadPool pool(4);
  // Two sweeps through one workspace: the second hits the per-request
  // cached LPs (lease key = request index), pooled on top.
  for (int round = 0; round < 2; ++round) {
    const auto cached = PlanSweep(factory, inst.ctx, inst.samples, requests,
                                  &pool, &ws);
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(bare[i].ok() && cached[i].ok());
      ExpectSamePlan(*bare[i], *cached[i],
                     "request " + std::to_string(i) + " round " +
                         std::to_string(round));
    }
  }
  EXPECT_GT(ws.counters().lp_hits, 0);
}

TEST(WorkspaceTest, LeaseCollisionFallsBackToThrowawayEntry) {
  PlanningWorkspace ws;
  auto lease1 = ws.AcquireLp(LpKind::kNoFilter, 0);
  ASSERT_TRUE(lease1);
  lease1.get()->built = true;
  lease1.get()->topo_epoch = 42;

  // Same slot while leased out: a usable throwaway, not the cached entry.
  auto lease2 = ws.AcquireLp(LpKind::kNoFilter, 0);
  ASSERT_TRUE(lease2);
  EXPECT_FALSE(lease2.get()->built);
  lease2.get()->topo_epoch = 7;  // must not leak into the cache
  lease2.Release();
  lease1.Release();

  auto lease3 = ws.AcquireLp(LpKind::kNoFilter, 0);
  ASSERT_TRUE(lease3);
  EXPECT_TRUE(lease3.get()->built);
  EXPECT_EQ(lease3.get()->topo_epoch, 42u);

  // Distinct kinds and keys are distinct slots.
  auto other_kind = ws.AcquireLp(LpKind::kFilter, 0);
  auto other_key = ws.AcquireLp(LpKind::kNoFilter, 1);
  EXPECT_FALSE(other_kind.get()->built);
  EXPECT_FALSE(other_key.get()->built);
}

TEST(WorkspaceTest, DropLpsEvictsEveryKindUnderOneKey) {
  PlanningWorkspace ws;
  for (LpKind kind : {LpKind::kNoFilter, LpKind::kFilter, LpKind::kProof}) {
    for (int key : {7, 8}) ws.AcquireLp(kind, key).get()->built = true;
  }
  EXPECT_EQ(ws.num_lp_entries(), 6u);

  ws.DropLps(7);
  EXPECT_EQ(ws.num_lp_entries(), 3u);
  EXPECT_FALSE(ws.AcquireLp(LpKind::kFilter, 7).get()->built);
  EXPECT_TRUE(ws.AcquireLp(LpKind::kFilter, 8).get()->built);
}

TEST(WorkspaceTest, ClearDropsCachesAndInFlightLeases) {
  PlanningWorkspace ws;
  {
    auto lease = ws.AcquireLp(LpKind::kProof, 3);
    lease.get()->built = true;
    ws.Clear();  // the lease predates the Clear; its entry must be dropped
  }
  auto again = ws.AcquireLp(LpKind::kProof, 3);
  EXPECT_FALSE(again.get()->built);
}

TEST(WorkspaceTest, CountersAppearInMetricsSnapshot) {
#ifdef PROSPECTOR_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out in OBS=OFF builds";
#endif
  obs::MetricsRegistry::Global().Reset();
  Instance inst = MakeInstance(30, 5, 8, 55);
  PlanningWorkspace ws;
  PlannerContext ctx = inst.ctx;
  ctx.workspace = &ws;
  LpNoFilterPlanner planner;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(planner.Plan(ctx, inst.samples, PlanRequest{5, 8.0}).ok());
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const std::string& name) -> int64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_GT(counter("workspace.topo.miss"), 0);
  EXPECT_GT(counter("workspace.topo.hit"), 0);
  EXPECT_EQ(counter("workspace.lp.miss"), 1);
  EXPECT_EQ(counter("workspace.lp.hit"), 1);
  EXPECT_GT(counter("workspace.lp.patch"), 0);
}

// A planner that records how often it actually runs — the probe for
// PlanManager's steady-state short-circuit.
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

TEST(PlanManagerWorkspaceTest, SteadyStateReplansAreShortCircuited) {
  Instance inst = MakeInstance(30, 5, 10, 66);
  PlanningWorkspace ws;
  PlannerContext ctx = inst.ctx;
  ctx.workspace = &ws;
  net::NetworkSimulator sim(&inst.topology, ctx.energy);

  CountingPlanner planner;
  PlanManager manager(&planner, PlanRequest{5, 8.0});

  auto first = manager.MaybeReplan(ctx, inst.samples, &sim);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  EXPECT_EQ(planner.calls, 1);

  // Nothing moved: the decision memo answers without planning.
  for (int i = 0; i < 3; ++i) {
    auto again = manager.MaybeReplan(ctx, inst.samples, &sim);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(*again);
  }
  EXPECT_EQ(planner.calls, 1);

  // A new sample bumps the window version; the next call must re-plan.
  inst.samples.Add(inst.field.Sample(&inst.rng));
  ASSERT_TRUE(manager.MaybeReplan(ctx, inst.samples, &sim).ok());
  EXPECT_EQ(planner.calls, 2);

  // Invalidation (a heal) wipes the memo too.
  manager.InvalidatePlan();
  auto reinstalled = manager.MaybeReplan(ctx, inst.samples, &sim);
  ASSERT_TRUE(reinstalled.ok());
  EXPECT_TRUE(*reinstalled);
  EXPECT_EQ(planner.calls, 3);
}

TEST(PlanManagerWorkspaceTest, NoWorkspaceMeansNoShortCircuit) {
  Instance inst = MakeInstance(30, 5, 10, 67);
  net::NetworkSimulator sim(&inst.topology, inst.ctx.energy);
  CountingPlanner planner;
  PlanManager manager(&planner, PlanRequest{5, 8.0});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.MaybeReplan(inst.ctx, inst.samples, &sim).ok());
  }
  EXPECT_EQ(planner.calls, 3);  // the seed behavior: every call plans
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
