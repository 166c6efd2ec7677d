// Determinism of pooled plan sweeps: PlanSweep on a thread pool returns
// exactly the serial sweep's plans, in request order. Plus SampleHits'
// packed scoring against its dense reference, and the regression test for
// the old root-index assumption in SampleHits (node 0 silently skipped
// when the root is not node 0).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_eval.h"
#include "src/core/plan_manager.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace core {
namespace {

struct Instance {
  net::Topology topology;
  sampling::SampleSet samples;
  PlannerContext ctx;
};

Instance MakeInstance(int n, int k, int num_samples, uint64_t seed) {
  Rng rng(seed);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 25.0;
  Instance inst{net::BuildConnectedGeometricNetwork(geo, &rng).value(),
                sampling::SampleSet::ForTopK(n, k), PlannerContext{}};
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  for (int s = 0; s < num_samples; ++s) inst.samples.Add(field.Sample(&rng));
  inst.ctx.topology = &inst.topology;
  return inst;
}

void ExpectSamePlan(const QueryPlan& a, const QueryPlan& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.chosen, b.chosen);
}

TEST(ParallelPlanningTest, PlanSweepMatchesSerialSweepInOrder) {
  Instance inst = MakeInstance(50, 8, 12, 45);
  std::vector<PlanRequest> requests;
  for (double budget : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    requests.push_back(PlanRequest{8, budget});
  }
  // Also sweep k at a fixed budget — a second independent dimension.
  for (int k : {2, 5, 12}) requests.push_back(PlanRequest{k, 10.0});

  PlannerFactory factory = [] { return std::make_unique<LpNoFilterPlanner>(); };
  const auto serial = PlanSweep(factory, inst.ctx, inst.samples, requests);
  util::ThreadPool pool(4);
  const auto parallel =
      PlanSweep(factory, inst.ctx, inst.samples, requests, &pool);

  ASSERT_EQ(serial.size(), requests.size());
  ASSERT_EQ(parallel.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].status().ToString();
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().ToString();
    ExpectSamePlan(*serial[i], *parallel[i]);
  }
}

// ---- Packed scoring: SampleHits reads SampleSet::row ----

// A random tree on n nodes rooted at `root`: each node hangs off one
// placed earlier in a shuffled order.
net::Topology RandomTree(int n, int root, Rng* rng) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::swap(order[0], order[root]);
  for (int i = n - 1; i > 1; --i) {
    std::swap(order[i], order[rng->UniformInt(1, i)]);
  }
  std::vector<int> parents(n, net::Topology::kNoParent);
  for (int p = 1; p < n; ++p) {
    parents[order[p]] = order[rng->UniformInt(0, p - 1)];
  }
  return net::Topology::FromParents(std::move(parents)).value();
}

TEST(SampleHitsTest, PackedRowsMatchDenseForBothPlanKinds) {
  // A geometric network, and a 65-node random tree (rows straddle a word)
  // rooted away from node 0. The window slides, so scored rows include
  // ones appended after evictions.
  Rng rng(0xabc);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 90;
  geo.radio_range = 25.0;
  std::vector<net::Topology> topologies;
  topologies.push_back(net::BuildConnectedGeometricNetwork(geo, &rng).value());
  topologies.push_back(RandomTree(65, 41, &rng));
  for (const net::Topology& topo : topologies) {
    const int n = topo.num_nodes();
    const std::string where = "n=" + std::to_string(n);
    sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, 6, 50);
    data::GaussianField field =
        data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
    for (int s = 0; s < 70; ++s) samples.Add(field.Sample(&rng));

    // Node-selection plan: a random half of the nodes.
    std::vector<char> chosen(n, 0);
    for (int i = 0; i < n; ++i) {
      chosen[i] = static_cast<char>(rng.UniformInt(0, 1));
    }
    QueryPlan selection = QueryPlan::NodeSelection(6, std::move(chosen), topo);
    selection.Normalize(topo);
    // Bandwidth plan: random small per-edge budgets (including zeros, which
    // prune whole subtrees in the packed recurrence).
    std::vector<int> bw(n, 0);
    for (int i = 0; i < n; ++i) bw[i] = static_cast<int>(rng.UniformInt(0, 3));
    QueryPlan bandwidth = QueryPlan::Bandwidth(6, std::move(bw));
    bandwidth.Normalize(topo);

    for (const QueryPlan* plan : {&selection, &bandwidth}) {
      int dense_total = 0;
      for (int j = 0; j < samples.num_samples(); ++j) {
        dense_total += SampleHitsForSample(*plan, topo, samples, j);
      }
      EXPECT_GT(dense_total, 0) << where;
      EXPECT_EQ(SampleHits(*plan, topo, samples), dense_total) << where;
    }
  }
}

// ---- Regression: the root must be skipped by id, not by assuming id 0 ----

TEST(SampleHitsTest, NodeSelectionCountsNodeZeroWhenRootIsElsewhere) {
  // Chain 0 -> 1 -> 2 rooted at node 2. Node 0 holds the top value and is
  // chosen; the old `for (i = 1; ...)` loop silently skipped it.
  auto topo = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  ASSERT_TRUE(topo.ok());

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(3, 1);
  samples.Add({10.0, 1.0, 0.0});  // top-1 is node 0

  QueryPlan plan;
  plan.kind = PlanKind::kNodeSelection;
  plan.k = 1;
  plan.chosen = {1, 0, 0};
  plan.bandwidth = {1, 1, 0};  // node 0's value crosses edges 0 and 1

  EXPECT_EQ(SampleHits(plan, *topo, samples), 1);
}

TEST(SampleHitsTest, BandwidthPlanDeliversHitsWhenRootIsElsewhere) {
  auto topo = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  ASSERT_TRUE(topo.ok());

  sampling::SampleSet samples = sampling::SampleSet::ForTopK(3, 2);
  samples.Add({10.0, 1.0, 7.0});  // top-2: nodes 0 and 2 (the root)

  QueryPlan plan;
  plan.kind = PlanKind::kBandwidth;
  plan.k = 2;
  plan.bandwidth = {1, 1, 0};
  // Node 0's contribution flows across both edges; the root's own value is
  // free: 2 hits total.
  EXPECT_EQ(SampleHits(plan, *topo, samples), 2);
}

}  // namespace
}  // namespace core
}  // namespace prospector
