#include "src/net/rebuild.h"

#include <gtest/gtest.h>

#include "src/core/executor.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/net/simulator.h"
#include "src/sampling/sample_set.h"
#include "src/util/rng.h"

namespace prospector {
namespace net {
namespace {

constexpr double kRange = 26.0;

Topology GeoTopo(uint64_t seed, int n = 50) {
  Rng rng(seed);
  GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = kRange;
  return BuildConnectedGeometricNetwork(geo, &rng).value();
}

TEST(RebuildTest, RequiresPositionsAndLivingRoot) {
  Rng rng(1);
  Topology bare = BuildRandomTree(10, 3, &rng);
  EXPECT_EQ(RebuildWithoutNodes(bare, {3}, kRange).status().code(),
            StatusCode::kFailedPrecondition);
  Topology topo = GeoTopo(2);
  EXPECT_EQ(RebuildWithoutNodes(topo, {0}, kRange).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RebuildWithoutNodes(topo, {999}, kRange).status().code(),
            StatusCode::kInvalidArgument);
}

class RebuildPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RebuildPropertyTest, SurvivorsFormMinHopTreeWithinRange) {
  Topology topo = GeoTopo(10 + GetParam());
  Rng rng(20 + GetParam());
  std::vector<int> dead;
  for (int i = 1; i < topo.num_nodes(); ++i) {
    if (rng.Bernoulli(0.15)) dead.push_back(i);
  }
  auto rebuilt = RebuildWithoutNodes(topo, dead, kRange);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const Topology& nt = rebuilt->topology;

  // Every dead node removed; every survivor either mapped or orphaned.
  int mapped = 0;
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const bool is_dead =
        std::find(dead.begin(), dead.end(), i) != dead.end();
    if (is_dead) {
      EXPECT_EQ(rebuilt->new_id[i], -1);
    } else if (rebuilt->new_id[i] >= 0) {
      ++mapped;
    }
  }
  EXPECT_EQ(mapped, nt.num_nodes());
  EXPECT_EQ(mapped + static_cast<int>(dead.size() + rebuilt->orphaned.size()),
            topo.num_nodes());

  // Tree edges respect the radio range; root keeps id 0.
  EXPECT_EQ(rebuilt->new_id[0], 0);
  for (int v = 1; v < nt.num_nodes(); ++v) {
    EXPECT_LE(Distance(nt.positions()[v], nt.positions()[nt.parent(v)]),
              kRange + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebuildPropertyTest, ::testing::Range(1, 20));

TEST(RebuildTest, CutVertexOrphansItsSubtree) {
  // A chain with positions: killing the middle node orphans everything
  // beyond it.
  Topology chain = BuildChain(5);
  std::vector<Point> pos(5);
  for (int i = 0; i < 5; ++i) pos[i] = {10.0 * i, 0.0};
  ASSERT_TRUE(chain.set_positions(pos).ok());
  auto rebuilt = RebuildWithoutNodes(chain, {2}, /*radio_range=*/10.0);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->topology.num_nodes(), 2);  // nodes 0 and 1
  EXPECT_EQ(rebuilt->orphaned, (std::vector<int>{3, 4}));
}

TEST(RebuildTest, NonZeroRootIsPreserved) {
  // Regression: the rebuild BFS used to start from node 0 regardless of
  // where the root actually was. Root here is node 3, mid-array.
  auto topo =
      Topology::FromParents({1, 2, 3, Topology::kNoParent, 3, 4}).value();
  std::vector<Point> pos;
  for (int i = 0; i < 6; ++i) pos.push_back({10.0 * i, 0.0});
  ASSERT_TRUE(topo.set_positions(pos).ok());
  ASSERT_EQ(topo.root(), 3);

  auto rebuilt = RebuildWithoutNodes(topo, {4}, /*radio_range=*/12.0);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const Topology& nt = rebuilt->topology;

  // The rebuilt tree is rooted at the old root's new id.
  ASSERT_GE(rebuilt->new_id[3], 0);
  EXPECT_EQ(nt.root(), rebuilt->new_id[3]);
  EXPECT_EQ(nt.parent(nt.root()), Topology::kNoParent);
  EXPECT_EQ(nt.depth(nt.root()), 0);

  // Node 5's only link to the root ran through dead node 4 -> orphaned.
  EXPECT_EQ(rebuilt->new_id[5], -1);
  EXPECT_EQ(rebuilt->orphaned, (std::vector<int>{5}));

  // Survivors form the min-hop chain 0-1-2-3 hanging off the root.
  ASSERT_EQ(nt.num_nodes(), 4);
  EXPECT_EQ(nt.depth(rebuilt->new_id[2]), 1);
  EXPECT_EQ(nt.depth(rebuilt->new_id[1]), 2);
  EXPECT_EQ(nt.depth(rebuilt->new_id[0]), 3);
}

TEST(RebuildTest, EndToEndReplanOnRebuiltNetwork) {
  // The Section 4.4 workflow: nodes die -> rebuild -> remap samples ->
  // re-optimize -> keep querying.
  Topology topo = GeoTopo(5, 60);
  Rng rng(6);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(60, 5);
  std::vector<std::vector<double>> raw;
  for (int s = 0; s < 12; ++s) {
    std::vector<double> v(60);
    for (double& x : v) x = rng.Uniform(0.0, 100.0);
    raw.push_back(v);
    samples.Add(v);
  }

  auto rebuilt = RebuildWithoutNodes(topo, {3, 7, 11, 19}, kRange);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const Topology& nt = rebuilt->topology;
  sampling::SampleSet remapped =
      samples.Remapped(rebuilt->new_id, nt.num_nodes());
  ASSERT_EQ(remapped.num_samples(), 12);
  // Values landed at their new indices.
  for (int i = 0; i < 60; ++i) {
    if (rebuilt->new_id[i] >= 0) {
      EXPECT_DOUBLE_EQ(remapped.value(0, rebuilt->new_id[i]), raw[0][i]);
    }
  }

  core::PlannerContext ctx;
  ctx.topology = &nt;
  core::LpNoFilterPlanner planner;
  auto plan = planner.Plan(ctx, remapped, core::PlanRequest{5, 10.0});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  NetworkSimulator sim(&nt, ctx.energy);
  std::vector<double> truth(nt.num_nodes());
  Rng qrng(7);
  for (double& v : truth) v = qrng.Uniform(0.0, 100.0);
  auto r = core::CollectionExecutor::Execute(*plan, truth, &sim);
  EXPECT_GE(core::TopKRecall(r, truth, 5), 0.0);  // executes cleanly
}

}  // namespace
}  // namespace net
}  // namespace prospector
