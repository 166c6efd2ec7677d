#include "src/core/cluster_query.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "src/core/executor.h"
#include "src/core/generalized.h"
#include "src/core/lp_filter_planner.h"
#include "src/data/gaussian_field.h"
#include "src/net/simulator.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

net::Topology GeoTopo(uint64_t seed, int n = 50) {
  Rng rng(seed);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 26.0;
  return net::BuildConnectedGeometricNetwork(geo, &rng).value();
}

TEST(ClusterByGridTest, AssignsEveryNonRootNodeToADenseCluster) {
  net::Topology topo = GeoTopo(1);
  Clustering c = ClusterByGrid(topo, 3, 3);
  EXPECT_EQ(c.cluster_of_node[0], -1);
  std::set<int> seen;
  for (int i = 1; i < topo.num_nodes(); ++i) {
    ASSERT_GE(c.cluster(i), 0);
    ASSERT_LT(c.cluster(i), c.num_clusters);
    seen.insert(c.cluster(i));
  }
  EXPECT_EQ(static_cast<int>(seen.size()), c.num_clusters) << "ids dense";
  EXPECT_LE(c.num_clusters, 9);
  EXPECT_GE(c.num_clusters, 2);
}

TEST(ClusterByGridTest, NonGeometricTopologyHasNoClusters) {
  Rng rng(2);
  net::Topology topo = net::BuildRandomTree(10, 3, &rng);
  Clustering c = ClusterByGrid(topo, 2, 2);
  EXPECT_EQ(c.num_clusters, 0);
}

// ---- Root placement: the root need not be node 0 (topology.h). ----

TEST(RootPlacementTest, ClustersMatchAcrossRootRelabelling) {
  // The chain leaf -> mid -> root labelled root-last ({1, 2, root}) and
  // root-first ({root, 0, 1}), laid out at x = 10, 5, 0 from the leaf: on
  // a 2x1 grid the leaf and the mid node share the right-hand cell and the
  // root stays unclustered, whatever its id.
  auto root_last = net::Topology::FromParents({1, 2, net::Topology::kNoParent});
  auto root_first =
      net::Topology::FromParents({net::Topology::kNoParent, 0, 1});
  ASSERT_TRUE(root_last.ok() && root_first.ok());
  ASSERT_TRUE(
      root_last->set_positions({{10.0, 0.0}, {5.0, 0.0}, {0.0, 0.0}}).ok());
  ASSERT_TRUE(
      root_first->set_positions({{0.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}}).ok());

  EXPECT_EQ(ClusterByGrid(*root_last, 2, 1).cluster_of_node,
            (std::vector<int>{0, 0, -1}));
  EXPECT_EQ(ClusterByGrid(*root_first, 2, 1).cluster_of_node,
            (std::vector<int>{-1, 0, 0}));
}

TEST(ClusterMathTest, AveragesAndTopClusters) {
  Clustering c;
  c.num_clusters = 3;
  c.cluster_of_node = {-1, 0, 0, 1, 2};
  const std::vector<double> values{99, 2, 4, 10, 7};
  const std::vector<double> avg = ClusterAverages(c, values);
  EXPECT_DOUBLE_EQ(avg[0], 3.0);
  EXPECT_DOUBLE_EQ(avg[1], 10.0);
  EXPECT_DOUBLE_EQ(avg[2], 7.0);
  EXPECT_EQ(TopClusters(avg, 2), (std::vector<int>{1, 2}));
}

TEST(ClusterMathTest, EmptyClustersAreSkipped) {
  Clustering c;
  c.num_clusters = 2;
  c.cluster_of_node = {-1, 0};
  const std::vector<double> avg = ClusterAverages(c, {5.0, 3.0});
  EXPECT_TRUE(std::isnan(avg[1]));
  EXPECT_EQ(TopClusters(avg, 5), (std::vector<int>{0}));
}

TEST(ClusterContributorTest, MarksExactlyWinningClusterMembers) {
  Clustering c;
  c.num_clusters = 2;
  c.cluster_of_node = {-1, 0, 0, 1, 1};
  auto fn = ClusterTopKContributor(c, 1);
  // Cluster 1 average (8) beats cluster 0 (3).
  EXPECT_EQ(fn({0, 2, 4, 7, 9}), (std::vector<int>{3, 4}));
}

class ClusterAggregatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterAggregatePropertyTest, MatchesDirectComputation) {
  net::Topology topo = GeoTopo(100 + GetParam());
  Clustering c = ClusterByGrid(topo, 3, 3);
  Rng rng(200 + GetParam());
  std::vector<double> truth(topo.num_nodes());
  for (double& v : truth) v = rng.Uniform(0.0, 50.0);

  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  ClusterAggregateResult r = ExecuteClusterAggregate(c, truth, 3, &sim);

  const std::vector<double> expect = ClusterAverages(c, truth);
  for (int cl = 0; cl < c.num_clusters; ++cl) {
    if (std::isnan(expect[cl])) {
      EXPECT_TRUE(std::isnan(r.cluster_avg[cl]));
    } else {
      EXPECT_NEAR(r.cluster_avg[cl], expect[cl], 1e-9);
    }
  }
  EXPECT_EQ(r.top_clusters, TopClusters(expect, 3));
  // TAG property: one message per edge, sizes bounded by #clusters.
  EXPECT_EQ(r.messages, topo.num_nodes() - 1);
  EXPECT_LE(sim.stats().values_transmitted,
            static_cast<int64_t>(c.num_clusters) * (topo.num_nodes() - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterAggregatePropertyTest,
                         ::testing::Range(1, 20));

TEST(ClusterAggregateTest, CheaperThanShippingAllValuesOnDeepTrees) {
  // On a chain, naive collection ships O(n) values over the last hop while
  // aggregation ships at most #clusters partials per hop.
  net::Topology topo = net::BuildChain(30);
  std::vector<net::Point> pos(30);
  for (int i = 0; i < 30; ++i) pos[i] = {double(i), 0.0};
  ASSERT_TRUE(topo.set_positions(pos).ok());
  Clustering c = ClusterByGrid(topo, 2, 1);
  std::vector<double> truth(30, 1.0);
  net::NetworkSimulator agg_sim(&topo, net::EnergyModel{});
  ExecuteClusterAggregate(c, truth, 1, &agg_sim);
  net::NetworkSimulator full_sim(&topo, net::EnergyModel{});
  QueryPlan full = QueryPlan::Bandwidth(30, std::vector<int>(30, 30));
  full.Normalize(topo);
  CollectionExecutor::Execute(full, truth, &full_sim,
                              /*include_trigger=*/false);
  EXPECT_LT(agg_sim.stats().total_energy_mj,
            0.5 * full_sim.stats().total_energy_mj);
}

TEST(ClusterPlanningTest, ApproximatePlanRecallsTopClusters) {
  // End-to-end: sample with the cluster contributor, plan with LP+LF,
  // execute, estimate cluster averages from arrived readings.
  net::Topology topo = GeoTopo(7, 60);
  Clustering c = ClusterByGrid(topo, 3, 3);
  Rng rng(8);
  // Give two grid regions persistently higher means.
  std::vector<double> means(60), sds(60, 2.0);
  for (int i = 0; i < 60; ++i) {
    const int cl = c.cluster_of_node[i];
    means[i] = (cl == 0 || cl == 1) ? 60.0 : 40.0;
  }
  data::GaussianField field(means, sds);

  sampling::SampleSet samples(60, ClusterTopKContributor(c, 2));
  for (int s = 0; s < 15; ++s) samples.Add(field.Sample(&rng));

  PlannerContext ctx;
  ctx.topology = &topo;
  LpFilterPlanner planner;
  auto plan = PlanSubsetQuery(&planner, ctx, samples, /*budget=*/25.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  net::NetworkSimulator sim(&topo, ctx.energy);
  double recall = 0.0;
  for (int q = 0; q < 20; ++q) {
    const std::vector<double> truth = field.Sample(&rng);
    auto r = CollectionExecutor::Execute(*plan, truth, &sim);
    const auto est = EstimateTopClusters(c, r.arrived, 2);
    recall += ClusterRecall(est, TopClusters(ClusterAverages(c, truth), 2));
    sim.ResetStats();
  }
  EXPECT_GT(recall / 20.0, 0.8);
}

TEST(ClusterRecallTest, Basics) {
  EXPECT_DOUBLE_EQ(ClusterRecall({1, 2}, {}), 1.0);
  EXPECT_DOUBLE_EQ(ClusterRecall({1, 2}, {2, 3}), 0.5);
  EXPECT_DOUBLE_EQ(ClusterRecall({}, {1}), 0.0);
}

}  // namespace
}  // namespace core
}  // namespace prospector
