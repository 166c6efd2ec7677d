#include <gtest/gtest.h>

#include "src/net/simulator.h"
#include "src/net/topology.h"
#include "src/sampling/collector.h"
#include "src/sampling/sample_set.h"
#include "src/util/rng.h"

namespace prospector {
namespace sampling {
namespace {

TEST(SampleSetTest, TopKOnesAndColumnSums) {
  SampleSet s = SampleSet::ForTopK(5, 2);
  s.Add({1, 9, 3, 7, 5});
  s.Add({1, 9, 8, 2, 0});
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{1, 3}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{1, 2}));
  EXPECT_TRUE(s.Contributes(0, 3));
  EXPECT_FALSE(s.Contributes(1, 3));
  EXPECT_EQ(s.column_sums(), (std::vector<int>{0, 2, 1, 1, 0}));
  EXPECT_EQ(s.total_ones(), 4);
}

TEST(SampleSetTest, TopKTieBreaksTowardLowerId) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({5.0, 5.0, 1.0});
  EXPECT_EQ(s.ones(0), (std::vector<int>{0}));
}

TEST(SampleSetTest, WindowEvictsOldestAndFixesSums) {
  SampleSet s = SampleSet::ForTopK(3, 1, /*window=*/2);
  s.Add({9, 1, 1});  // top: node 0
  s.Add({1, 9, 1});  // top: node 1
  s.Add({1, 1, 9});  // top: node 2; evicts the first
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.column_sums(), (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(s.total_ones(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{1}));  // oldest kept is the 2nd add
}

TEST(SampleSetTest, SelectionContributor) {
  SampleSet s = SampleSet::ForSelection(4, 5.0);
  s.Add({6, 2, 5.5, 4});
  EXPECT_EQ(s.ones(0), (std::vector<int>{0, 2}));
}

TEST(SampleSetTest, QuantileContributor) {
  SampleSet s = SampleSet::ForQuantile(5, 0.5);
  s.Add({10, 30, 20, 50, 40});
  // Median of {10,20,30,40,50} is 30 -> node 1.
  EXPECT_EQ(s.ones(0), (std::vector<int>{1}));
}

TEST(SampleSetTest, OutOfRangeQuantileClampsToEndpoints) {
  // A negative q used to wrap through size_t and pick the maximum.
  SampleSet lo = SampleSet::ForQuantile(5, -0.5);
  lo.Add({10, 30, 20, 50, 40});
  EXPECT_EQ(lo.ones(0), (std::vector<int>{0}));  // minimum -> node 0
  SampleSet hi = SampleSet::ForQuantile(5, 1.75);
  hi.Add({10, 30, 20, 50, 40});
  EXPECT_EQ(hi.ones(0), (std::vector<int>{3}));  // maximum -> node 3
}

TEST(SampleSetTest, IsSmallerUsesSampleValues) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({5, 3, 8});
  EXPECT_TRUE(s.IsSmaller(0, 1, 0));
  EXPECT_FALSE(s.IsSmaller(0, 2, 0));
}

TEST(SampleSetTest, AddTraceLoadsEveryEpoch) {
  data::Trace t(3);
  ASSERT_TRUE(t.AddEpoch({1, 2, 3}).ok());
  ASSERT_TRUE(t.AddEpoch({3, 2, 1}).ok());
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.AddTrace(t);
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{0}));
}

TEST(SampleSetTest, RecentKeepsOnlyTheTail) {
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({9, 1, 1});
  s.Add({1, 9, 1});
  s.Add({1, 1, 9});
  SampleSet tail = s.Recent(2);
  EXPECT_EQ(tail.num_samples(), 2);
  EXPECT_EQ(tail.ones(0), (std::vector<int>{1}));
  EXPECT_EQ(tail.ones(1), (std::vector<int>{2}));
  EXPECT_EQ(tail.column_sums(), (std::vector<int>{0, 1, 1}));
  // Asking for more than exists returns everything.
  EXPECT_EQ(s.Recent(10).num_samples(), 3);
}

TEST(SampleSetTest, RemappedDropsRemovedNodesAndRecomputesOnes) {
  SampleSet s = SampleSet::ForTopK(4, 1);
  s.Add({1, 9, 5, 2});  // top: node 1
  // Remove node 1; nodes 0,2,3 -> new ids 0,1,2.
  SampleSet r = s.Remapped({0, -1, 1, 2}, 3);
  ASSERT_EQ(r.num_samples(), 1);
  EXPECT_EQ(r.ones(0), (std::vector<int>{1}));  // old node 2 is now the top
  EXPECT_DOUBLE_EQ(r.value(0, 2), 2.0);
}

TEST(SampleSetTest, VersionBumpsOnEveryAddAndStampsStayStable) {
  SampleSet s = SampleSet::ForTopK(4, 2, /*window=*/3);
  const uint64_t v0 = s.version();
  EXPECT_EQ(s.id(), v0);  // a fresh set's lineage is its creation stamp

  s.Add({1, 2, 3, 4});
  const uint64_t v1 = s.version();
  EXPECT_GT(v1, v0);
  s.Add({4, 3, 2, 1});
  EXPECT_GT(s.version(), v1);

  // Stamps identify samples across window slides: indices shift, stamps
  // follow their row.
  const uint64_t stamp_second = s.sample_stamp(1);
  s.Add({5, 6, 7, 8});
  s.Add({8, 7, 6, 5});  // evicts the first row
  EXPECT_EQ(s.num_samples(), 3);
  EXPECT_EQ(s.sample_stamp(0), stamp_second);

  // A remap rewrites every row: the result is a new lineage.
  SampleSet remapped = s.Remapped({0, 1, 2, -1}, 3);
  EXPECT_NE(remapped.id(), s.id());
}

TEST(SampleSetTest, RemappedQuantileRecomputesContributorsAfterEviction) {
  // Median contributor over 5 nodes, window of 2: eviction and remap must
  // compose — contribution rows are recomputed on the surviving nodes.
  SampleSet s = SampleSet::ForQuantile(5, 0.5, /*window=*/2);
  s.Add({10, 20, 30, 40, 50});  // median: node 2
  s.Add({50, 40, 30, 20, 10});  // median: node 2
  s.Add({1, 2, 3, 4, 5});       // median: node 2; evicts the first row
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{2}));

  // Drop node 2 (the median holder). The remapped window re-runs the
  // contributor on 4-node rows, where the median shifts to a survivor.
  SampleSet r = s.Remapped({0, 1, -1, 2, 3}, 4);
  EXPECT_EQ(r.num_samples(), 2);
  EXPECT_EQ(r.num_nodes(), 4);
  // Nearest-rank: round(0.5 * 3) = rank 2, the third-smallest of four.
  // Row 0 is now {50,40,20,10}: third-smallest is 40, new node 1 (old
  // node 1). Row 1 is {1,2,4,5}: third-smallest is 4, new node 2 (old
  // node 3).
  EXPECT_EQ(r.ones(0), (std::vector<int>{1}));
  EXPECT_EQ(r.ones(1), (std::vector<int>{2}));
  const std::vector<int> expected_sums{0, 1, 1, 0};
  EXPECT_EQ(r.column_sums(), expected_sums);

  // Window behavior survives the remap: one more Add still evicts.
  r.Add({9, 9, 9, 9});
  EXPECT_EQ(r.num_samples(), 2);
}

TEST(SampleCollectorTest, SweepCostMatchesChargedCost) {
  Rng rng(4);
  net::Topology topo = net::BuildRandomTree(20, 3, &rng);
  net::NetworkSimulator sim(&topo, net::EnergyModel{});
  SampleCollector collector(0.1);
  SampleSet samples = SampleSet::ForTopK(20, 5);

  const double predicted = collector.SweepCost(sim);
  std::vector<double> truth(20, 1.0);
  const double charged = collector.CollectSample(truth, &sim, &samples);
  EXPECT_NEAR(predicted, charged, 1e-9);
  EXPECT_EQ(samples.num_samples(), 1);
  // Every edge carried its subtree: total values = sum of subtree sizes.
  int64_t expect_values = 0;
  for (int u = 1; u < 20; ++u) expect_values += topo.subtree_size(u);
  EXPECT_EQ(sim.stats().values_transmitted, expect_values);
}

TEST(SampleCollectorTest, ExplorationProbabilityRoughlyHolds) {
  SampleCollector collector(0.25);
  Rng rng(11);
  int explored = 0;
  for (int i = 0; i < 20000; ++i) {
    if (collector.ShouldExplore(&rng)) ++explored;
  }
  EXPECT_NEAR(explored / 20000.0, 0.25, 0.02);
}

}  // namespace
}  // namespace sampling
}  // namespace prospector
