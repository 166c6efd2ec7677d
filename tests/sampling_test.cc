#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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
  ASSERT_TRUE(s.AddTrace(t).ok());
  EXPECT_EQ(s.num_samples(), 2);
  EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
  EXPECT_EQ(s.ones(1), (std::vector<int>{0}));
}

TEST(SampleSetTest, AddTraceRejectsMismatchedWidth) {
  // A wider trace would set bits past the packed row; a narrower one would
  // store rows that value() and IsSmaller read past the end of.
  SampleSet s = SampleSet::ForTopK(3, 1);
  s.Add({1, 2, 3});
  for (int width : {5, 2}) {
    data::Trace t(width);
    ASSERT_TRUE(t.AddEpoch(std::vector<double>(width, 7.0)).ok());
    EXPECT_EQ(s.AddTrace(t).code(), StatusCode::kInvalidArgument)
        << "width " << width;
    // The window is untouched: one sample, its values, its row and sums.
    EXPECT_EQ(s.num_samples(), 1);
    EXPECT_EQ(s.sample_values(0), (std::vector<double>{1, 2, 3}));
    EXPECT_EQ(s.ones(0), (std::vector<int>{2}));
    EXPECT_EQ(s.row(0)[0], uint64_t{1} << 2);
    EXPECT_EQ(s.column_sums(), (std::vector<int>{0, 0, 1}));
    EXPECT_EQ(s.total_ones(), 1);
  }
}

// Every packed row agrees with ones(j) and is zero past num_nodes(); the
// maintained column sums and total agree with a recount of ones.
void ExpectRowsMatchOnes(const SampleSet& s, const std::string& where) {
  const int n = s.num_nodes();
  ASSERT_EQ(s.words_per_row(), (n + 63) / 64) << where;
  std::vector<int> sums(n, 0);
  int total = 0;
  for (int j = 0; j < s.num_samples(); ++j) {
    std::vector<char> in_ones(n, 0);
    for (int i : s.ones(j)) {
      in_ones[i] = 1;
      ++sums[i];
      ++total;
    }
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(s.Contributes(j, i), in_ones[i] != 0)
          << where << " j=" << j << " i=" << i;
    }
    if (n % 64 != 0) {
      EXPECT_EQ(s.row(j)[s.words_per_row() - 1] >> (n % 64), 0u)
          << where << " j=" << j;
    }
  }
  EXPECT_EQ(s.column_sums(), sums) << where;
  EXPECT_EQ(s.total_ones(), total) << where;
}

TEST(SampleSetTest, PackedRowsMatchOnesAtWordBoundaries) {
  for (int n : {13, 63, 64, 65, 130}) {
    Rng rng(0x5eed + n);
    // Top-k rows are sparse; selection rows set about half the bits.
    for (bool top_k : {true, false}) {
      SampleSet s = top_k ? SampleSet::ForTopK(n, 5, /*window=*/8)
                          : SampleSet::ForSelection(n, 50.0, /*window=*/8);
      const std::string tag =
          "n=" + std::to_string(n) + (top_k ? " top-k" : " selection");
      for (int step = 0; step < 20; ++step) {  // fills, then slides
        std::vector<double> values(n);
        for (double& v : values) v = rng.Uniform(0.0, 100.0);
        s.Add(std::move(values));
        ExpectRowsMatchOnes(s, tag + " step=" + std::to_string(step));
      }
      ExpectRowsMatchOnes(s.Recent(3), tag + " recent");
      // Drop node 7 and shift the rest down: one word fewer at n = 65.
      std::vector<int> new_id(n);
      for (int i = 0; i < n; ++i) new_id[i] = i == 7 ? -1 : (i < 7 ? i : i - 1);
      ExpectRowsMatchOnes(s.Remapped(new_id, n - 1), tag + " remapped");
    }
  }
}

std::vector<uint64_t> PackedRow(const SampleSet& s, int j) {
  return std::vector<uint64_t>(s.row(j), s.row(j) + s.words_per_row());
}

std::vector<double> RandomReading(int n, Rng* rng) {
  std::vector<double> values(n);
  for (double& v : values) v = rng->Uniform(0.0, 100.0);
  return values;
}

TEST(SampleSetTest, PackedRowsTravelWithTheirSampleAcrossLongSlides) {
  // Rows span two words; the window fills, then slides 150 times. A slide
  // evicts the front row and must leave every surviving row untouched.
  const int n = 70;
  const int window = 48;
  Rng rng(0xbeef);
  SampleSet s = SampleSet::ForTopK(n, 5, window);
  for (int step = 0; step < 200; ++step) {
    std::vector<std::vector<uint64_t>> before;
    for (int j = 0; j < s.num_samples(); ++j) before.push_back(PackedRow(s, j));
    s.Add(RandomReading(n, &rng));
    const std::string where = "step=" + std::to_string(step);
    ASSERT_EQ(s.num_samples(), std::min(step + 1, window)) << where;
    const int shift = step >= window ? 1 : 0;
    for (int j = 0; j + shift < static_cast<int>(before.size()); ++j) {
      EXPECT_EQ(PackedRow(s, j), before[j + shift]) << where << " j=" << j;
    }
    ExpectRowsMatchOnes(s, where);
  }
}

TEST(SampleSetTest, MaintainedSumsMatchARebuildAfterManyTurnovers) {
  // A tiny window turned over 15 times: the sums kept up by Add and evict
  // equal those of a set rebuilt from the surviving readings, row for row.
  const int n = 30;
  Rng rng(0xc0de);
  SampleSet s = SampleSet::ForSelection(n, 50.0, /*window=*/8);
  for (int step = 0; step < 120; ++step) {
    s.Add(RandomReading(n, &rng));
    const std::string where = "step=" + std::to_string(step);
    ExpectRowsMatchOnes(s, where);
    SampleSet rebuilt = SampleSet::ForSelection(n, 50.0);
    for (int j = 0; j < s.num_samples(); ++j) rebuilt.Add(s.sample_values(j));
    EXPECT_EQ(s.column_sums(), rebuilt.column_sums()) << where;
    EXPECT_EQ(s.total_ones(), rebuilt.total_ones()) << where;
    for (int j = 0; j < s.num_samples(); ++j) {
      EXPECT_EQ(PackedRow(s, j), PackedRow(rebuilt, j)) << where << " j=" << j;
    }
  }
}

TEST(SampleSetTest, RecentAndRemappedRowsAreExactAndLeaveTheSourceAlone) {
  const int n = 40;
  Rng rng(0xfeed);
  SampleSet s = SampleSet::ForTopK(n, 4);
  for (int step = 0; step < 30; ++step) s.Add(RandomReading(n, &rng));
  std::vector<std::vector<uint64_t>> source_rows;
  for (int j = 0; j < s.num_samples(); ++j) source_rows.push_back(PackedRow(s, j));

  // Recent copies the tail rows word for word.
  SampleSet recent = s.Recent(10);
  ExpectRowsMatchOnes(recent, "recent");
  ASSERT_EQ(recent.num_samples(), 10);
  for (int j = 0; j < 10; ++j) {
    EXPECT_EQ(PackedRow(recent, j), source_rows[20 + j]) << "recent j=" << j;
  }

  // Reversing the ids moves each bit i to bit n-1-i (readings are distinct,
  // so no top-k tie-break changes).
  std::vector<int> reversed(n);
  for (int i = 0; i < n; ++i) reversed[i] = n - 1 - i;
  SampleSet mirrored = s.Remapped(reversed, n);
  ExpectRowsMatchOnes(mirrored, "reversed");
  for (int j = 0; j < s.num_samples(); ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(mirrored.Contributes(j, n - 1 - i), s.Contributes(j, i))
          << "reversed j=" << j << " i=" << i;
    }
  }

  // Drop node 7 and shift the rest down.
  std::vector<int> new_id(n);
  for (int i = 0; i < n; ++i) new_id[i] = i == 7 ? -1 : (i < 7 ? i : i - 1);
  ExpectRowsMatchOnes(s.Remapped(new_id, n - 1), "dropped");

  // Deriving never touches the source's rows or sums.
  ExpectRowsMatchOnes(s, "source");
  for (int j = 0; j < s.num_samples(); ++j) {
    EXPECT_EQ(PackedRow(s, j), source_rows[j]) << "source j=" << j;
  }
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
