// Contract of the bit-packed hit matrix: a synced HitMatrix is bit-exact
// with the SampleSet window it mirrors — Contributes, column sums, and
// total ones all agree — and the packed SampleHits overloads return the
// same integers as the dense per-sample recurrence, for both plan kinds.
// The equivalence is exercised across the maintenance paths (fresh build,
// sliding-window tombstone+append syncs, remap/Recent rebuilds, tombstone
// compaction) and at awkward sizes (node and sample counts straddling the
// 64-bit word boundary). Plus the workspace cache policy: clone-on-write
// keeps frozen copies valid for prior holders, and Clear() drops the cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/hit_matrix.h"
#include "src/core/plan_eval.h"
#include "src/core/workspace.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace prospector {
namespace core {
namespace {

sampling::SampleSet MakeSamples(int n, int k, int num_samples, uint64_t seed,
                                size_t window = 0) {
  Rng rng(seed);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, k, window);
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  for (int s = 0; s < num_samples; ++s) samples.Add(field.Sample(&rng));
  return samples;
}

void ExpectBitExact(const HitMatrix& hits, const sampling::SampleSet& samples,
                    const std::string& where) {
  ASSERT_TRUE(hits.InSyncWith(samples)) << where;
  ASSERT_EQ(hits.num_nodes(), samples.num_nodes()) << where;
  ASSERT_EQ(hits.num_samples(), samples.num_samples()) << where;
  for (int j = 0; j < samples.num_samples(); ++j) {
    for (int i = 0; i < samples.num_nodes(); ++i) {
      EXPECT_EQ(hits.Contributes(j, i), samples.Contributes(j, i))
          << where << " j=" << j << " i=" << i;
    }
  }
  EXPECT_EQ(hits.column_sums(), samples.column_sums()) << where;
  EXPECT_EQ(hits.total_ones(), samples.total_ones()) << where;
}

TEST(HitMatrixTest, FreshSyncMatchesWindowAtWordBoundarySizes) {
  // Node counts below, at, and just past the 64-bit word boundary; sample
  // counts chosen so the live-slot mask also straddles a word.
  for (int n : {13, 63, 64, 65, 130}) {
    for (int s : {1, 63, 65}) {
      sampling::SampleSet samples = MakeSamples(n, 4, s, 0x5eed + n * 131 + s);
      HitMatrix hits;
      hits.Sync(samples);
      ExpectBitExact(hits, samples,
                     "n=" + std::to_string(n) + " s=" + std::to_string(s));
      // A second sync of an unchanged window is a no-op that stays exact.
      hits.Sync(samples);
      ExpectBitExact(hits, samples, "resync n=" + std::to_string(n));
    }
  }
}

TEST(HitMatrixTest, SlidingWindowSyncsStayExact) {
  const int n = 70;  // rows span two words
  Rng rng(0xbeef);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, 5, 48);
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  HitMatrix hits;
  obs::MetricsRegistry::Global().Reset();
  hits.Sync(samples);  // empty window
  EXPECT_EQ(hits.num_samples(), 0);
  // Grow into the window (pure appends), then slide it repeatedly
  // (tombstone + append per step); re-sync at several cadences so syncs
  // see single-row and multi-row deltas.
  for (int step = 0; step < 200; ++step) {
    samples.Add(field.Sample(&rng));
    if (step % 7 == 0 || step > 150) {
      hits.Sync(samples);
      ExpectBitExact(hits, samples, "step=" + std::to_string(step));
    }
  }
  // The slides above must not have degenerated into rebuilds: tombstone
  // mass stays bounded, so only the compaction threshold may rebuild.
#ifndef PROSPECTOR_OBS_DISABLED
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  int64_t incremental = 0;
  int64_t rebuilds = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "hit_matrix.incremental_syncs") incremental = v;
    if (name == "hit_matrix.rebuilds") rebuilds = v;
  }
  EXPECT_GT(incremental, 0);
  EXPECT_LE(rebuilds, 2);  // initial build (+ at most one compaction)
#endif
}

TEST(HitMatrixTest, TombstoneCompactionKeepsExactness) {
  // A tiny window slid far past the compaction threshold (dead slots >
  // window + 64) with a sync per step, forcing the compaction rebuild path.
  const int n = 30;
  Rng rng(0xc0de);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, 3, 8);
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  HitMatrix hits;
  for (int step = 0; step < 120; ++step) {
    samples.Add(field.Sample(&rng));
    hits.Sync(samples);
    ExpectBitExact(hits, samples, "step=" + std::to_string(step));
  }
}

TEST(HitMatrixTest, RemapAndRecentRebuildToExactness) {
  const int n = 40;
  sampling::SampleSet samples = MakeSamples(n, 4, 30, 0xfeed);
  HitMatrix hits;
  hits.Sync(samples);

  // Recent() is a new lineage: the same matrix must detect it and rebuild.
  sampling::SampleSet recent = samples.Recent(10);
  hits.Sync(recent);
  ExpectBitExact(hits, recent, "recent");

  // Remap (topology rebuild): drop a node, shuffle ids.
  std::vector<int> new_id(n);
  for (int i = 0; i < n; ++i) new_id[i] = i == 7 ? -1 : (i < 7 ? i : i - 1);
  sampling::SampleSet remapped = samples.Remapped(new_id, n - 1);
  hits.Sync(remapped);
  ExpectBitExact(hits, remapped, "remapped");

  // Syncing back against the original window (an older process-wide stamp)
  // is a version-backwards transition — also a rebuild, also exact.
  hits.Sync(samples);
  ExpectBitExact(hits, samples, "back-to-original");
}

TEST(HitMatrixTest, PackedSampleHitsMatchesDenseForBothPlanKinds) {
  const int n = 90;
  Rng rng(0xabc);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = n;
  geo.radio_range = 25.0;
  net::Topology topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  sampling::SampleSet samples = MakeSamples(n, 6, 70, 0xdef);
  HitMatrix hits;
  hits.Sync(samples);

  Rng plan_rng(0x9);
  // Node-selection plan: a random half of the nodes.
  std::vector<char> chosen(n, 0);
  for (int i = 0; i < n; ++i) {
    chosen[i] = static_cast<char>(plan_rng.UniformInt(0, 1));
  }
  QueryPlan selection =
      QueryPlan::NodeSelection(6, std::move(chosen), topo);
  selection.Normalize(topo);
  // Bandwidth plan: random small per-edge budgets (including zeros, which
  // prune whole subtrees in the packed recurrence).
  std::vector<int> bw(n, 0);
  for (int i = 0; i < n; ++i) bw[i] = static_cast<int>(plan_rng.UniformInt(0, 3));
  QueryPlan bandwidth = QueryPlan::Bandwidth(6, std::move(bw));
  bandwidth.Normalize(topo);

  for (const QueryPlan* plan : {&selection, &bandwidth}) {
    int dense_total = 0;
    for (int j = 0; j < samples.num_samples(); ++j) {
      const int dense = SampleHitsForSample(*plan, topo, samples, j);
      const int packed = SampleHitsForSample(*plan, topo, hits, j);
      EXPECT_EQ(packed, dense) << "j=" << j;
      dense_total += dense;
    }
    EXPECT_EQ(SampleHits(*plan, topo, hits), dense_total);
    EXPECT_EQ(SampleHits(*plan, topo, samples), dense_total);
    util::ThreadPool pool(3);
    EXPECT_EQ(SampleHits(*plan, topo, hits, &pool), dense_total);
  }
}

TEST(HitMatrixTest, WorkspaceCacheClonesOnWriteAndClears) {
  const int n = 50;
  Rng rng(0x77);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(n, 4, 0);
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
  for (int s = 0; s < 20; ++s) samples.Add(field.Sample(&rng));

  obs::MetricsRegistry::Global().Reset();
  PlanningWorkspace ws;
  std::shared_ptr<const HitMatrix> first = ws.Hits(samples);
  ExpectBitExact(*first, samples, "first");
  // Unchanged window: same frozen object back, counted as a hit.
  EXPECT_EQ(ws.Hits(samples).get(), first.get());

  // Slide the window: the holder of `first` must keep reading the frozen
  // copy while the workspace serves a fresh clone.
  const int old_samples = first->num_samples();
  const uint64_t old_version = first->set_version();
  samples.Add(field.Sample(&rng));
  std::shared_ptr<const HitMatrix> second = ws.Hits(samples);
  EXPECT_NE(second.get(), first.get());
  ExpectBitExact(*second, samples, "second");
  EXPECT_EQ(first->num_samples(), old_samples);
  EXPECT_EQ(first->set_version(), old_version);

#ifndef PROSPECTOR_OBS_DISABLED
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "workspace.hits.hit") cache_hits = v;
    if (name == "workspace.hits.miss") cache_misses = v;
  }
  EXPECT_EQ(cache_hits, 1);
  EXPECT_EQ(cache_misses, 2);
#endif

  // Clear() drops the cache; the next call rebuilds rather than reusing.
  ws.Clear();
  std::shared_ptr<const HitMatrix> third = ws.Hits(samples);
  EXPECT_NE(third.get(), second.get());
  ExpectBitExact(*third, samples, "after-clear");

  // The workspace-free helper builds a throwaway matrix.
  std::shared_ptr<const HitMatrix> standalone = GetHitMatrix(nullptr, samples);
  ExpectBitExact(*standalone, samples, "standalone");
}

}  // namespace
}  // namespace core
}  // namespace prospector
