#include "src/core/plan_eval.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace prospector {
namespace core {
namespace {

// Mask whose popcount against a packed row scores a node-selection plan:
// the chosen non-root nodes, plus the root (its contribution always counts
// and needs no plan entry).
std::vector<uint64_t> SelectionMask(const QueryPlan& plan, int num_nodes,
                                    int root, int words) {
  std::vector<uint64_t> mask(words, 0);
  for (int i = 0; i < num_nodes; ++i) {
    if (i == root || plan.chosen[i]) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return mask;
}

// The bandwidth recurrence f(u) = min(bandwidth[u], own + sum_children f)
// evaluated over one packed row, visiting only the set bits and their
// ancestors: every other node has zero available values and f = 0. Level
// buckets (parent depth is child depth - 1, exactly) give the
// children-before-parents order; the result is the same integer the full
// post-order walk computes.
int BandwidthRowHits(const QueryPlan& plan, const net::Topology& topology,
                     const uint64_t* row, int words) {
  const int root = topology.root();
  int hits = 0;
  std::vector<int> contribs;
  for (int w = 0; w < words; ++w) {
    uint64_t bits = row[w];
    while (bits != 0) {
      const int u = (w << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      if (u == root) {
        ++hits;
      } else {
        contribs.push_back(u);
      }
    }
  }
  if (contribs.empty()) return hits;
  int max_depth = 0;
  for (int u : contribs) max_depth = std::max(max_depth, topology.depth(u));
  std::vector<std::vector<int>> levels(max_depth + 1);
  std::vector<int> avail(topology.num_nodes(), 0);
  for (int u : contribs) {
    if (avail[u] == 0) levels[topology.depth(u)].push_back(u);
    ++avail[u];
  }
  for (int d = max_depth; d >= 1; --d) {
    for (size_t idx = 0; idx < levels[d].size(); ++idx) {
      const int u = levels[d][idx];
      const int f = std::min(plan.bandwidth[u], avail[u]);
      if (f <= 0) continue;  // nothing survives u; don't enqueue its parent
      const int p = topology.parent(u);
      if (p == root) {
        hits += f;
      } else {
        // avail[p] == 0 doubles as "not yet enqueued": every enqueue is
        // paired with a strictly positive accumulation.
        if (avail[p] == 0) levels[d - 1].push_back(p);
        avail[p] += f;
      }
    }
  }
  return hits;
}

int PackedHitsForRow(const QueryPlan& plan, const net::Topology& topology,
                     const uint64_t* row, const uint64_t* selection_mask,
                     int words) {
  if (plan.kind == PlanKind::kNodeSelection) {
    int hits = 0;
    for (int w = 0; w < words; ++w) {
      hits += std::popcount(row[w] & selection_mask[w]);
    }
    return hits;
  }
  return BandwidthRowHits(plan, topology, row, words);
}

}  // namespace

int SampleHitsForSample(const QueryPlan& plan, const net::Topology& topology,
                        const sampling::SampleSet& samples, int j) {
  const int n = topology.num_nodes();
  const int root = topology.root();
  int hits = samples.Contributes(j, root) ? 1 : 0;
  if (plan.kind == PlanKind::kNodeSelection) {
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;  // already counted; root needs no plan entry
      if (plan.chosen[i] && samples.Contributes(j, i)) ++hits;
    }
    return hits;
  }
  std::vector<int> f(n, 0);
  for (int u : topology.PostOrder()) {
    if (u == root) continue;
    int avail = samples.Contributes(j, u) ? 1 : 0;
    for (int c : topology.children(u)) avail += f[c];
    f[u] = std::min(plan.bandwidth[u], avail);
  }
  for (int c : topology.children(root)) hits += f[c];
  return hits;
}

int SampleHits(const QueryPlan& plan, const net::Topology& topology,
               const sampling::SampleSet& samples) {
  const int words = samples.words_per_row();
  std::vector<uint64_t> mask;
  if (plan.kind == PlanKind::kNodeSelection) {
    mask = SelectionMask(plan, topology.num_nodes(), topology.root(), words);
  }
  int total = 0;
  for (int j = 0; j < samples.num_samples(); ++j) {
    total += PackedHitsForRow(plan, topology, samples.row(j), mask.data(),
                              words);
  }
  return total;
}

AccuracyMetrics TopKAccuracy(const ExecutionResult& result,
                             const std::vector<double>& truth, int k) {
  AccuracyMetrics out;
  out.answered = static_cast<int>(result.answer.size());
  if (k <= 0) {
    out.recall = 1.0;
    return out;
  }
  std::vector<char> in_truth(truth.size(), 0);
  for (const Reading& r : TrueTopK(truth, k)) in_truth[r.node] = 1;
  int hit = 0;
  for (const Reading& r : result.answer) {
    if (r.node >= 0 && r.node < static_cast<int>(truth.size()) &&
        in_truth[r.node]) {
      ++hit;
    }
  }
  // An empty truth vector means there is nothing to recall; the query is
  // vacuously answered in full (mirrors the k <= 0 convention above)
  // rather than dividing by zero.
  const size_t denom = std::min<size_t>(k, truth.size());
  out.recall = denom == 0 ? 1.0 : static_cast<double>(hit) / denom;
  if (out.answered > 0) {
    out.precision = static_cast<double>(hit) / static_cast<double>(out.answered);
  }
  return out;
}

}  // namespace core
}  // namespace prospector
