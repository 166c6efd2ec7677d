#ifndef PROSPECTOR_SAMPLING_SAMPLE_SET_H_
#define PROSPECTOR_SAMPLING_SAMPLE_SET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/data/trace.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace prospector {
namespace sampling {

/// Maps one network-wide reading vector to the node ids that "contribute to
/// the answer" in that sample — the 1-entries of one row of the Boolean
/// matrix Q of Section 3. For a top-k query these are the k largest nodes;
/// the generalization to selection/quantile queries plugs in a different
/// function (Section 3: "this approach can be easily generalized to queries
/// that return subsets of all sensor values").
using ContributorFn =
    std::function<std::vector<int>(const std::vector<double>&)>;

/// The sample store at the heart of sampling-based query planning
/// (Section 3): a sliding window of past network-wide readings plus their
/// Boolean contribution rows and maintained column sums.
///
/// Each contribution row is packed once, when its sample is added, 64
/// nodes per word: Contributes is a bit test, and plan scoring
/// (core::SampleHits) reads the packed rows directly — a popcount per word
/// for node-selection plans.
///
/// The paper notes that planners without proofs only need the column sums;
/// we additionally retain raw values because PROSPECTOR Proof needs the
/// smaller(j, i) relation, and because windowed maintenance ("expire old
/// samples") requires knowing which entries leave.
class SampleSet {
 public:
  /// `window` = 0 keeps all samples; otherwise the most recent `window`.
  SampleSet(int num_nodes, ContributorFn contributor, size_t window = 0);

  /// Standard top-k contributor (ties broken toward lower node id).
  static SampleSet ForTopK(int num_nodes, int k, size_t window = 0);
  /// Selection query: nodes with value > threshold contribute.
  static SampleSet ForSelection(int num_nodes, double threshold,
                                size_t window = 0);
  /// Quantile query: the single node holding the q-quantile value
  /// contributes (q in [0,1]; q=0.5 is the median).
  static SampleSet ForQuantile(int num_nodes, double quantile,
                               size_t window = 0);

  /// Adds one sample (a full network reading), evicting the oldest when
  /// the window overflows.
  void Add(std::vector<double> values);

  /// Bulk-loads every epoch of a trace (already imputed). A trace whose
  /// width differs from num_nodes() is rejected with InvalidArgument and
  /// leaves the window unchanged.
  Status AddTrace(const data::Trace& trace);

  /// A new SampleSet (same contributor) holding only the most recent
  /// `count` samples — e.g. to bound the size of the proof LP, which grows
  /// with #samples x #nodes x tree height.
  SampleSet Recent(int count) const;

  /// Re-indexes every sample after a topology rebuild (Section 4.4):
  /// `new_id[i]` is node i's id in the rebuilt network, -1 for removed
  /// nodes (their readings are dropped). Contribution rows are recomputed
  /// with `contributor` (pass one whose captured state uses the new ids),
  /// or with the existing contributor when omitted — valid for index-free
  /// contributors such as top-k and selection.
  SampleSet Remapped(const std::vector<int>& new_id, int new_num_nodes,
                     ContributorFn contributor = nullptr) const;

  int num_nodes() const { return num_nodes_; }
  int num_samples() const { return static_cast<int>(samples_.size()); }

  double value(int j, int i) const { return samples_[j].values[i]; }
  const std::vector<double>& sample_values(int j) const {
    return samples_[j].values;
  }

  /// ones(j) of the paper: contributing node ids in sample j, in
  /// contribution order (for top-k: descending value).
  const std::vector<int>& ones(int j) const { return samples_[j].ones; }

  bool Contributes(int j, int i) const {
    return (samples_[j].row[i >> 6] >> (i & 63)) & 1;
  }

  /// Packed contribution row of sample j: words_per_row() words, bit i set
  /// iff node i contributed; bits past num_nodes() are zero.
  const uint64_t* row(int j) const { return samples_[j].row.data(); }
  int words_per_row() const { return (num_nodes_ + 63) / 64; }

  /// Column sums of Q: how often each node contributed across the window.
  const std::vector<int>& column_sums() const { return column_sums_; }

  /// Total number of 1-entries across all samples (the best possible
  /// "hits" an omniscient plan could return).
  int total_ones() const { return total_ones_; }

  /// smaller(j, i) membership: does node `other` hold a strictly smaller
  /// value than node `i` in sample j?
  bool IsSmaller(int j, int other, int i) const {
    return samples_[j].values[other] < samples_[j].values[i];
  }

 private:
  struct Entry {
    std::vector<double> values;
    std::vector<int> ones;
    std::vector<uint64_t> row;  ///< packed ones, see row()
  };

  int num_nodes_;
  ContributorFn contributor_;
  size_t window_;
  std::deque<Entry> samples_;
  std::vector<int> column_sums_;
  int total_ones_ = 0;
};

}  // namespace sampling
}  // namespace prospector

#endif  // PROSPECTOR_SAMPLING_SAMPLE_SET_H_
