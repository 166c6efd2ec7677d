#include "src/sampling/sample_set.h"

#include <algorithm>
#include <string>

namespace prospector {
namespace sampling {

SampleSet::SampleSet(int num_nodes, ContributorFn contributor, size_t window)
    : num_nodes_(num_nodes),
      contributor_(std::move(contributor)),
      window_(window),
      column_sums_(num_nodes, 0) {}

SampleSet SampleSet::ForTopK(int num_nodes, int k, size_t window) {
  return SampleSet(
      num_nodes,
      [k](const std::vector<double>& values) { return TopKIndices(values, k); },
      window);
}

SampleSet SampleSet::ForSelection(int num_nodes, double threshold,
                                  size_t window) {
  return SampleSet(
      num_nodes,
      [threshold](const std::vector<double>& values) {
        std::vector<int> out;
        for (size_t i = 0; i < values.size(); ++i) {
          if (values[i] > threshold) out.push_back(static_cast<int>(i));
        }
        return out;
      },
      window);
}

SampleSet SampleSet::ForQuantile(int num_nodes, double quantile,
                                 size_t window) {
  return SampleSet(
      num_nodes,
      [quantile](const std::vector<double>& values) {
        // Index whose value is the q-quantile (nearest-rank). Out-of-range
        // q clamps to [0, 1]: a negative q would wrap through size_t and
        // silently select the maximum.
        double q = quantile;
        if (!(q > 0.0)) q = 0.0;  // also maps NaN to the minimum
        if (q > 1.0) q = 1.0;
        std::vector<int> order(values.size());
        for (size_t i = 0; i < values.size(); ++i) order[i] = static_cast<int>(i);
        std::sort(order.begin(), order.end(), [&](int a, int b) {
          if (values[a] != values[b]) return values[a] < values[b];
          return a < b;
        });
        const size_t rank = static_cast<size_t>(
            q * static_cast<double>(values.size() - 1) + 0.5);
        return std::vector<int>{order[std::min(rank, values.size() - 1)]};
      },
      window);
}

void SampleSet::Add(std::vector<double> values) {
  Entry e;
  e.ones = contributor_(values);
  e.row.assign(words_per_row(), 0);
  for (int i : e.ones) {
    e.row[i >> 6] |= uint64_t{1} << (i & 63);
    ++column_sums_[i];
    ++total_ones_;
  }
  e.values = std::move(values);
  samples_.push_back(std::move(e));
  if (window_ > 0 && samples_.size() > window_) {
    for (int i : samples_.front().ones) {
      --column_sums_[i];
      --total_ones_;
    }
    samples_.pop_front();
  }
}

Status SampleSet::AddTrace(const data::Trace& trace) {
  if (trace.num_nodes() != num_nodes_) {
    return Status::InvalidArgument(
        "trace has " + std::to_string(trace.num_nodes()) +
        " nodes; sample set has " + std::to_string(num_nodes_));
  }
  for (int t = 0; t < trace.num_epochs(); ++t) Add(trace.epoch(t));
  return Status::OK();
}

SampleSet SampleSet::Remapped(const std::vector<int>& new_id,
                              int new_num_nodes,
                              ContributorFn contributor) const {
  SampleSet out(new_num_nodes,
                contributor ? std::move(contributor) : contributor_, window_);
  for (const Entry& e : samples_) {
    std::vector<double> values(new_num_nodes, 0.0);
    for (int i = 0; i < num_nodes_; ++i) {
      if (new_id[i] >= 0) values[new_id[i]] = e.values[i];
    }
    out.Add(std::move(values));
  }
  return out;
}

SampleSet SampleSet::Recent(int count) const {
  SampleSet out(num_nodes_, contributor_, window_);
  const int start = std::max(0, num_samples() - count);
  for (int j = start; j < num_samples(); ++j) out.Add(samples_[j].values);
  return out;
}

}  // namespace sampling
}  // namespace prospector
