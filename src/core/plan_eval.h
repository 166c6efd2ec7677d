#ifndef PROSPECTOR_CORE_PLAN_EVAL_H_
#define PROSPECTOR_CORE_PLAN_EVAL_H_

#include "src/core/executor.h"
#include "src/core/plan.h"
#include "src/net/topology.h"
#include "src/sampling/sample_set.h"

namespace prospector {
namespace core {

/// Number of contributing values ("1-entries of Q") the plan would deliver
/// to the root across all samples, assuming ideal local filtering.
///
/// Within any subtree, global top-k values are exactly the locally largest
/// values (anything larger than a top-k member is itself a top-k member),
/// so a node passing its top-b values forwards contributing values first.
/// The count therefore satisfies the bottom-up recurrence
///   f(u) = min(bandwidth[u], [u contributes] + sum_children f(c)),
/// and the root collects sum_children f(c) plus its own contribution.
/// This is the integral counterpart of the LP+LF objective, used for
/// rounding repair and for tests.
///
/// Scores come off the window's packed contribution rows
/// (SampleSet::row): one popcount per row word for node-selection plans,
/// and for bandwidth plans a recurrence touching only the ancestors of set
/// bits.
int SampleHits(const QueryPlan& plan, const net::Topology& topology,
               const sampling::SampleSet& samples);

/// SampleHits for one sample only, by the dense recurrence above over
/// every node — the reference the packed scorer is tested against.
int SampleHitsForSample(const QueryPlan& plan, const net::Topology& topology,
                        const sampling::SampleSet& samples, int j);

/// Answer quality of one (possibly partial) execution against the ground
/// truth. Recall alone hides degradation when loss shrinks the answer;
/// together with precision it tells partial-but-right apart from wrong.
struct AccuracyMetrics {
  /// |answer ∩ true top-k| / k — the paper's Section 5 metric.
  double recall = 0.0;
  /// |answer ∩ true top-k| / |answer|; an empty answer claims nothing and
  /// scores 1.0 (vacuously precise, recall 0 tells the story).
  double precision = 1.0;
  int answered = 0;  ///< |answer|
};

/// Scores `result.answer` against the true top-k of `truth`. Under lossy
/// transport the executor may return fewer than k readings or readings
/// displaced by lost subtrees; both surface here.
AccuracyMetrics TopKAccuracy(const ExecutionResult& result,
                             const std::vector<double>& truth, int k);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_PLAN_EVAL_H_
