#ifndef PROSPECTOR_CORE_GREEDY_PLANNER_H_
#define PROSPECTOR_CORE_GREEDY_PLANNER_H_

#include "src/core/planner.h"

namespace prospector {
namespace core {

/// PROSPECTOR Greedy (Section 3): repeatedly picks the not-yet-chosen node
/// that contributed the most top-k values across the samples (the largest
/// column sum of the Boolean matrix Q) and adds it to the plan, as long as
/// the plan's expected cost stays within the energy budget.
///
/// The selection itself is topology-blind (that is the point of this
/// baseline), but the cost accounting is real: adding a node pays the
/// per-value cost on every edge of its path and the per-message cost on
/// path edges not already used by the plan.
class GreedyPlanner : public Planner {
 public:
  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override;
  std::string name() const override { return "ProspectorGreedy"; }
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_GREEDY_PLANNER_H_
