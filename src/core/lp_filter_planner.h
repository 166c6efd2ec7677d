#ifndef PROSPECTOR_CORE_LP_FILTER_PLANNER_H_
#define PROSPECTOR_CORE_LP_FILTER_PLANNER_H_

#include "src/core/lp_no_filter_planner.h"
#include "src/core/planner.h"

namespace prospector {
namespace core {

/// PROSPECTOR LP+LF (Section 4.2): the local-filtering linear program.
///
/// One relaxed 0/1 variable y_{j,i} per 1-entry of the sample matrix
/// ("the plan returns node i's value when executed on sample j"), plus per
/// edge a use indicator z_e and a bandwidth b_e:
///
///   maximize  sum y_{j,i}
///   s.t.      y_{j,i} <= z_e                         (e above i)
///             sum_{i in ones(j) ∩ desc(e)} y_{j,i} <= b_e    (per j, e)
///             b_e <= ub_e * z_e
///             sum_e c_m(e) z_e + c_v(e) b_e <= budget.
///
/// Per-entry variables let the plan decide at run time which values to
/// forward (local filtering): a subtree can be granted less bandwidth than
/// the number of its promising nodes. Bandwidths are made integral by
/// rounding the y's and taking, per edge, the largest per-sample count of
/// rounded-up entries beneath it; budget repair then trims the bandwidths
/// whose loss costs the fewest sample hits.
class LpFilterPlanner : public Planner {
 public:
  explicit LpFilterPlanner(LpPlannerOptions options = {}) : options_(options) {}

  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override;
  std::string name() const override { return "ProspectorLP+LF"; }

  double last_lp_objective() const { return last_lp_objective_; }

 private:
  LpPlannerOptions options_;
  double last_lp_objective_ = 0.0;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_LP_FILTER_PLANNER_H_
