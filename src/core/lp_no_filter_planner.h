#ifndef PROSPECTOR_CORE_LP_NO_FILTER_PLANNER_H_
#define PROSPECTOR_CORE_LP_NO_FILTER_PLANNER_H_

#include "src/core/planner.h"
#include "src/lp/simplex.h"

namespace prospector {
namespace core {

/// Knobs shared by the LP planners.
struct LpPlannerOptions {
  lp::SimplexOptions simplex;
  /// Rounding threshold for relaxed 0/1 variables (Section 4.1 uses 1/2).
  double rounding_threshold = 0.5;
  /// After rounding, drop the least valuable choices until the plan's
  /// expected cost is back within the budget (the paper's bound allows the
  /// rounded plan to cost up to 2C; repair enforces C exactly).
  bool repair_budget = true;
  /// After repair, greedily add choices that still fit (uses leftover
  /// budget the conservative rounding left on the table).
  bool fill_budget = true;
  /// Proof LP only: at most this many (most recent) samples enter the
  /// program — its size grows as #samples x #nodes x tree height, so a
  /// large sample window must be subsampled (<= 0 disables the cap).
  int max_proof_samples = 8;

  /// Field-wise equality: the engine keys memoized proof plans on it.
  bool operator==(const LpPlannerOptions&) const = default;
};

/// PROSPECTOR LP-LF (Section 4.1): topology-aware linear program without
/// local filtering. One relaxed 0/1 variable x_i per node (acquire node
/// i's value and ship it to the root) and z_e per edge (edge used by the
/// plan), maximizing the samples' column-sum mass subject to
///   x_i <= z_e            for every edge e above i,
///   sum_e c_m(e) z_e + sum_i (sum_{e in path(i)} c_v(e)) x_i <= budget.
/// The solution is rounded at `rounding_threshold` into a node-selection
/// plan (chosen values always travel to the root; no run-time filtering).
class LpNoFilterPlanner : public Planner {
 public:
  explicit LpNoFilterPlanner(LpPlannerOptions options = {})
      : options_(options) {}

  Result<QueryPlan> Plan(const PlannerContext& ctx,
                         const sampling::SampleSet& samples,
                         const PlanRequest& request) override;
  std::string name() const override { return "ProspectorLP-LF"; }

  /// Objective value of the fractional LP optimum from the last Plan()
  /// call (expected sample hits; an upper bound on the integral optimum).
  double last_lp_objective() const { return last_lp_objective_; }

 private:
  LpPlannerOptions options_;
  double last_lp_objective_ = 0.0;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_LP_NO_FILTER_PLANNER_H_
