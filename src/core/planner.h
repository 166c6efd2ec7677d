#ifndef PROSPECTOR_CORE_PLANNER_H_
#define PROSPECTOR_CORE_PLANNER_H_

#include <string>

#include "src/core/plan.h"
#include "src/lp/simplex.h"
#include "src/net/energy_model.h"
#include "src/net/failure.h"
#include "src/net/topology.h"
#include "src/sampling/sample_set.h"
#include "src/util/status.h"

namespace prospector {
namespace core {

/// Everything a planner may consult about the deployment. Edge costs are
/// failure-inflated expectations (Section 4.4). The per-node root paths,
/// ancestor and descendant lists the planners walk come with the tree
/// (net::Topology builds them once), so a plan is a function of topology,
/// sample window, cost model and request alone.
struct PlannerContext {
  const net::Topology* topology = nullptr;
  net::EnergyModel energy;
  net::FailureModel failures;

  /// Expected cost of a message with `num_values` readings on `child_edge`.
  double EdgeMessageCost(int child_edge, int num_values) const {
    return energy.MessageCost(num_values) *
           failures.ExpectedCostFactor(child_edge);
  }
  /// Expected fixed (per-message) component on this edge.
  double EdgeFixedCost(int child_edge) const {
    return energy.per_message_mj * failures.ExpectedCostFactor(child_edge);
  }
  /// Expected marginal cost of one extra value on this edge.
  double EdgePerValueCost(int child_edge) const {
    return energy.PerValueCost() * failures.ExpectedCostFactor(child_edge);
  }
  /// Cost of the measurement a visited node must take (Section 4.4).
  double NodeAcquisitionCost() const { return energy.acquisition_mj; }
};

/// What the user asked for.
struct PlanRequest {
  int k = 10;
  /// Energy allowance for one collection phase, in mJ. The planner returns
  /// the highest-expected-accuracy plan whose expected collection cost
  /// stays within this budget.
  double energy_budget_mj = 0.0;
};

/// Work accounting of one Plan() call — the numbers the optimizer papers
/// report (LP size, pivot counts, rounding-repair effort) and that used to
/// be computed and silently dropped. Deterministic for a given input.
struct PlannerStats {
  /// The (last) LP relaxation solve behind the plan; zeroes for planners
  /// that never touch the simplex (greedy, naive).
  lp::SolveStats lp;
  /// Budget-repair rounds: bandwidth units trimmed after rounding.
  int repair_rounds = 0;
  /// Fill passes: whole orders re-scanned while leftover budget granted
  /// extra bandwidth units.
  int fill_passes = 0;
};

/// Common interface of the PROSPECTOR planning algorithms: given past
/// samples and an energy budget, produce an executable plan.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual Result<QueryPlan> Plan(const PlannerContext& ctx,
                                 const sampling::SampleSet& samples,
                                 const PlanRequest& request) = 0;
  virtual std::string name() const = 0;

  /// Telemetry of the most recent Plan() call (zero-initialized before one
  /// has been made). Valid until the next Plan() on this planner.
  const PlannerStats& last_stats() const { return last_stats_; }

 protected:
  PlannerStats last_stats_;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_PLANNER_H_
