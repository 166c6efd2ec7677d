#ifndef PROSPECTOR_CORE_EXACT_H_
#define PROSPECTOR_CORE_EXACT_H_

#include <vector>

#include "src/core/proof_executor.h"
#include "src/core/proof_planner.h"

namespace prospector {
namespace core {

/// Outcome of a PROSPECTOR Exact run.
struct ExactResult {
  /// Top-k, best-first. Exact (guaranteed regardless of sample accuracy)
  /// unless `degraded` is set; then it is best-effort over what survived
  /// and `phase1_proven` is the only certified prefix.
  std::vector<Reading> answer;
  /// How many of the answer entries phase 1 already proved.
  int phase1_proven = 0;
  bool needed_phase2 = false;
  double phase1_energy_mj = 0.0;
  double phase2_energy_mj = 0.0;

  /// Loss accounting under fault injection / lossy transport. The edge
  /// vectors come from phase 1 (where every node is expected to report),
  /// so an engine audit can feed them to its watchdog; `degraded` and
  /// `values_lost` cover both phases.
  bool degraded = false;
  int values_lost = 0;
  std::vector<char> edge_expected;
  std::vector<char> edge_delivered;

  double total_energy_mj() const {
    return phase1_energy_mj + phase2_energy_mj;
  }
};

/// The execution half of PROSPECTOR Exact: runs the proof-carrying `plan`
/// (a ProofPlanner plan for the topology `sim` serves) as phase 1, and if
/// the root proves fewer than min(plan.k, #nodes) values, runs the mop-up
/// phase to retrieve the rest exactly.
///
/// Charges all messages (trigger + both phases) to `sim`. `guard`
/// (optional) applies the fenced transport protocol to both phases — see
/// CollectionExecutor::Execute.
ExactResult ExecuteProspectorExact(const QueryPlan& plan,
                                   const std::vector<double>& truth,
                                   net::NetworkSimulator* sim,
                                   TransportGuard* guard = nullptr);

/// PROSPECTOR Exact (Section 4.3): plan a proof-carrying phase 1 within
/// `phase1_budget_mj` (ProofPlanner::Plan), then ExecuteProspectorExact
/// it. Sample knowledge only affects cost, never correctness.
Result<ExactResult> RunProspectorExact(const PlannerContext& ctx,
                                       const sampling::SampleSet& samples,
                                       int k, double phase1_budget_mj,
                                       const std::vector<double>& truth,
                                       net::NetworkSimulator* sim,
                                       const LpPlannerOptions& options = {},
                                       TransportGuard* guard = nullptr);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_EXACT_H_
