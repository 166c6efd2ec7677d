#include "src/core/exact.h"

#include <algorithm>

namespace prospector {
namespace core {

ExactResult ExecuteProspectorExact(const QueryPlan& plan,
                                   const std::vector<double>& truth,
                                   net::NetworkSimulator* sim,
                                   TransportGuard* guard) {
  ExactResult result;
  ProofExecutor executor(&plan, sim, MopUpMode::kBroadcast, guard);
  ExecutionResult phase1 = executor.ExecutePhase1(truth);
  result.phase1_energy_mj = phase1.total_energy_mj();
  result.phase1_proven = phase1.proven_count;
  result.degraded = phase1.degraded;
  result.values_lost = phase1.values_lost;
  result.edge_expected = phase1.edge_expected;
  result.edge_delivered = phase1.edge_delivered;

  if (phase1.proven_count >=
      std::min<int>(plan.k, sim->topology().num_nodes())) {
    result.answer = phase1.answer;
    return result;
  }
  result.needed_phase2 = true;
  ExecutionResult phase2 = executor.ExecuteMopUp();
  result.phase2_energy_mj = phase2.total_energy_mj();
  result.answer = phase2.answer;
  result.degraded = result.degraded || phase2.degraded;
  result.values_lost += phase2.values_lost;
  return result;
}

Result<ExactResult> RunProspectorExact(const PlannerContext& ctx,
                                       const sampling::SampleSet& samples,
                                       int k, double phase1_budget_mj,
                                       const std::vector<double>& truth,
                                       net::NetworkSimulator* sim,
                                       const LpPlannerOptions& options,
                                       TransportGuard* guard) {
  ProofPlanner planner(options);
  auto plan = planner.Plan(ctx, samples, PlanRequest{k, phase1_budget_mj});
  if (!plan.ok()) return plan.status();
  return ExecuteProspectorExact(*plan, truth, sim, guard);
}

}  // namespace core
}  // namespace prospector
