#ifndef PROSPECTOR_LP_SOLVER_INTERNAL_H_
#define PROSPECTOR_LP_SOLVER_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/lp/model.h"
#include "src/lp/simplex.h"
#include "src/obs/obs.h"
#include "src/util/status.h"

// Shared between the dense-tableau solver (simplex.cc) and the sparse
// revised solver (revised_simplex.cc). Both implement the same
// bounded-variable method over the same equality form, so the variable
// status encoding, the initial resting rule, and the accounting hooks must
// be one definition.

namespace prospector {
namespace lp {
namespace internal {

enum class VarStatus : unsigned char {
  kBasic,
  kAtLower,
  kAtUpper,
  kFreeAtZero,
};

/// Initial resting status of a nonbasic column: the finite bound nearest
/// zero, or free-at-zero when both bounds are infinite. Both solvers start
/// every variable exactly here, which is what keeps dense and revised runs
/// comparable.
inline VarStatus InitialRestStatus(double lo, double up) {
  const bool lo_fin = lo != -kInfinity;
  const bool up_fin = up != kInfinity;
  if (lo_fin && up_fin) {
    return std::abs(lo) <= std::abs(up) ? VarStatus::kAtLower
                                        : VarStatus::kAtUpper;
  }
  if (lo_fin) return VarStatus::kAtLower;
  if (up_fin) return VarStatus::kAtUpper;
  return VarStatus::kFreeAtZero;
}

/// Every termination path (optimal, infeasible, limit) passes through here
/// so the registry sees all work done, not just successful solves.
inline void RecordSolveMetrics([[maybe_unused]] const Solution& sol) {
  PROSPECTOR_COUNTER_ADD("lp.solves", 1);
  PROSPECTOR_COUNTER_ADD("lp.rows", sol.stats.rows);
  PROSPECTOR_COUNTER_ADD("lp.columns", sol.stats.columns);
  PROSPECTOR_COUNTER_ADD("lp.artificials", sol.stats.artificials);
  PROSPECTOR_COUNTER_ADD("lp.phase1_pivots", sol.stats.phase1_iterations);
  PROSPECTOR_COUNTER_ADD("lp.phase2_pivots", sol.stats.phase2_iterations);
  PROSPECTOR_COUNTER_ADD("lp.blands_activations", sol.stats.blands_activations);
  PROSPECTOR_COUNTER_ADD("lp.refactorizations", sol.stats.refactorizations);
  PROSPECTOR_COUNTER_ADD("lp.eta_nonzeros", sol.stats.eta_nonzeros);
}

/// Max bound/row violation of `values` re-checked against the original
/// model — the Solution::primal_residual health indicator, shared so every
/// engine scores itself with the same yardstick.
inline double ComputePrimalResidual(const Model& model,
                                    const std::vector<double>& values) {
  double resid = 0.0;
  for (int j = 0; j < model.num_variables(); ++j) {
    resid = std::max(resid, model.variable(j).lower - values[j]);
    resid = std::max(resid, values[j] - model.variable(j).upper);
  }
  for (int i = 0; i < model.num_rows(); ++i) {
    const Row& row = model.row(i);
    double lhs = 0.0;
    for (const Term& t : row.terms) lhs += t.coeff * values[t.var];
    switch (row.type) {
      case RowType::kLessEqual: resid = std::max(resid, lhs - row.rhs); break;
      case RowType::kGreaterEqual: resid = std::max(resid, row.rhs - lhs); break;
      case RowType::kEqual: resid = std::max(resid, std::abs(lhs - row.rhs)); break;
    }
  }
  return std::max(resid, 0.0);
}

/// The dense-tableau size guard, applied to every solve regardless of
/// algorithm: the dense oracle must stay runnable for cross-checks, so a
/// model too big to dense-solve is refused up front instead of passing in
/// one mode and aborting in another.
inline Status CheckTableauBudget(const Model& model, size_t max_bytes) {
  const size_t m = static_cast<size_t>(model.num_rows());
  const size_t cells = m * (model.num_variables() + m);
  if (cells * 2 * sizeof(double) > max_bytes) {
    return Status::ResourceExhausted(
        "LP of " + std::to_string(model.num_rows()) + " rows x " +
        std::to_string(model.num_variables() + model.num_rows()) +
        " columns exceeds the dense-tableau memory limit; shrink the "
        "model (e.g. fewer samples) or raise max_tableau_bytes");
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace lp
}  // namespace prospector

#endif  // PROSPECTOR_LP_SOLVER_INTERNAL_H_
