#ifndef PROSPECTOR_LP_SIMPLEX_H_
#define PROSPECTOR_LP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lp/model.h"
#include "src/util/status.h"

namespace prospector {
namespace lp {

/// Termination state of a solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

inline const char* ToString(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

/// Per-solve work accounting. Counts are deterministic — two solves of the
/// same model always pivot identically — so they can feed the metrics
/// registry without breaking the bit-identical-snapshot contract.
struct SolveStats {
  int phase1_iterations = 0;  ///< pivots spent finding a feasible basis
  int phase2_iterations = 0;  ///< pivots spent optimizing
  /// Times Dantzig pricing stalled past the threshold and the solver fell
  /// back to Bland's rule (anti-cycling). Persistently nonzero values on
  /// planner LPs signal degenerate models worth re-formulating.
  int blands_activations = 0;
  int rows = 0;         ///< constraint rows in the model
  int columns = 0;      ///< structural variables
  int artificials = 0;  ///< phase-1 artificial variables introduced
  /// Revised engine only (0 on the dense engine): product-form
  /// refactorizations, and eta entries stored over the solve, pivot
  /// entries included. An identity eta (a column that is already the unit
  /// vector of its pivot row) stores nothing, so `eta_nonzeros` tracks the
  /// structural part of the basis.
  int refactorizations = 0;
  int64_t eta_nonzeros = 0;

  int total_iterations() const { return phase1_iterations + phase2_iterations; }

  void Accumulate(const SolveStats& other) {
    phase1_iterations += other.phase1_iterations;
    phase2_iterations += other.phase2_iterations;
    blands_activations += other.blands_activations;
    rows += other.rows;
    columns += other.columns;
    artificials += other.artificials;
    refactorizations += other.refactorizations;
    eta_nonzeros += other.eta_nonzeros;
  }
};

/// Solver output. `values` holds the primal point for the model's
/// structural variables (only meaningful when status == kOptimal).
struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;
  /// Dual value (shadow price) per row, in the sign convention of the
  /// model's own sense: the objective's improvement per unit of RHS slack.
  /// For a <= row of a maximization this is >= 0.
  std::vector<double> row_duals;
  /// Reduced cost per structural variable (same sign convention).
  std::vector<double> reduced_costs;
  SolveStats stats;
  /// Max bound/row violation of the returned point, as re-checked against
  /// the original model (a numerical health indicator).
  double primal_residual = 0.0;
};

/// Which engine Solve() runs. Both implement the same two-phase
/// bounded-variable method with the same pricing, ratio-test, and
/// anti-cycling rules; they differ only in how the basis inverse is
/// carried (sparse product-form factorization vs explicit dense tableau).
enum class SimplexAlgorithm {
  /// Pick per model (default): the dense tableau for small or dense
  /// constraint matrices, where its vectorized row operations beat the
  /// revised engine's indexed gathers, and the revised engine for the
  /// large sparse programs the planners actually emit. The choice is a
  /// pure function of the model, so pipelines stay deterministic.
  kAuto,
  /// Sparse revised simplex: O(nnz)-per-pivot, falls back to the dense
  /// oracle on numerical breakdown.
  kRevised,
  /// Dense tableau: the original always-available oracle.
  kDense,
};

/// Tuning knobs; the defaults are appropriate for the LP sizes produced by
/// the Prospector planners (up to a few thousand rows).
struct SimplexOptions {
  /// Dual feasibility / pricing tolerance.
  double optimality_tol = 1e-9;
  /// Minimum magnitude for an eligible pivot element.
  double pivot_tol = 1e-8;
  /// Feasibility tolerance on phase-1 objective.
  double feasibility_tol = 1e-7;
  /// Hard cap on total pivots; <= 0 means "choose from problem size".
  int max_iterations = 0;
  /// Consecutive non-improving pivots before switching to Bland's rule
  /// (anti-cycling); Dantzig pricing resumes once the objective improves.
  int stall_threshold = 256;
  /// Refuse (ResourceExhausted) rather than allocate a dense tableau
  /// larger than this. Enforced for every algorithm — the dense oracle
  /// must stay runnable so a cross-check can always be taken.
  size_t max_tableau_bytes = size_t{2} * 1024 * 1024 * 1024;
  /// Engine for Solve() calls.
  SimplexAlgorithm algorithm = SimplexAlgorithm::kAuto;
  /// Revised simplex: basis pivots between product-form refactorizations.
  /// The eta file is also rebuilt early when its fill-in outgrows the
  /// basis dimension (see revised_simplex.cc).
  int refactor_interval = 64;
};

/// Two-phase primal simplex with bounded variables, with two engines: a
/// sparse revised simplex (kAuto's choice for planner LPs) and a dense
/// tableau (kAuto's choice for tiny or dense models, and the oracle that
/// tests and the -DPROSPECTOR_LP_CROSSCHECK=ON build check the revised
/// engine against).
///
/// Handles general models: {<=, >=, =} rows, variable bounds including
/// infinite and fixed ranges, free variables, minimize or maximize.
/// Rows become equalities via ranged slack variables; artificial variables
/// are introduced in phase 1 only for rows whose slack basis is infeasible
/// (none for the all-<= nonnegative-RHS programs built by the planners,
/// which therefore skip phase 1 entirely).
///
/// The implementation follows the textbook bounded-variable method: nonbasic
/// variables rest at a finite bound (or 0 when free), the ratio test allows
/// bound flips, Dantzig pricing with a Bland's-rule fallback guards against
/// cycling, and ties in the ratio test are broken toward the largest pivot
/// magnitude for numerical stability.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the model. Returns an error Status for malformed models;
  /// infeasible/unbounded outcomes are reported inside Solution.
  /// Dispatches on options().algorithm: by default (kAuto) the engine is
  /// chosen per model from its size and constraint-matrix density — a pure
  /// function of the model, so repeated solves stay deterministic.
  Result<Solution> Solve(const Model& model) const;

  /// The dense-tableau oracle, callable directly regardless of
  /// options().algorithm — this is the original solver and the reference
  /// the revised engine is checked against.
  Result<Solution> SolveDense(const Model& model) const;

  /// The sparse revised simplex: product-form factorized basis with
  /// periodic refactorization, O(nnz)-per-pivot pricing and FTRAN/BTRAN,
  /// same pricing / bounded-variable ratio test / Bland anti-cycling rules
  /// as the dense engine. Numerical breakdown (a singular refactorization)
  /// falls back to SolveDense, so the result is always well-defined.
  ///
  /// In a -DPROSPECTOR_LP_CROSSCHECK=ON build the model is additionally
  /// solved dense; the two runs must agree on status and objective (a
  /// mismatch is a solver bug and aborts the process with a diagnostic)
  /// and the *dense* solution is returned — making every downstream
  /// decision bit-identical to a dense-only pipeline, at the price of the
  /// speedup.
  Result<Solution> SolveRevised(const Model& model) const;

 private:
  SimplexOptions options_;
};

}  // namespace lp
}  // namespace prospector

#endif  // PROSPECTOR_LP_SIMPLEX_H_
