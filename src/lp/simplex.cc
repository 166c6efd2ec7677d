#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/lp/solver_internal.h"
#include "src/obs/obs.h"

namespace prospector {
namespace lp {
namespace {

using internal::VarStatus;

// Working state of a solve: the equality-form problem
//   A x = b,  lo <= x <= up
// with a dense tableau T = B^{-1} A maintained explicitly, plus the basic
// variable values and the reduced-cost row for the active phase.
struct Tableau {
  int m = 0;      // rows
  int ncols = 0;  // structural + slack + artificial columns

  std::vector<double> t;      // m * ncols, row-major: B^{-1} A
  std::vector<double> xb;     // m: values of basic variables
  std::vector<double> d;      // ncols: reduced costs for active phase cost
  std::vector<double> cost;   // ncols: active phase cost
  std::vector<double> lo, up;
  std::vector<int> basis;     // m: column basic in each row
  std::vector<VarStatus> status;

  double* Row(int i) { return t.data() + static_cast<size_t>(i) * ncols; }
  const double* Row(int i) const {
    return t.data() + static_cast<size_t>(i) * ncols;
  }

  // Value of a nonbasic column under its current status.
  double NonbasicValue(int j) const {
    switch (status[j]) {
      case VarStatus::kAtLower: return lo[j];
      case VarStatus::kAtUpper: return up[j];
      case VarStatus::kFreeAtZero: return 0.0;
      case VarStatus::kBasic: break;
    }
    return 0.0;
  }

  double ObjectiveNow() const {
    double v = 0.0;
    for (int j = 0; j < ncols; ++j) {
      if (status[j] != VarStatus::kBasic) v += cost[j] * NonbasicValue(j);
    }
    for (int i = 0; i < m; ++i) v += cost[basis[i]] * xb[i];
    return v;
  }

  // Recomputes the reduced-cost row d = cost - cost_B^T * T.  O(m * ncols).
  void RecomputeReducedCosts() {
    d = cost;
    for (int i = 0; i < m; ++i) {
      const double cb = cost[basis[i]];
      if (cb == 0.0) continue;
      const double* row = Row(i);
      for (int j = 0; j < ncols; ++j) d[j] -= cb * row[j];
    }
    for (int i = 0; i < m; ++i) d[basis[i]] = 0.0;
  }
};

struct PivotChoice {
  int entering = -1;
  int direction = +1;  // +1: entering increases, -1: decreases
};

// Pricing: pick an entering column whose movement improves the objective.
// Dantzig rule (largest violation) normally; Bland (lowest index) when
// `bland` is set. Fixed columns (lo == up) never enter.
PivotChoice Price(const Tableau& tab, double tol, bool bland) {
  PivotChoice best;
  double best_score = tol;
  for (int j = 0; j < tab.ncols; ++j) {
    if (tab.status[j] == VarStatus::kBasic) continue;
    if (tab.lo[j] == tab.up[j]) continue;  // fixed
    const double dj = tab.d[j];
    int dir = 0;
    double score = 0.0;
    switch (tab.status[j]) {
      case VarStatus::kAtLower:
        if (dj < -tol) { dir = +1; score = -dj; }
        break;
      case VarStatus::kAtUpper:
        if (dj > tol) { dir = -1; score = dj; }
        break;
      case VarStatus::kFreeAtZero:
        if (std::abs(dj) > tol) { dir = dj < 0 ? +1 : -1; score = std::abs(dj); }
        break;
      case VarStatus::kBasic:
        break;
    }
    if (dir == 0) continue;
    if (bland) return {j, dir};
    if (score > best_score) {
      best_score = score;
      best = {j, dir};
    }
  }
  return best;
}

struct RatioResult {
  double step = std::numeric_limits<double>::infinity();
  int leaving_row = -1;          // -1: bound flip (or unbounded if step=inf)
  bool leaving_to_upper = false; // where the leaving variable lands
};

// Bounded-variable ratio test for entering column j moving in `direction`.
RatioResult RatioTest(const Tableau& tab, int j, int direction,
                      double pivot_tol, bool bland) {
  RatioResult r;
  // The entering variable may at most traverse its own range.
  const double own_range = tab.up[j] - tab.lo[j];  // inf if unbounded
  r.step = own_range;  // leaving_row stays -1 => bound flip

  const double kTieTol = 1e-9;
  double best_pivot_mag = 0.0;
  int best_basis_col = std::numeric_limits<int>::max();

  for (int i = 0; i < tab.m; ++i) {
    const double wij = tab.Row(i)[j];
    if (std::abs(wij) < pivot_tol) continue;
    const double delta = direction * wij;  // xb[i] decreases by delta * step
    const int b = tab.basis[i];
    double limit;
    bool to_upper;
    if (delta > 0) {
      if (tab.lo[b] == -kInfinity) continue;
      limit = (tab.xb[i] - tab.lo[b]) / delta;
      to_upper = false;
    } else {
      if (tab.up[b] == kInfinity) continue;
      limit = (tab.up[b] - tab.xb[i]) / (-delta);
      to_upper = true;
    }
    if (limit < 0) limit = 0;  // degeneracy / roundoff
    if (limit < r.step - kTieTol) {
      r.step = limit;
      r.leaving_row = i;
      r.leaving_to_upper = to_upper;
      best_pivot_mag = std::abs(wij);
      best_basis_col = b;
    } else if (limit <= r.step + kTieTol && r.leaving_row >= 0) {
      // Tie-breaking: Bland wants the lowest basis column; otherwise prefer
      // the largest pivot magnitude for stability.
      if (bland ? (b < best_basis_col) : (std::abs(wij) > best_pivot_mag)) {
        r.step = std::min(r.step, limit);
        r.leaving_row = i;
        r.leaving_to_upper = to_upper;
        best_pivot_mag = std::abs(wij);
        best_basis_col = b;
      }
    }
  }
  return r;
}

// Applies the pivot: entering column j (moving `direction`), basic values
// updated by `step`, row `leaving_row` replaced.  If leaving_row == -1 the
// entering variable just flips to its opposite bound.
void ApplyStep(Tableau* tab, int j, int direction, const RatioResult& rr) {
  const double step = rr.step;
  if (step != 0.0) {
    for (int i = 0; i < tab->m; ++i) {
      const double wij = tab->Row(i)[j];
      if (wij != 0.0) tab->xb[i] -= direction * step * wij;
    }
  }
  if (rr.leaving_row < 0) {
    // Bound flip.
    tab->status[j] = (direction > 0) ? VarStatus::kAtUpper : VarStatus::kAtLower;
    return;
  }
  const int r = rr.leaving_row;
  const int leaving = tab->basis[r];
  const double entering_value = tab->NonbasicValue(j) + direction * step;

  // Gaussian elimination on the pivot column.
  double* prow = tab->Row(r);
  const double piv = prow[j];
  const double inv = 1.0 / piv;
  for (int c = 0; c < tab->ncols; ++c) prow[c] *= inv;
  prow[j] = 1.0;  // exact
  for (int i = 0; i < tab->m; ++i) {
    if (i == r) continue;
    double* row = tab->Row(i);
    const double f = row[j];
    if (f == 0.0) continue;
    for (int c = 0; c < tab->ncols; ++c) row[c] -= f * prow[c];
    row[j] = 0.0;  // exact
  }
  // Reduced-cost row update.
  {
    const double f = tab->d[j];
    if (f != 0.0) {
      for (int c = 0; c < tab->ncols; ++c) tab->d[c] -= f * prow[c];
    }
    tab->d[j] = 0.0;
  }

  tab->status[leaving] =
      rr.leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
  tab->basis[r] = j;
  tab->status[j] = VarStatus::kBasic;
  tab->xb[r] = entering_value;
}

// Runs simplex iterations until optimal/unbounded/limit. Returns status.
SolveStatus Iterate(Tableau* tab, const SimplexOptions& opts, int max_iters,
                    int* iterations, int* blands_activations) {
  bool bland = false;
  int stall = 0;
  double last_obj = tab->ObjectiveNow();
  for (int it = 0; it < max_iters; ++it) {
    PivotChoice pc = Price(*tab, opts.optimality_tol, bland);
    if (pc.entering < 0) {
      *iterations = it;
      return SolveStatus::kOptimal;
    }
    RatioResult rr = RatioTest(*tab, pc.entering, pc.direction,
                               opts.pivot_tol, bland);
    if (std::isinf(rr.step)) {
      *iterations = it;
      return SolveStatus::kUnbounded;
    }
    ApplyStep(tab, pc.entering, pc.direction, rr);

    const double obj = tab->ObjectiveNow();
    if (obj < last_obj - 1e-12) {
      stall = 0;
      bland = false;
      last_obj = obj;
    } else if (++stall > opts.stall_threshold) {
      if (!bland) ++*blands_activations;
      bland = true;  // anti-cycling fallback until progress resumes
    }
  }
  *iterations = max_iters;
  return SolveStatus::kIterationLimit;
}

// Fills values, objective, duals, reduced costs, and residual from a
// tableau that Iterate() left optimal.
void ExtractOptimal(const Tableau& tab, const Model& model, int nstruct,
                    int m, bool maximize, Solution* sol) {
  sol->values.assign(nstruct, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    if (tab.status[j] != VarStatus::kBasic) {
      sol->values[j] = tab.NonbasicValue(j);
    }
  }
  for (int i = 0; i < m; ++i) {
    if (tab.basis[i] < nstruct) sol->values[tab.basis[i]] = tab.xb[i];
  }
  sol->objective = model.ObjectiveValue(sol->values);

  // Duals: with the slack column of row i forming the i-th identity
  // column, the internal dual is y_int_i = -d[slack_i]; converting back to
  // the model's own sense flips the sign for maximization.
  sol->row_duals.resize(m);
  for (int i = 0; i < m; ++i) {
    const double y_internal = -tab.d[nstruct + i];
    sol->row_duals[i] = maximize ? -y_internal : y_internal;
  }
  sol->reduced_costs.resize(nstruct);
  for (int j = 0; j < nstruct; ++j) {
    sol->reduced_costs[j] = maximize ? -tab.d[j] : tab.d[j];
  }

  sol->primal_residual = internal::ComputePrimalResidual(model, sol->values);
}

using internal::RecordSolveMetrics;

}  // namespace

Result<Solution> SimplexSolver::Solve(const Model& model) const {
  if (options_.algorithm == SimplexAlgorithm::kDense) return SolveDense(model);
  return SolveRevised(model);
}

Result<Solution> SimplexSolver::SolveDense(const Model& model) const {
  PROSPECTOR_SPAN("lp.solve");
  PROSPECTOR_RETURN_IF_ERROR(model.Validate());

  const int nstruct = model.num_variables();
  const int m = model.num_rows();
  const bool maximize = model.sense() == Sense::kMaximize;

  PROSPECTOR_RETURN_IF_ERROR(
      internal::CheckTableauBudget(model, options_.max_tableau_bytes));

  // ---- Assemble the equality-form tableau: [structural | slacks]. ----
  Tableau tab;
  tab.m = m;
  tab.ncols = nstruct + m;  // artificials appended below if needed
  std::vector<double> rhs(m);

  // Dense structural columns (duplicate terms summed).
  std::vector<double> dense(static_cast<size_t>(m) * (nstruct + m), 0.0);
  auto at = [&](int i, int j) -> double& {
    return dense[static_cast<size_t>(i) * (nstruct + m) + j];
  };
  for (int i = 0; i < m; ++i) {
    const Row& row = model.row(i);
    rhs[i] = row.rhs;
    for (const Term& t : row.terms) at(i, t.var) += t.coeff;
    at(i, nstruct + i) = 1.0;  // slack
  }

  tab.lo.resize(nstruct + m);
  tab.up.resize(nstruct + m);
  tab.cost.assign(nstruct + m, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    tab.lo[j] = model.variable(j).lower;
    tab.up[j] = model.variable(j).upper;
    tab.cost[j] = maximize ? -model.variable(j).objective
                           : model.variable(j).objective;
  }
  for (int i = 0; i < m; ++i) {
    const int sj = nstruct + i;
    switch (model.row(i).type) {
      case RowType::kLessEqual:    tab.lo[sj] = 0.0;        tab.up[sj] = kInfinity; break;
      case RowType::kGreaterEqual: tab.lo[sj] = -kInfinity; tab.up[sj] = 0.0;       break;
      case RowType::kEqual:        tab.lo[sj] = 0.0;        tab.up[sj] = 0.0;       break;
    }
  }

  // Initial nonbasic status: rest at the finite bound nearest zero.
  tab.status.assign(nstruct + m, VarStatus::kAtLower);
  for (int j = 0; j < nstruct + m; ++j) {
    tab.status[j] = internal::InitialRestStatus(tab.lo[j], tab.up[j]);
  }

  // Residual of each row with everything nonbasic (the slack included):
  // slack basis candidate value = rhs - A_struct * x_N - slack_rest_value.
  // Where the slack's own resting value already absorbs the row, the slack
  // can simply be basic; otherwise the row needs a phase-1 artificial.
  std::vector<double> slack_basic_value(m);
  std::vector<bool> needs_artificial(m, false);
  int nart = 0;
  for (int i = 0; i < m; ++i) {
    double sum = 0.0;
    for (int j = 0; j < nstruct; ++j) {
      const double a = at(i, j);
      if (a != 0.0) {
        double v = 0.0;
        switch (tab.status[j]) {
          case VarStatus::kAtLower: v = tab.lo[j]; break;
          case VarStatus::kAtUpper: v = tab.up[j]; break;
          default: v = 0.0; break;
        }
        sum += a * v;
      }
    }
    const int sj = nstruct + i;
    const double sval = rhs[i] - sum;  // slack value if basic
    if (sval >= tab.lo[sj] - 1e-12 && sval <= tab.up[sj] + 1e-12) {
      slack_basic_value[i] = sval;
    } else {
      needs_artificial[i] = true;
      ++nart;
    }
  }

  const int ncols = nstruct + m + nart;
  tab.ncols = ncols;
  tab.t.assign(static_cast<size_t>(m) * ncols, 0.0);
  for (int i = 0; i < m; ++i) {
    std::memcpy(tab.Row(i), &dense[static_cast<size_t>(i) * (nstruct + m)],
                sizeof(double) * static_cast<size_t>(nstruct + m));
  }
  dense.clear();
  dense.shrink_to_fit();

  tab.lo.resize(ncols);
  tab.up.resize(ncols);
  tab.cost.resize(ncols, 0.0);
  tab.status.resize(ncols, VarStatus::kAtLower);
  tab.basis.resize(m);
  tab.xb.resize(m);

  // Phase-1 cost: minimize total artificial magnitude.
  std::vector<double> phase1_cost(ncols, 0.0);
  {
    int art = nstruct + m;
    for (int i = 0; i < m; ++i) {
      const int sj = nstruct + i;
      if (!needs_artificial[i]) {
        tab.basis[i] = sj;
        tab.status[sj] = VarStatus::kBasic;
        tab.xb[i] = slack_basic_value[i];
        continue;
      }
      // Slack rests at its nearest-zero finite bound (already set above);
      // the artificial absorbs the remaining residual with a +1 column.
      double srest = tab.NonbasicValue(sj);
      double sum = 0.0;
      const double* row = tab.Row(i);
      for (int j = 0; j < nstruct; ++j) {
        if (row[j] != 0.0) sum += row[j] * tab.NonbasicValue(j);
      }
      const double resid = rhs[i] - sum - srest;
      tab.Row(i)[art] = 1.0;
      if (resid >= 0) {
        tab.lo[art] = 0.0;
        tab.up[art] = kInfinity;
        phase1_cost[art] = 1.0;
      } else {
        tab.lo[art] = -kInfinity;
        tab.up[art] = 0.0;
        phase1_cost[art] = -1.0;
      }
      tab.basis[i] = art;
      tab.status[art] = VarStatus::kBasic;
      tab.xb[i] = resid;
      ++art;
    }
  }

  Solution sol;
  sol.stats.rows = m;
  sol.stats.columns = nstruct;
  sol.stats.artificials = nart;
  const int default_iters = 50 * (m + ncols) + 1000;
  const int max_iters =
      options_.max_iterations > 0 ? options_.max_iterations : default_iters;

  // ---- Phase 1 (only when artificials exist). ----
  if (nart > 0) {
    std::vector<double> real_cost = tab.cost;
    tab.cost = phase1_cost;
    tab.RecomputeReducedCosts();
    SolveStatus st = Iterate(&tab, options_, max_iters,
                             &sol.stats.phase1_iterations,
                             &sol.stats.blands_activations);
    const double inf_obj = tab.ObjectiveNow();
    if (st == SolveStatus::kIterationLimit) {
      sol.status = SolveStatus::kIterationLimit;
      RecordSolveMetrics(sol);
      return sol;
    }
    if (inf_obj > options_.feasibility_tol) {
      sol.status = SolveStatus::kInfeasible;
      RecordSolveMetrics(sol);
      return sol;
    }
    // Pin artificials to zero so they can never re-enter.
    for (int j = nstruct + m; j < ncols; ++j) {
      tab.lo[j] = 0.0;
      tab.up[j] = 0.0;
    }
    tab.cost = real_cost;
  }

  // ---- Phase 2. ----
  tab.RecomputeReducedCosts();
  SolveStatus st = Iterate(&tab, options_, max_iters,
                           &sol.stats.phase2_iterations,
                           &sol.stats.blands_activations);
  sol.status = st;
  RecordSolveMetrics(sol);
  if (st != SolveStatus::kOptimal) return sol;

  ExtractOptimal(tab, model, nstruct, m, maximize, &sol);
  return sol;
}

}  // namespace lp
}  // namespace prospector
