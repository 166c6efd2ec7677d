// Sparse revised simplex: kAuto's engine for planner LPs behind
// SimplexSolver::Solve. It runs the same two-phase bounded-variable method
// as the dense tableau (simplex.cc) — same equality form, same initial
// basis, same Dantzig/Bland pricing, same ratio-test tie-breaking, same
// stall detection — but carries the basis inverse as a product-form eta
// file over CSC columns, so each pivot costs O(nnz) instead of
// O(rows · cols). The factorization is rebuilt every
// SimplexOptions::refactor_interval pivots (and before declaring
// optimality), both for numerical hygiene and to shed eta fill-in; a
// singular refactorization is a numerical breakdown and falls back to the
// dense oracle, which is kept runnable for every accepted model.
//
// Slack and artificial columns, most of a planner basis, cost little more
// than their count: an identity eta is not stored, a single-entry column
// on a row no stored eta pivots on skips FTRAN, and the objective sums
// only costed terms. Each skipped operation is an exact no-op, so the
// pivot path is the one the unabridged arithmetic takes, bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/lp/simplex.h"
#include "src/lp/solver_internal.h"
#include "src/lp/sparse.h"
#include "src/obs/obs.h"

namespace prospector {
namespace lp {
namespace {

using internal::InitialRestStatus;
using internal::VarStatus;

// An m-vector carried as dense values plus an explicit nonzero index list,
// so FTRAN, the ratio test, and eta capture touch only the fill-in a
// column actually has — the proof LPs run thousands of rows with a
// near-identity basis, where dense O(m) passes per pivot (and O(m^2) per
// refactorization) dwarf the arithmetic. Invariant: vals[i] == 0.0 for
// every i not in `list`; listed entries may still hold an exact 0.0 from
// cancellation (harmless — consumers skip zeros).
struct SparseVec {
  std::vector<double> vals;
  std::vector<int> list;
  std::vector<char> in_list;

  void Resize(int m) {
    vals.assign(m, 0.0);
    in_list.assign(m, 0);
    list.clear();
  }
  void Clear() {
    for (const int i : list) {
      vals[i] = 0.0;
      in_list[i] = 0;
    }
    list.clear();
  }
  void Set(int i, double v) {
    if (!in_list[i]) {
      in_list[i] = 1;
      list.push_back(i);
    }
    vals[i] = v;
  }
  // Deterministic consumption order (and the dense engine's ascending-row
  // scan order) for the pivot search and ratio test.
  void SortIndices() { std::sort(list.begin(), list.end()); }
};

// Product form of the inverse: B^{-1} = E_k^{-1} ... E_1^{-1}, each eta
// recording the column w = B_prev^{-1} a_j that entered at `pivot_row`.
// Nonzeros are packed into flat arrays so FTRAN/BTRAN stream linearly.
//
// An identity eta (w = e_pivot_row: pivot exactly 1.0, no off-diagonal
// nonzero) is counted but not stored. FTRAN and BTRAN through it would
// multiply one entry by 1.0 and subtract nothing, which changes no bit.
class EtaFile {
 public:
  void Resize(int m) { pivoted_.assign(m, 0); }
  void Clear() {
    for (const Eta& e : etas_) pivoted_[e.pivot_row] = 0;
    etas_.clear();
    nz_rows_.clear();
    nz_vals_.clear();
    identities_ = 0;
  }
  // Entries of the whole product form, identity etas included, so the
  // fill-in refactor trigger does not depend on what is stored.
  size_t entries() const {
    return nz_rows_.size() + etas_.size() + identities_;
  }
  // Whether a stored eta pivots on row i. FTRAN maps a single-entry column
  // on any other row to itself: every stored eta reads a zero there.
  bool Pivots(int i) const { return pivoted_[i] != 0; }

  // Records w (sparse form, indices sorted) as the next eta. Returns the
  // entries stored, pivot included: 0 for an identity eta.
  int Append(const SparseVec& w, int pivot_row) {
    const int begin = static_cast<int>(nz_rows_.size());
    for (const int i : w.list) {
      if (i != pivot_row && w.vals[i] != 0.0) {
        nz_rows_.push_back(i);
        nz_vals_.push_back(w.vals[i]);
      }
    }
    const int end = static_cast<int>(nz_rows_.size());
    const double pivot = w.vals[pivot_row];
    if (end == begin && pivot == 1.0) {
      ++identities_;
      return 0;
    }
    etas_.push_back({pivot_row, 1.0 / pivot, begin, end});
    pivoted_[pivot_row] = 1;
    return end - begin + 1;
  }

  // v <- B^{-1} v, dense carrier: apply eta inverses oldest-first.
  void Ftran(std::vector<double>* vp) const {
    std::vector<double>& v = *vp;
    for (const Eta& e : etas_) {
      const double t = v[e.pivot_row];
      if (t == 0.0) continue;
      const double s = t * e.inv_pivot;
      v[e.pivot_row] = s;
      for (int p = e.begin; p < e.end; ++p) v[nz_rows_[p]] -= nz_vals_[p] * s;
    }
  }

  // v <- B^{-1} v, sparse carrier: work scales with the fill-in produced,
  // not with m.
  void FtranSparse(SparseVec* v) const {
    for (const Eta& e : etas_) {
      const double t = v->vals[e.pivot_row];
      if (t == 0.0) continue;
      const double s = t * e.inv_pivot;
      v->vals[e.pivot_row] = s;
      for (int p = e.begin; p < e.end; ++p) {
        const int r = nz_rows_[p];
        if (!v->in_list[r]) {
          v->in_list[r] = 1;
          v->list.push_back(r);
        }
        v->vals[r] -= nz_vals_[p] * s;
      }
    }
  }

  // v <- B^{-T} v: apply transposed eta inverses newest-first.
  void Btran(std::vector<double>* vp) const {
    std::vector<double>& v = *vp;
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = v[it->pivot_row];
      for (int p = it->begin; p < it->end; ++p) {
        acc -= nz_vals_[p] * v[nz_rows_[p]];
      }
      v[it->pivot_row] = acc * it->inv_pivot;
    }
  }

 private:
  struct Eta {
    int pivot_row;
    double inv_pivot;
    int begin, end;  // nonzeros excluding the pivot row
  };
  std::vector<Eta> etas_;
  std::vector<int> nz_rows_;
  std::vector<double> nz_vals_;
  std::vector<char> pivoted_;  // per row: some stored eta pivots here
  size_t identities_ = 0;
};

// Equality-form working state; the sparse counterpart of internal::Tableau.
struct Engine {
  const SimplexOptions& opts;
  SolveStats& stats;  // refactorizations and eta_nonzeros accrue here
  int m = 0;
  int nstruct = 0;
  int ncols = 0;
  SparseColumns A;  // [structural | slacks | artificials]
  std::vector<double> lo, up, cost, rhs, xb;
  std::vector<int> basis;  // m: column basic in each row
  std::vector<VarStatus> status;
  EtaFile eta;
  int pivots_since_refactor = 0;
  int refactor_every = 64;
  size_t eta_entry_cap = 0;
  bool breakdown = false;

  SparseVec w;             // FTRAN scratch: B^{-1} a_j
  std::vector<double> y;   // BTRAN scratch: duals of the active cost
  std::vector<int> costed;  // columns with a nonzero active cost, ascending

  Engine(const SimplexOptions& o, SolveStats* s) : opts(o), stats(*s) {}

  double NonbasicValue(int j) const {
    switch (status[j]) {
      case VarStatus::kAtLower: return lo[j];
      case VarStatus::kAtUpper: return up[j];
      case VarStatus::kFreeAtZero: return 0.0;
      case VarStatus::kBasic: break;
    }
    return 0.0;
  }

  // Nonbasic terms in column order, then basic terms in row order, as the
  // dense engine sums them, skipping zero-cost terms. Each would add an
  // exact zero (a zero cost times a finite value), which changes no bit of
  // a sum that starts at +0.0 and so can never be -0.0.
  double ObjectiveNow() const {
    double v = 0.0;
    for (const int j : costed) {
      if (status[j] != VarStatus::kBasic) v += cost[j] * NonbasicValue(j);
    }
    for (int i = 0; i < m; ++i) {
      const double c = cost[basis[i]];
      if (c != 0.0) v += c * xb[i];
    }
    return v;
  }

  // w <- B^{-1} a_j through the eta file, sparse end to end. A
  // single-entry column on a row no stored eta pivots on is its own image.
  void ComputeColumn(int j) {
    w.Clear();
    const int begin = A.start[j];
    const int end = A.start[j + 1];
    for (int p = begin; p < end; ++p) w.Set(A.row_idx[p], A.value[p]);
    if (end - begin == 1 && !eta.Pivots(A.row_idx[begin])) return;
    eta.FtranSparse(&w);
    w.SortIndices();
  }

  // Rebuilds the eta file from the current basis columns, re-assigning each
  // basic column to the unclaimed row where it pivots largest. Returns
  // false when the basis matrix is singular. A slack or artificial column
  // on a row no stored eta pivots on skips FTRAN and appends an identity
  // eta, both O(1), so the work scales with the structural columns'
  // fill-in.
  bool Refactor() {
    eta.Clear();
    pivots_since_refactor = 0;
    ++stats.refactorizations;
    const std::vector<int> order = basis;
    std::vector<char> row_used(m, 0);
    for (int p = 0; p < m; ++p) {
      ComputeColumn(order[p]);
      int prow = -1;
      double best = opts.pivot_tol;
      for (const int i : w.list) {
        if (row_used[i]) continue;
        const double a = std::abs(w.vals[i]);
        if (a > best) {
          best = a;
          prow = i;
        }
      }
      if (prow < 0) return false;
      stats.eta_nonzeros += eta.Append(w, prow);
      row_used[prow] = 1;
      basis[prow] = order[p];
    }
    return true;
  }

  // xb = B^{-1} (b - N x_N), evaluated through the (fresh) factorization.
  void RecomputeXb() {
    std::vector<double> v = rhs;
    for (int j = 0; j < ncols; ++j) {
      if (status[j] == VarStatus::kBasic) continue;
      const double rest = NonbasicValue(j);
      if (rest == 0.0) continue;
      for (int p = A.start[j]; p < A.start[j + 1]; ++p) {
        v[A.row_idx[p]] -= A.value[p] * rest;
      }
    }
    eta.Ftran(&v);
    xb = std::move(v);
  }

  // Runs simplex iterations for the active cost until
  // optimal/unbounded/limit; sets `breakdown` (and returns early) when a
  // refactorization goes singular. Pricing, ratio test, and the
  // stall->Bland anti-cycling ladder replicate the dense Iterate(). Each
  // call starts with a new cost vector, so it re-indexes `costed` first.
  SolveStatus Iterate(int max_iters, int* iterations, int* blands_activations) {
    costed.clear();
    for (int j = 0; j < ncols; ++j) {
      if (cost[j] != 0.0) costed.push_back(j);
    }
    bool bland = false;
    int stall = 0;
    double last_obj = ObjectiveNow();
    int it = 0;
    for (;;) {
      if (it >= max_iters) {
        *iterations = it;
        return SolveStatus::kIterationLimit;
      }

      // Duals of the active cost: y = B^{-T} c_B.
      for (int i = 0; i < m; ++i) y[i] = cost[basis[i]];
      eta.Btran(&y);

      // Pricing: Dantzig (largest violation) or Bland (lowest index), with
      // d_j = c_j - y . a_j computed per column in O(nnz).
      int entering = -1;
      int direction = +1;
      double best_score = opts.optimality_tol;
      for (int j = 0; j < ncols; ++j) {
        if (status[j] == VarStatus::kBasic) continue;
        if (lo[j] == up[j]) continue;  // fixed
        double dj = cost[j];
        for (int p = A.start[j]; p < A.start[j + 1]; ++p) {
          dj -= y[A.row_idx[p]] * A.value[p];
        }
        int dir = 0;
        double score = 0.0;
        switch (status[j]) {
          case VarStatus::kAtLower:
            if (dj < -opts.optimality_tol) { dir = +1; score = -dj; }
            break;
          case VarStatus::kAtUpper:
            if (dj > opts.optimality_tol) { dir = -1; score = dj; }
            break;
          case VarStatus::kFreeAtZero:
            if (std::abs(dj) > opts.optimality_tol) {
              dir = dj < 0 ? +1 : -1;
              score = std::abs(dj);
            }
            break;
          case VarStatus::kBasic:
            break;
        }
        if (dir == 0) continue;
        if (bland) {
          entering = j;
          direction = dir;
          break;
        }
        if (score > best_score) {
          best_score = score;
          entering = j;
          direction = dir;
        }
      }
      if (entering < 0) {
        if (pivots_since_refactor > 0) {
          // Optimality was judged through an accumulated eta file; refresh
          // the factorization and confirm against exact data before
          // declaring it. (A post-refresh improving column resumes
          // pivoting, still bounded by max_iters.)
          if (!Refactor()) {
            breakdown = true;
            *iterations = it;
            return SolveStatus::kIterationLimit;
          }
          RecomputeXb();
          continue;
        }
        *iterations = it;
        return SolveStatus::kOptimal;
      }

      // w = B^{-1} a_j: the entering column in the current basis frame —
      // exactly the dense tableau's column j. Sorted indices keep the ratio
      // test's tie-breaking scan order identical to the dense ascending-row
      // sweep.
      ComputeColumn(entering);

      // Bounded-variable ratio test (dense RatioTest, reading w).
      const double own_range = up[entering] - lo[entering];
      double step = own_range;
      int leaving_row = -1;
      bool leaving_to_upper = false;
      const double kTieTol = 1e-9;
      double best_pivot_mag = 0.0;
      int best_basis_col = std::numeric_limits<int>::max();
      for (const int i : w.list) {
        const double wij = w.vals[i];
        if (std::abs(wij) < opts.pivot_tol) continue;
        const double delta = direction * wij;
        const int b = basis[i];
        double limit;
        bool to_upper;
        if (delta > 0) {
          if (lo[b] == -kInfinity) continue;
          limit = (xb[i] - lo[b]) / delta;
          to_upper = false;
        } else {
          if (up[b] == kInfinity) continue;
          limit = (up[b] - xb[i]) / (-delta);
          to_upper = true;
        }
        if (limit < 0) limit = 0;  // degeneracy / roundoff
        if (limit < step - kTieTol) {
          step = limit;
          leaving_row = i;
          leaving_to_upper = to_upper;
          best_pivot_mag = std::abs(wij);
          best_basis_col = b;
        } else if (limit <= step + kTieTol && leaving_row >= 0) {
          if (bland ? (b < best_basis_col)
                    : (std::abs(wij) > best_pivot_mag)) {
            step = std::min(step, limit);
            leaving_row = i;
            leaving_to_upper = to_upper;
            best_pivot_mag = std::abs(wij);
            best_basis_col = b;
          }
        }
      }
      if (std::isinf(step)) {
        *iterations = it;
        return SolveStatus::kUnbounded;
      }

      // Apply the step (dense ApplyStep): bound flip, or basis exchange
      // recorded as one more eta.
      if (step != 0.0) {
        for (const int i : w.list) {
          if (w.vals[i] != 0.0) xb[i] -= direction * step * w.vals[i];
        }
      }
      if (leaving_row < 0) {
        status[entering] =
            (direction > 0) ? VarStatus::kAtUpper : VarStatus::kAtLower;
      } else {
        const int r = leaving_row;
        const int leaving = basis[r];
        const double entering_value =
            NonbasicValue(entering) + direction * step;
        status[leaving] =
            leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
        basis[r] = entering;
        status[entering] = VarStatus::kBasic;
        xb[r] = entering_value;
        stats.eta_nonzeros += eta.Append(w, r);
        if (++pivots_since_refactor >= refactor_every ||
            eta.entries() > eta_entry_cap) {
          if (!Refactor()) {
            breakdown = true;
            *iterations = it + 1;
            return SolveStatus::kIterationLimit;
          }
          RecomputeXb();
        }
      }
      ++it;

      const double obj = ObjectiveNow();
      if (obj < last_obj - 1e-12) {
        stall = 0;
        bland = false;
        last_obj = obj;
      } else if (++stall > opts.stall_threshold) {
        if (!bland) ++*blands_activations;
        bland = true;  // anti-cycling fallback until progress resumes
      }
    }
  }
};

// Full two-phase revised solve. Returns false on numerical breakdown
// (singular refactorization) — *sol is then unusable and the caller takes
// the dense oracle instead.
bool RevisedAttempt(const Model& model, const SimplexOptions& opts,
                    Solution* sol) {
  const int nstruct = model.num_variables();
  const int m = model.num_rows();
  const bool maximize = model.sense() == Sense::kMaximize;

  Engine eng(opts, &sol->stats);
  eng.m = m;
  eng.nstruct = nstruct;
  eng.A = BuildEqualityColumns(model, {});
  eng.w.Resize(m);
  eng.eta.Resize(m);
  eng.y.assign(m, 0.0);
  eng.refactor_every = std::max(1, opts.refactor_interval);
  eng.eta_entry_cap =
      std::max<size_t>(size_t{1} << 20, 256 * static_cast<size_t>(m));

  eng.rhs.resize(m);
  for (int i = 0; i < m; ++i) eng.rhs[i] = model.row(i).rhs;

  // Bounds, costs, and initial resting statuses for [structural | slack] —
  // byte-for-byte the dense assembly rules.
  eng.lo.resize(nstruct + m);
  eng.up.resize(nstruct + m);
  eng.cost.assign(nstruct + m, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    eng.lo[j] = model.variable(j).lower;
    eng.up[j] = model.variable(j).upper;
    eng.cost[j] = maximize ? -model.variable(j).objective
                           : model.variable(j).objective;
  }
  for (int i = 0; i < m; ++i) {
    const int sj = nstruct + i;
    switch (model.row(i).type) {
      case RowType::kLessEqual:    eng.lo[sj] = 0.0;        eng.up[sj] = kInfinity; break;
      case RowType::kGreaterEqual: eng.lo[sj] = -kInfinity; eng.up[sj] = 0.0;       break;
      case RowType::kEqual:        eng.lo[sj] = 0.0;        eng.up[sj] = 0.0;       break;
    }
  }
  eng.status.resize(nstruct + m);
  for (int j = 0; j < nstruct + m; ++j) {
    eng.status[j] = InitialRestStatus(eng.lo[j], eng.up[j]);
  }

  // Per-row structural resting sums. Scattering CSC columns in ascending j
  // adds into each row accumulator in the dense assembler's own order, so
  // the artificial decisions below match it bit for bit.
  std::vector<double> sum(m, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    const double rest = eng.NonbasicValue(j);
    if (rest == 0.0) continue;
    for (int p = eng.A.start[j]; p < eng.A.start[j + 1]; ++p) {
      sum[eng.A.row_idx[p]] += eng.A.value[p] * rest;
    }
  }

  // Rows whose slack can absorb the residual start with the slack basic;
  // the rest get a phase-1 artificial (+1 unit column, cost by sign).
  std::vector<double> slack_basic_value(m, 0.0);
  std::vector<char> row_has_artificial(m, 0);
  std::vector<int> artificial_rows;
  for (int i = 0; i < m; ++i) {
    const int sj = nstruct + i;
    const double sval = eng.rhs[i] - sum[i];
    if (sval >= eng.lo[sj] - 1e-12 && sval <= eng.up[sj] + 1e-12) {
      slack_basic_value[i] = sval;
    } else {
      row_has_artificial[i] = 1;
      artificial_rows.push_back(i);
    }
  }
  const int nart = static_cast<int>(artificial_rows.size());
  const int ncols = nstruct + m + nart;
  eng.ncols = ncols;
  for (int r : artificial_rows) {
    eng.A.row_idx.push_back(r);
    eng.A.value.push_back(1.0);
    eng.A.start.push_back(static_cast<int>(eng.A.row_idx.size()));
  }
  eng.lo.resize(ncols, 0.0);
  eng.up.resize(ncols, 0.0);
  eng.cost.resize(ncols, 0.0);
  eng.status.resize(ncols, VarStatus::kAtLower);

  std::vector<double> phase1_cost(ncols, 0.0);
  eng.basis.resize(m);
  eng.xb.resize(m);
  {
    int art = nstruct + m;
    for (int i = 0; i < m; ++i) {
      const int sj = nstruct + i;
      if (!row_has_artificial[i]) {
        eng.basis[i] = sj;
        eng.status[sj] = VarStatus::kBasic;
        eng.xb[i] = slack_basic_value[i];
        continue;
      }
      const double srest = eng.NonbasicValue(sj);
      const double resid = eng.rhs[i] - sum[i] - srest;
      if (resid >= 0) {
        eng.lo[art] = 0.0;
        eng.up[art] = kInfinity;
        phase1_cost[art] = 1.0;
      } else {
        eng.lo[art] = -kInfinity;
        eng.up[art] = 0.0;
        phase1_cost[art] = -1.0;
      }
      eng.basis[i] = art;
      eng.status[art] = VarStatus::kBasic;
      eng.xb[i] = resid;
      ++art;
    }
  }

  sol->stats.rows = m;
  sol->stats.columns = nstruct;
  sol->stats.artificials = nart;
  const int default_iters = 50 * (m + ncols) + 1000;
  const int max_iters =
      opts.max_iterations > 0 ? opts.max_iterations : default_iters;

  // ---- Phase 1 (only when artificials exist). ----
  const std::vector<double> real_cost = eng.cost;
  if (nart > 0) {
    eng.cost = phase1_cost;
    const SolveStatus st = eng.Iterate(max_iters,
                                       &sol->stats.phase1_iterations,
                                       &sol->stats.blands_activations);
    if (eng.breakdown) return false;
    const double inf_obj = eng.ObjectiveNow();
    if (st == SolveStatus::kIterationLimit) {
      sol->status = SolveStatus::kIterationLimit;
      return true;
    }
    if (inf_obj > opts.feasibility_tol) {
      sol->status = SolveStatus::kInfeasible;
      return true;
    }
    // Pin artificials to zero so they can never re-enter.
    for (int j = nstruct + m; j < ncols; ++j) {
      eng.lo[j] = 0.0;
      eng.up[j] = 0.0;
    }
    eng.cost = real_cost;
  }

  // ---- Phase 2. ----
  const SolveStatus st = eng.Iterate(max_iters,
                                     &sol->stats.phase2_iterations,
                                     &sol->stats.blands_activations);
  if (eng.breakdown) return false;
  sol->status = st;
  if (st != SolveStatus::kOptimal) return true;

  // ---- Extraction (dense ExtractOptimal, with duals from BTRAN). The
  // optimality exit guarantees a fresh factorization, so y is exact. ----
  sol->values.assign(nstruct, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    if (eng.status[j] != VarStatus::kBasic) {
      sol->values[j] = eng.NonbasicValue(j);
    }
  }
  for (int i = 0; i < m; ++i) {
    if (eng.basis[i] < nstruct) sol->values[eng.basis[i]] = eng.xb[i];
  }
  sol->objective = model.ObjectiveValue(sol->values);

  for (int i = 0; i < m; ++i) eng.y[i] = eng.cost[eng.basis[i]];
  eng.eta.Btran(&eng.y);
  sol->row_duals.resize(m);
  for (int i = 0; i < m; ++i) {
    // The internal dual of row i is y_i (the slack column is e_i with zero
    // cost, so d[slack_i] = -y_i — the dense convention).
    sol->row_duals[i] = maximize ? -eng.y[i] : eng.y[i];
  }
  sol->reduced_costs.assign(nstruct, 0.0);
  for (int j = 0; j < nstruct; ++j) {
    if (eng.status[j] == VarStatus::kBasic) continue;
    double dj = eng.cost[j];
    for (int p = eng.A.start[j]; p < eng.A.start[j + 1]; ++p) {
      dj -= eng.y[eng.A.row_idx[p]] * eng.A.value[p];
    }
    sol->reduced_costs[j] = maximize ? -dj : dj;
  }
  sol->primal_residual = internal::ComputePrimalResidual(model, sol->values);
  return true;
}

}  // namespace

Result<Solution> SimplexSolver::SolveRevised(const Model& model) const {
  PROSPECTOR_SPAN("lp.solve_revised");
  PROSPECTOR_RETURN_IF_ERROR(model.Validate());
  PROSPECTOR_RETURN_IF_ERROR(
      internal::CheckTableauBudget(model, options_.max_tableau_bytes));

  Solution sol;
  if (!RevisedAttempt(model, options_, &sol)) {
    // Numerical breakdown (singular refactorization); the dense oracle is
    // always available for any model the budget guard accepted.
    PROSPECTOR_COUNTER_ADD("lp.revised_fallbacks", 1);
    return SolveDense(model);
  }
  PROSPECTOR_COUNTER_ADD("lp.revised_solves", 1);
  internal::RecordSolveMetrics(sol);
#ifndef PROSPECTOR_LP_CROSSCHECK
  return sol;
#else
  auto dense = SolveDense(model);
  if (!dense.ok()) return dense;
  const Solution& c = dense.value();
  const double scale =
      std::max({1.0, std::abs(c.objective), std::abs(sol.objective)});
  const bool status_match = c.status == sol.status;
  const bool objective_match =
      sol.status != SolveStatus::kOptimal ||
      std::abs(c.objective - sol.objective) <= 1e-6 * scale;
  if (!status_match || !objective_match) {
    std::fprintf(stderr,
                 "lp: revised cross-check failed: revised %s obj=%.12g vs "
                 "dense %s obj=%.12g (rows=%d cols=%d)\n",
                 ToString(sol.status), sol.objective, ToString(c.status),
                 c.objective, model.num_rows(), model.num_variables());
    std::abort();
  }
  // Return the dense solution so every downstream decision is bit-identical
  // to a dense-only pipeline.
  return dense;
#endif
}

}  // namespace lp
}  // namespace prospector
