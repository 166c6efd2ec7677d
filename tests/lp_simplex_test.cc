#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/lp/model.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace prospector {
namespace lp {
namespace {

Solution MustSolve(const Model& model, SimplexOptions opts = {}) {
  SimplexSolver solver(opts);
  auto res = solver.Solve(model);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return res.value();
}

// Solves `model` on the dense oracle and on the revised default, and runs
// `check` on each solution. Small models need both: the serving path only
// ever runs the revised engine, and the cross-check arm trusts the dense
// one.
template <typename Check>
void ForEachEngine(const Model& model, Check check) {
  for (const SimplexAlgorithm engine :
       {SimplexAlgorithm::kDense, SimplexAlgorithm::kRevised}) {
    SCOPED_TRACE(engine == SimplexAlgorithm::kDense ? "dense" : "revised");
    SimplexOptions opts;
    opts.algorithm = engine;
    check(MustSolve(model, opts));
  }
}

TEST(SimplexTest, TrivialUnconstrainedBounds) {
  // min x, 2 <= x <= 5  -> x = 2.
  Model m;
  int x = m.AddVariable(2.0, 5.0, 1.0, "x");
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.values[x], 2.0, 1e-9);
    EXPECT_NEAR(s.objective, 2.0, 1e-9);
  });
}

TEST(SimplexTest, MaximizeAtUpperBound) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, 7.0, 3.0, "x");
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.values[x], 7.0, 1e-9);
    EXPECT_NEAR(s.objective, 21.0, 1e-9);
  });
}

TEST(SimplexTest, ClassicTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Known optimum (Hillier-Lieberman): x=2, y=6, obj=36.
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 3.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 5.0, "y");
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}});
  m.AddRow(RowType::kLessEqual, 12.0, {{y, 2.0}});
  m.AddRow(RowType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 36.0, 1e-8);
    EXPECT_NEAR(s.values[x], 2.0, 1e-8);
    EXPECT_NEAR(s.values[y], 6.0, 1e-8);
  });
}

TEST(SimplexTest, EqualityRowRequiresPhase1) {
  // min x + y s.t. x + y = 10, x <= 4  ->  x=4, y=6 is NOT optimal;
  // optimum is any point with x+y=10; objective 10 everywhere on the line.
  Model m;
  int x = m.AddVariable(0.0, 4.0, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 10.0, 1e-8);
    EXPECT_NEAR(s.values[x] + s.values[y], 10.0, 1e-8);
    EXPECT_GT(s.stats.total_iterations(), 0);
    EXPECT_GT(s.stats.artificials, 0);
    EXPECT_EQ(s.stats.rows, 1);
    EXPECT_EQ(s.stats.columns, 2);
  });
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 10, x - y >= -5, x,y >= 0.
  // Optimum: push y up to use cheaper... 2 < 3 so prefer x: y=0, x=10 ->
  // check x - y = 10 >= -5 ok. obj = 20.
  Model m;
  int x = m.AddVariable(0.0, kInfinity, 2.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 3.0, "y");
  m.AddRow(RowType::kGreaterEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  m.AddRow(RowType::kGreaterEqual, -5.0, {{x, 1.0}, {y, -1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 20.0, 1e-8);
    EXPECT_NEAR(s.values[x], 10.0, 1e-8);
    EXPECT_NEAR(s.values[y], 0.0, 1e-8);
  });
}

TEST(SimplexTest, DetectsInfeasible) {
  Model m;
  int x = m.AddVariable(0.0, 1.0, 1.0, "x");
  m.AddRow(RowType::kGreaterEqual, 5.0, {{x, 1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  });
}

TEST(SimplexTest, DetectsInfeasibleConflictingRows) {
  Model m;
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kLessEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  m.AddRow(RowType::kGreaterEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  });
}

TEST(SimplexTest, DetectsUnbounded) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 0.0, "y");
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}, {y, -1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    EXPECT_EQ(s.status, SolveStatus::kUnbounded);
  });
}

TEST(SimplexTest, FreeVariable) {
  // min x s.t. x >= -3 expressed via a row (x itself free) -> x = -3.
  Model m;
  int x = m.AddVariable(-kInfinity, kInfinity, 1.0, "x");
  m.AddRow(RowType::kGreaterEqual, -3.0, {{x, 1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.values[x], -3.0, 1e-8);
  });
}

TEST(SimplexTest, FixedVariableContributes) {
  // x fixed at 2; min y s.t. y >= 5 - x  -> y = 3.
  Model m;
  int x = m.AddVariable(2.0, 2.0, 0.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.values[y], 3.0, 1e-8);
  });
}

TEST(SimplexTest, NegativeRhsLessEqual) {
  // min x + y s.t. -x - y <= -4 (i.e. x + y >= 4), x,y in [0, 10].
  Model m;
  int x = m.AddVariable(0.0, 10.0, 1.0, "x");
  int y = m.AddVariable(0.0, 10.0, 1.0, "y");
  m.AddRow(RowType::kLessEqual, -4.0, {{x, -1.0}, {y, -1.0}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 4.0, 1e-8);
  });
}

TEST(SimplexTest, DuplicateTermsAreSummed) {
  // max x s.t. 0.5x + 0.5x <= 3  -> x = 3.
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  m.AddRow(RowType::kLessEqual, 3.0, {{x, 0.5}, {x, 0.5}});
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.values[x], 3.0, 1e-8);
  });
}

// Beale's classic cycling example: every basic feasible solution of the
// first two rows is degenerate, and with Dantzig pricing the simplex
// method cycles forever. Optimum is -0.05 (minimizing).
Model BealeCyclingModel() {
  Model m;
  int x1 = m.AddVariable(0.0, kInfinity, -0.75, "x1");
  int x2 = m.AddVariable(0.0, kInfinity, 150.0, "x2");
  int x3 = m.AddVariable(0.0, kInfinity, -0.02, "x3");
  int x4 = m.AddVariable(0.0, kInfinity, 6.0, "x4");
  m.AddRow(RowType::kLessEqual, 0.0,
           {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  m.AddRow(RowType::kLessEqual, 0.0,
           {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  m.AddRow(RowType::kLessEqual, 1.0, {{x3, 1.0}});
  return m;
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // The Bland fallback must guarantee termination on either engine.
  ForEachEngine(BealeCyclingModel(), [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, -0.05, 1e-8);
  });
}

TEST(SimplexTest, DefaultSolverRunsTheRevisedEngine) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> x=1.6, y=1.2, obj=2.8. Even
  // a two-row model runs on the revised engine unless kDense is asked for.
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 1.0, "x");
  int y = m.AddVariable(0.0, kInfinity, 1.0, "y");
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}, {y, 2.0}});
  m.AddRow(RowType::kLessEqual, 6.0, {{x, 3.0}, {y, 1.0}});
  SimplexSolver solver;
  auto s = solver.Solve(m);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->status, SolveStatus::kOptimal);
  EXPECT_NEAR(s->objective, 2.8, 1e-9);
#ifdef PROSPECTOR_LP_CROSSCHECK
  // This build returns the dense oracle's solution from SolveRevised.
  EXPECT_EQ(s->stats.refactorizations, 0);
#else
  EXPECT_GE(s->stats.refactorizations, 1);
#endif
}

TEST(SimplexTest, DegenerateCyclingModelTerminatesUnderBothEngines) {
  // Both engines, with a stall threshold low enough that the Bland
  // fallback engages within a few degenerate pivots, and a refactorization
  // interval small enough that the revised engine rebuilds its eta file
  // mid-solve. Both must terminate at the same optimum.
  const Model m = BealeCyclingModel();
  SimplexOptions dense_opts;
  dense_opts.algorithm = SimplexAlgorithm::kDense;
  dense_opts.stall_threshold = 2;
  SimplexOptions revised_opts;
  revised_opts.algorithm = SimplexAlgorithm::kRevised;
  revised_opts.stall_threshold = 2;
  revised_opts.refactor_interval = 3;
  Solution dense = MustSolve(m, dense_opts);
  Solution revised = MustSolve(m, revised_opts);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  ASSERT_EQ(revised.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, -0.05, 1e-8);
  EXPECT_NEAR(revised.objective, dense.objective, 1e-8);
}

TEST(SimplexTest, RevisedCrossCheckMatchesDenseOnRandomLps) {
  // Each trial is solved by a dense and by a revised solver, and the two
  // must reach the same status and objective. In a
  // -DPROSPECTOR_LP_CROSSCHECK=ON build the revised solve also runs the
  // dense oracle itself (aborting on divergence) and returns the dense
  // solution, so there the two results must agree bit for bit.
  Rng rng(0x5ca1e);
  for (int trial = 0; trial < 12; ++trial) {
    Model m;
    m.SetSense(Sense::kMaximize);
    const int nvars = 12;
    std::vector<int> xs;
    for (int v = 0; v < nvars; ++v) {
      xs.push_back(
          m.AddVariable(0.0, rng.Uniform(0.5, 2.0), rng.Uniform(-1.0, 1.0)));
    }
    for (int r = 0; r < 8; ++r) {
      std::vector<Term> terms;
      for (int v = 0; v < nvars; ++v) {
        if (rng.NextDouble() < 0.4) terms.push_back({xs[v], rng.Uniform(-1.0, 2.0)});
      }
      // Nonnegative rhs keeps x = 0 feasible: every trial is kOptimal.
      m.AddRow(RowType::kLessEqual, rng.Uniform(0.5, 3.0), terms);
    }
    SimplexOptions dense_opts;
    dense_opts.algorithm = SimplexAlgorithm::kDense;
    SimplexOptions revised_opts;
    revised_opts.algorithm = SimplexAlgorithm::kRevised;
    Solution dense = MustSolve(m, dense_opts);
    Solution revised = MustSolve(m, revised_opts);
    ASSERT_EQ(revised.status, dense.status) << "trial=" << trial;
    ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "trial=" << trial;
    EXPECT_NEAR(revised.objective, dense.objective,
                1e-7 * (1.0 + std::fabs(dense.objective)))
        << "trial=" << trial;
    EXPECT_TRUE(m.IsFeasible(revised.values, 1e-6)) << "trial=" << trial;
#ifdef PROSPECTOR_LP_CROSSCHECK
    EXPECT_EQ(revised.values, dense.values) << "trial=" << trial;
    EXPECT_EQ(revised.objective, dense.objective) << "trial=" << trial;
#endif
  }
}

// -------- Pinned pivot path. The tests above compare objectives within a
// tolerance, so a kernel change that reorders floating-point work or breaks
// a pricing tie differently would pass them. These models pin the revised
// engine's exact pivot counts and the bit patterns of its whole solution;
// a changed constant is a changed pivot path and must be deliberate. --------

// FNV-1a over the little-endian bytes of each double's bit pattern.
uint64_t HashBits(uint64_t h, double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    h ^= (bits >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t SolutionHash(const Solution& s) {
  uint64_t h = HashBits(0xcbf29ce484222325ULL, s.objective);
  for (const auto* v : {&s.values, &s.row_duals, &s.reduced_costs}) {
    for (const double x : *v) h = HashBits(h, x);
  }
  return h;
}

// LP-LF-shaped (paper Section 4.2) on a 100-node ternary tree: edge
// variables z_e, and per sample eight hit variables y worth one each, each
// tied to every edge on its path to the root by y - z_e <= 0. Every other
// hit splits its own edge's row as y - z_e/2 - z_parent/2 <= 0, for three
// nonzeros. One budget row prices the edges. Its 551 rows outnumber its 259
// columns two to one, so the optimal basis is mostly slacks.
Model PlannerShapedBlockLp() {
  Rng rng(14);
  Model m;
  m.SetSense(Sense::kMaximize);
  const int nodes = 100;
  auto parent = [](int i) { return (i - 1) / 3; };
  std::vector<int> z(nodes, -1);
  std::vector<Term> budget;
  double total = 0.0;
  for (int e = 1; e < nodes; ++e) {
    z[e] = m.AddBinaryRelaxed(0.0);
    const double c = rng.Uniform(0.5, 1.5);
    budget.push_back({z[e], c});
    total += c;
  }
  for (int s = 0; s < 20; ++s) {
    for (int k = 0; k < 8; ++k) {
      const int i = 1 + static_cast<int>(rng.UniformInt(uint64_t{nodes - 1}));
      const int y = m.AddBinaryRelaxed(1.0);
      for (int e = i; e != 0; e = parent(e)) {
        if (e == i && k % 2 == 1 && parent(e) != 0) {
          m.AddRow(RowType::kLessEqual, 0.0,
                   {{y, 1.0}, {z[e], -0.5}, {z[parent(e)], -0.5}});
        } else {
          m.AddRow(RowType::kLessEqual, 0.0, {{y, 1.0}, {z[e], -1.0}});
        }
      }
    }
  }
  m.AddRow(RowType::kLessEqual, 0.2 * total, std::move(budget));
  return m;
}

// A knapsack over 40 variables in [0, 1] plus 560 side rows of two or
// three nonzeros whose right-hand sides exceed anything the bounds allow.
// The budget binds only once nearly every variable sits at its upper
// bound, so the basis stays all slacks but the column the budget row
// makes basic.
Model SlackHeavyLp() {
  Rng rng(5);
  Model m;
  m.SetSense(Sense::kMaximize);
  const int nvars = 40;
  std::vector<Term> budget;
  double total = 0.0;
  for (int j = 0; j < nvars; ++j) {
    m.AddBinaryRelaxed(rng.Uniform(0.5, 1.5));
    const double c = rng.Uniform(0.5, 1.5);
    budget.push_back({j, c});
    total += c;
  }
  for (int r = 0; r < 560; ++r) {
    const int terms = 2 + r % 2;
    std::vector<Term> row;
    for (int t = 0; t < terms; ++t) {
      row.push_back({static_cast<int>(rng.UniformInt(uint64_t{nvars})), 1.0});
    }
    m.AddRow(RowType::kLessEqual, terms + 0.5, std::move(row));
  }
  m.AddRow(RowType::kLessEqual, 0.97 * total, std::move(budget));
  return m;
}

// Proof-LP-shaped (paper Section 4.3) on a 31-node binary heap tree: per
// sample, p[i][k] = "i's value proven k hops up its path" with chain rows
// p[i][k] <= p[i][k-1], a bandwidth row per edge (values proven at v fit
// b_v), random sibling "smaller value" rows, and a budget over the
// bandwidths b_v in [1, subtree size].
Model ProofShapedChainLp() {
  Rng rng(41);
  Model m;
  m.SetSense(Sense::kMaximize);
  const int nodes = 31;
  auto parent = [](int i) { return (i - 1) / 2; };
  std::vector<int> depth(nodes, 0);
  std::vector<int> subtree(nodes, 1);
  for (int i = 1; i < nodes; ++i) depth[i] = depth[parent(i)] + 1;
  for (int i = nodes - 1; i > 0; --i) subtree[parent(i)] += subtree[i];
  std::vector<int> b(nodes, -1);
  std::vector<Term> budget;
  double floor_cost = 0.0;
  double full_cost = 0.0;
  for (int v = 1; v < nodes; ++v) {
    b[v] = m.AddVariable(1.0, subtree[v], 0.0);
    const double c = rng.Uniform(0.5, 1.5);
    budget.push_back({b[v], c});
    floor_cost += c;
    full_cost += c * subtree[v];
  }
  for (int s = 0; s < 4; ++s) {
    std::vector<std::vector<int>> p(nodes);
    for (int i = 0; i < nodes; ++i) {
      const bool top = rng.Bernoulli(0.2);
      for (int k = 0; k <= depth[i]; ++k) {
        p[i].push_back(m.AddBinaryRelaxed(top && k == depth[i] ? 1.0 : 0.0));
        if (k > 0) {
          m.AddRow(RowType::kLessEqual, 0.0,
                   {{p[i][k], 1.0}, {p[i][k - 1], -1.0}});
        }
      }
    }
    for (int v = 1; v < nodes; ++v) {
      std::vector<Term> row;
      for (int i = v; i < nodes; ++i) {
        int a = i;
        while (depth[a] > depth[v]) a = parent(a);
        if (a == v) row.push_back({p[i][depth[i] - depth[v]], 1.0});
      }
      row.push_back({b[v], -1.0});
      m.AddRow(RowType::kLessEqual, 0.0, std::move(row));
    }
    for (int i = 1; i + 1 < nodes; i += 2) {
      if (rng.Bernoulli(0.5)) {
        m.AddRow(RowType::kLessEqual, 0.0, {{p[i][1], 1.0}, {p[i + 1][0], -1.0}});
      }
    }
  }
  m.AddRow(RowType::kLessEqual, floor_cost + 0.25 * (full_cost - floor_cost),
           std::move(budget));
  return m;
}

// = and >= rows built around a known interior point, so the slack basis is
// infeasible at the resting point and phase 1 has work to do.
Model PhaseOneLp() {
  Rng rng(7);
  Model m;
  const int nvars = 30;
  std::vector<double> x0(nvars);
  for (int j = 0; j < nvars; ++j) {
    const double up = rng.Uniform(1.0, 4.0);
    m.AddVariable(0.0, up, rng.Uniform(-1.0, 2.0));
    x0[j] = rng.Uniform(0.2, 0.8) * up;
  }
  for (int r = 0; r < 24; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < nvars; ++j) {
      if (!rng.Bernoulli(0.3)) continue;
      const double a = rng.Uniform(-1.0, 2.0);
      terms.push_back({j, a});
      lhs += a * x0[j];
    }
    switch (r % 3) {
      case 0: m.AddRow(RowType::kEqual, lhs, terms); break;
      case 1: m.AddRow(RowType::kGreaterEqual, lhs - rng.Uniform(0.0, 0.5), terms); break;
      default: m.AddRow(RowType::kLessEqual, lhs + rng.Uniform(0.0, 0.5), terms); break;
    }
  }
  return m;
}

TEST(RevisedSimplexTest, PivotPathIsPinned) {
  struct Pinned {
    int phase1, phase2, blands;
    uint64_t hash;
  };
  struct Case {
    const char* name;
    Model model;
    int stall_threshold, refactor_interval;
    Pinned want;
  };
  // The planner block runs at stall threshold 8 so Bland's rule engages and
  // the pinned path also depends on the objective values the stall test
  // reads. In a -DPROSPECTOR_LP_CROSSCHECK=ON build SolveRevised returns the
  // dense oracle's solution, so that build pins the dense engine's path.
  const SimplexOptions defaults;
#ifndef PROSPECTOR_LP_CROSSCHECK
  const Case cases[] = {
      {"planner block", PlannerShapedBlockLp(), 8, defaults.refactor_interval,
       {0, 299, 3, 0x05035350926253dbULL}},
      {"proof chain", ProofShapedChainLp(), defaults.stall_threshold,
       defaults.refactor_interval, {0, 114, 0, 0xdeba3869e1b88d88ULL}},
      {"phase 1", PhaseOneLp(), defaults.stall_threshold,
       defaults.refactor_interval, {28, 23, 0, 0xcae9be1b84f275a7ULL}},
      {"beale", BealeCyclingModel(), 2, 3, {0, 2, 0, 0xfda47249445585a8ULL}},
  };
#else
  const Case cases[] = {
      {"planner block", PlannerShapedBlockLp(), 8, defaults.refactor_interval,
       {0, 302, 4, 0x7e126664245f41dfULL}},
      {"proof chain", ProofShapedChainLp(), defaults.stall_threshold,
       defaults.refactor_interval, {0, 114, 0, 0xb1f36833529bb627ULL}},
      {"phase 1", PhaseOneLp(), defaults.stall_threshold,
       defaults.refactor_interval, {28, 23, 0, 0xf793e2a3efc6b9deULL}},
      {"beale", BealeCyclingModel(), 2, 3, {0, 2, 0, 0xc7d588dbd19bd028ULL}},
  };
#endif
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SimplexOptions opts;
    opts.algorithm = SimplexAlgorithm::kRevised;
    opts.stall_threshold = c.stall_threshold;
    opts.refactor_interval = c.refactor_interval;
    const Solution s = MustSolve(c.model, opts);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_EQ(s.stats.phase1_iterations, c.want.phase1);
    EXPECT_EQ(s.stats.phase2_iterations, c.want.phase2);
    EXPECT_EQ(s.stats.blands_activations, c.want.blands);
    EXPECT_EQ(SolutionHash(s), c.want.hash)
        << "hash 0x" << std::hex << SolutionHash(s);
  }
}

TEST(RevisedSimplexTest, WorkCountersCountOnlyStoredEtas) {
  // Every refactorization appends one eta per row, so eta_nonzeros stays
  // below rows x refactorizations only because the slacks' identity etas
  // are not stored.
  const Model m = SlackHeavyLp();
  SimplexOptions dense_opts;
  dense_opts.algorithm = SimplexAlgorithm::kDense;
  const Solution dense = MustSolve(m, dense_opts);
  EXPECT_EQ(dense.stats.refactorizations, 0);
  EXPECT_EQ(dense.stats.eta_nonzeros, 0);

  SimplexOptions revised_opts;
  revised_opts.algorithm = SimplexAlgorithm::kRevised;
  obs::MetricsRegistry::Global().Reset();
  const Solution revised = MustSolve(m, revised_opts);
#ifdef PROSPECTOR_LP_CROSSCHECK
  // This build returns the dense oracle's solution from SolveRevised.
  EXPECT_EQ(revised.stats.refactorizations, 0);
  EXPECT_EQ(revised.stats.eta_nonzeros, 0);
#else
  ASSERT_GT(revised.stats.refactorizations, 0);
  EXPECT_LT(revised.stats.eta_nonzeros,
            int64_t{m.num_rows()} * revised.stats.refactorizations);
  SolveStats twice = revised.stats;
  twice.Accumulate(revised.stats);
  EXPECT_EQ(twice.refactorizations, 2 * revised.stats.refactorizations);
  EXPECT_EQ(twice.eta_nonzeros, 2 * revised.stats.eta_nonzeros);
#ifndef PROSPECTOR_OBS_DISABLED
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.counter("lp.refactorizations")->value(),
            revised.stats.refactorizations);
  EXPECT_EQ(registry.counter("lp.eta_nonzeros")->value(),
            revised.stats.eta_nonzeros);
#endif
#endif
}

TEST(SimplexTest, ValidateRejectsBadVariableIndex) {
  Model m;
  m.AddVariable(0.0, 1.0, 1.0);
  m.AddRow(RowType::kLessEqual, 1.0, {{7, 1.0}});
  SimplexSolver solver;
  auto res = solver.Solve(m);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimplexTest, ValidateRejectsInvertedBounds) {
  Model m;
  m.AddVariable(2.0, 1.0, 1.0);
  SimplexSolver solver;
  auto res = solver.Solve(m);
  EXPECT_FALSE(res.ok());
}

TEST(SimplexTest, SolutionIsFeasibleAndResidualSmall) {
  Model m;
  m.SetSense(Sense::kMaximize);
  Rng rng(7);
  std::vector<int> vars;
  for (int i = 0; i < 20; ++i) {
    vars.push_back(m.AddVariable(0.0, 1.0, rng.Uniform(0.0, 1.0)));
  }
  for (int r = 0; r < 15; ++r) {
    std::vector<Term> terms;
    for (int i = 0; i < 20; ++i) {
      if (rng.Bernoulli(0.4)) terms.push_back({vars[i], rng.Uniform(0.1, 2.0)});
    }
    if (!terms.empty()) {
      m.AddRow(RowType::kLessEqual, rng.Uniform(1.0, 5.0), terms);
    }
  }
  ForEachEngine(m, [&](const Solution& s) {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
    EXPECT_LT(s.primal_residual, 1e-6);
  });
}

// -------- Property sweep: random knapsack-like LPs vs brute force. --------
//
// The LP relaxation of a 0/1 knapsack has a well-known closed form: sort by
// density, take greedily, split the last item fractionally. We compare the
// simplex optimum against that closed form on random instances.
class KnapsackPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackPropertyTest, MatchesGreedyFractionalOptimum) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{12}));
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(1.0, 10.0);
    weight[i] = rng.Uniform(1.0, 10.0);
  }
  double cap = rng.Uniform(5.0, 30.0);

  Model m;
  m.SetSense(Sense::kMaximize);
  std::vector<Term> row;
  for (int i = 0; i < n; ++i) {
    int v = m.AddBinaryRelaxed(value[i]);
    row.push_back({v, weight[i]});
  }
  m.AddRow(RowType::kLessEqual, cap, row);
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Closed-form fractional knapsack.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double rem = cap, expect = 0.0;
  for (int i : order) {
    if (weight[i] <= rem) {
      expect += value[i];
      rem -= weight[i];
    } else {
      expect += value[i] * rem / weight[i];
      rem = 0.0;
      break;
    }
  }
  EXPECT_NEAR(s.objective, expect, 1e-6);
  EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackPropertyTest,
                         ::testing::Range(1, 40));

// -------- Property sweep: random small LPs, verify optimality via vertex
// enumeration on 2-variable instances. --------
class TwoVarVertexTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoVarVertexTest, MatchesVertexEnumeration) {
  Rng rng(1000 + GetParam());
  Model m;
  m.SetSense(Sense::kMaximize);
  double cx = rng.Uniform(-2.0, 2.0), cy = rng.Uniform(-2.0, 2.0);
  int x = m.AddVariable(0.0, 10.0, cx);
  int y = m.AddVariable(0.0, 10.0, cy);
  struct Line { double a, b, c; };  // a x + b y <= c
  std::vector<Line> lines;
  const int nrows = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  for (int r = 0; r < nrows; ++r) {
    Line ln{rng.Uniform(-1.0, 2.0), rng.Uniform(-1.0, 2.0),
            rng.Uniform(1.0, 12.0)};
    lines.push_back(ln);
    m.AddRow(RowType::kLessEqual, ln.c, {{x, ln.a}, {y, ln.b}});
  }
  Solution s = MustSolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);

  // Enumerate all candidate vertices: intersections of every constraint
  // pair (including the box bounds), keep feasible ones, take best.
  lines.push_back({1, 0, 10});
  lines.push_back({-1, 0, 0});
  lines.push_back({0, 1, 10});
  lines.push_back({0, -1, 0});
  double best = -1e100;
  auto feasible = [&](double px, double py) {
    for (const Line& ln : lines) {
      if (ln.a * px + ln.b * py > ln.c + 1e-7) return false;
    }
    return true;
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    for (size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-9) continue;
      const double px = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      const double py = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      if (feasible(px, py)) best = std::max(best, cx * px + cy * py);
    }
  }
  ASSERT_GT(best, -1e99);  // box bounds guarantee a vertex exists
  EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoVarVertexTest, ::testing::Range(1, 40));

// -------- Optimal value is a property of the program, not of how it is
// written down: the column order of a model, and weightless columns whose
// rows can always be satisfied at zero, do not move the optimum. --------

// A random bounded maximization LP with a guaranteed feasible region. All
// coefficients are positive on <= rows with positive RHS, like the
// planners' programs, so a weightless variable can always drop to zero.
// Variables listed in `weightless` get objective 0.
Model RandomLp(Rng* rng, int nvars, int nrows,
               const std::vector<int>& weightless = {}) {
  Model m;
  m.SetSense(Sense::kMaximize);
  for (int i = 0; i < nvars; ++i) {
    const double upper = rng->Uniform(1.0, 6.0);
    const double objective = rng->Uniform(-1.0, 3.0);
    const bool zero = std::find(weightless.begin(), weightless.end(), i) !=
                      weightless.end();
    m.AddVariable(0.0, upper, zero ? 0.0 : objective);
  }
  for (int r = 0; r < nrows; ++r) {
    std::vector<Term> terms;
    for (int i = 0; i < nvars; ++i) {
      if (rng->Uniform(0.0, 1.0) < 0.6) {
        terms.push_back({i, rng->Uniform(0.2, 1.5)});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.AddRow(RowType::kLessEqual, rng->Uniform(1.0, 8.0), std::move(terms));
  }
  return m;
}

// `m` with every objective coefficient shifted by U(-0.3, 0.3) and every
// RHS by U(0, 0.5).
Model Drifted(const Model& m, Rng* rng) {
  Model out;
  out.SetSense(m.sense());
  for (const Variable& v : m.variables()) {
    out.AddVariable(v.lower, v.upper, v.objective + rng->Uniform(-0.3, 0.3));
  }
  for (const Row& row : m.rows()) {
    out.AddRow(row.type, row.rhs + rng->Uniform(0.0, 0.5), row.terms);
  }
  return out;
}

// `m` rebuilt over the variables `keep` lists, in that order (dropped
// variables vanish from every row).
Model Rebuild(const Model& m, const std::vector<int>& keep) {
  Model out;
  out.SetSense(m.sense());
  std::vector<int> index(m.num_variables(), -1);
  for (int v : keep) {
    const Variable& var = m.variable(v);
    index[v] = out.AddVariable(var.lower, var.upper, var.objective);
  }
  for (const Row& row : m.rows()) {
    std::vector<Term> terms;
    for (const Term& t : row.terms) {
      if (index[t.var] >= 0) terms.push_back({index[t.var], t.coeff});
    }
    out.AddRow(row.type, row.rhs, std::move(terms));
  }
  return out;
}

class WarmStartPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartPropertyTest, DriftedObjectiveAndRhsReachColdObjective) {
  Rng rng(7000 + GetParam());
  const Model base = RandomLp(&rng, 6 + GetParam() % 5, 4 + GetParam() % 4);
  ASSERT_EQ(MustSolve(base).status, SolveStatus::kOptimal);

  // A drifted program solved in its own column order and in reverse order
  // reaches the same optimal value.
  const Model m = Drifted(base, &rng);
  std::vector<int> reversed(m.num_variables());
  for (int i = 0; i < m.num_variables(); ++i) {
    reversed[i] = m.num_variables() - 1 - i;
  }
  const Solution forward = MustSolve(m);
  const Solution backward = MustSolve(Rebuild(m, reversed));
  ASSERT_EQ(forward.status, backward.status);
  if (backward.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(forward.objective, backward.objective,
                1e-6 * (1.0 + std::abs(backward.objective)));
    EXPECT_TRUE(m.IsFeasible(forward.values, 1e-6));
  }
}

TEST_P(WarmStartPropertyTest, TombstonedVariablesReachColdObjective) {
  Rng rng(8000 + GetParam());
  // Variables 1 and 4 carry no objective weight and appear only with
  // positive coefficients on <= rows, so every optimum can hold them at
  // zero: the program reaches the optimum of the one without them.
  const Model m = RandomLp(&rng, 8, 5, /*weightless=*/{1, 4});
  const Solution with = MustSolve(m);
  const Solution without = MustSolve(Rebuild(m, {0, 2, 3, 5, 6, 7}));
  ASSERT_EQ(with.status, SolveStatus::kOptimal);
  ASSERT_EQ(with.status, without.status);
  EXPECT_NEAR(with.objective, without.objective,
              1e-6 * (1.0 + std::abs(without.objective)));
  EXPECT_TRUE(m.IsFeasible(with.values, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartPropertyTest,
                         ::testing::Range(1, 30));

}  // namespace
}  // namespace lp
}  // namespace prospector
