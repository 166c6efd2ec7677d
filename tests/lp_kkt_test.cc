#include "src/lp/kkt.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace prospector {
namespace lp {
namespace {

Model RandomModel(Rng* rng, int n, int m, bool maximize) {
  Model model;
  model.SetSense(maximize ? Sense::kMaximize : Sense::kMinimize);
  for (int j = 0; j < n; ++j) {
    model.AddVariable(0.0, rng->Uniform(0.5, 2.0), rng->Uniform(-2.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng->Bernoulli(0.5)) terms.push_back({j, rng->Uniform(-1.0, 2.0)});
    }
    if (terms.empty()) continue;
    const double rhs = rng->Uniform(0.5, 4.0);
    model.AddRow(rng->Bernoulli(0.8) ? RowType::kLessEqual
                                     : RowType::kGreaterEqual,
                 rng->Bernoulli(0.9) ? rhs : -0.2, terms);
  }
  return model;
}

TEST(KktTest, CertifiesKnownOptimum) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddVariable(0.0, kInfinity, 3.0);
  int y = m.AddVariable(0.0, kInfinity, 5.0);
  m.AddRow(RowType::kLessEqual, 4.0, {{x, 1.0}});
  m.AddRow(RowType::kLessEqual, 12.0, {{y, 2.0}});
  m.AddRow(RowType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_TRUE(VerifyKkt(m, *sol).ok()) << VerifyKkt(m, *sol).ToString();
}

TEST(KktTest, RejectsCorruptedPrimal) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddBinaryRelaxed(1.0);
  m.AddRow(RowType::kLessEqual, 0.5, {{x, 1.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  Solution bad = *sol;
  bad.values[0] = 0.9;  // violates the row
  EXPECT_FALSE(VerifyKkt(m, bad).ok());
  Solution suboptimal = *sol;
  suboptimal.values[0] = 0.0;  // feasible but breaks strong duality
  EXPECT_FALSE(VerifyKkt(m, suboptimal).ok());
}

TEST(KktTest, RejectsCorruptedDuals) {
  Model m;
  m.SetSense(Sense::kMaximize);
  int x = m.AddBinaryRelaxed(1.0);
  m.AddRow(RowType::kLessEqual, 0.5, {{x, 1.0}});
  SimplexSolver solver;
  auto sol = solver.Solve(m);
  ASSERT_TRUE(sol.ok());
  Solution bad = *sol;
  bad.row_duals[0] = -3.0;  // wrong sign for a <= row under maximize
  EXPECT_FALSE(VerifyKkt(m, bad).ok());
}

TEST(KktTest, RejectsNonOptimalStatus) {
  Model m;
  m.AddBinaryRelaxed(1.0);
  Solution s;
  s.status = SolveStatus::kInfeasible;
  EXPECT_FALSE(VerifyKkt(m, s).ok());
}

class KktPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KktPropertyTest, EverySimplexOptimumCarriesAValidCertificate) {
  Rng rng(1100 + GetParam());
  const bool maximize = GetParam() % 2 == 0;
  const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{12}));
  const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{10}));
  Model model = RandomModel(&rng, n, m, maximize);
  // Both engines: the revised default and the dense oracle.
  SimplexOptions dense_opts;
  dense_opts.algorithm = SimplexAlgorithm::kDense;
  auto revised = SimplexSolver().Solve(model);
  auto dense = SimplexSolver(dense_opts).Solve(model);
  ASSERT_TRUE(revised.ok());
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(revised->status, dense->status);
  if (revised->status != SolveStatus::kOptimal) {
    GTEST_SKIP() << "instance " << ToString(revised->status);
  }
  for (const Solution* sol : {&*revised, &*dense}) {
    SCOPED_TRACE(sol == &*dense ? "dense" : "revised");
    const Status cert = VerifyKkt(model, *sol);
    EXPECT_TRUE(cert.ok()) << "seed " << GetParam() << ": " << cert.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KktPropertyTest, ::testing::Range(1, 60));

}  // namespace
}  // namespace lp
}  // namespace prospector
