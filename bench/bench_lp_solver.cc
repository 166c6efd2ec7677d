// "Other Results" reproduction: linear-program solve times. The paper ran
// ILOG CPLEX 8.1 on a desktop; we measure our from-scratch bounded-variable
// simplex on the same program families the planners emit, across problem
// sizes (google-benchmark microbenchmark).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/greedy_planner.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/proof_planner.h"
#include "src/data/gaussian_field.h"
#include "src/lp/simplex.h"
#include "src/net/topology.h"
#include "src/util/rng.h"

namespace prospector {
namespace {

// Random dense-ish LP: max c'x, Ax <= b, 0 <= x <= 1, on each engine:
// the revised default and the dense test oracle.
static void BM_SimplexRandomLp(benchmark::State& state,
                               lp::SimplexAlgorithm engine) {
  const int n = static_cast<int>(state.range(0));
  const int m = n / 2;
  Rng rng(7);
  lp::Model model;
  model.SetSense(lp::Sense::kMaximize);
  for (int i = 0; i < n; ++i) model.AddBinaryRelaxed(rng.Uniform(0.0, 1.0));
  for (int r = 0; r < m; ++r) {
    std::vector<lp::Term> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) terms.push_back({i, rng.Uniform(0.1, 1.0)});
    }
    if (!terms.empty()) {
      model.AddRow(lp::RowType::kLessEqual, rng.Uniform(1.0, 8.0), terms);
    }
  }
  lp::SimplexOptions options;
  options.algorithm = engine;
  lp::SimplexSolver solver(options);
  for (auto _ : state) {
    auto sol = solver.Solve(model);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK_CAPTURE(BM_SimplexRandomLp, revised, lp::SimplexAlgorithm::kRevised)
    ->Arg(50)->Arg(100)->Arg(200)->Arg(400);
BENCHMARK_CAPTURE(BM_SimplexRandomLp, dense, lp::SimplexAlgorithm::kDense)
    ->Arg(50)->Arg(100)->Arg(200)->Arg(400);

struct PlannerFixture {
  net::Topology topo;
  data::GaussianField field;
  sampling::SampleSet samples;
  core::PlannerContext ctx;

  PlannerFixture(int n, int k, int S) : samples(sampling::SampleSet::ForTopK(n, k)) {
    Rng rng(11);
    net::GeometricNetworkOptions geo;
    geo.num_nodes = n;
    geo.radio_range = n >= 100 ? 22.0 : 28.0;
    topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
    field = data::GaussianField::Random(n, 40, 60, 1, 16, &rng);
    for (int s = 0; s < S; ++s) samples.Add(field.Sample(&rng));
    ctx.topology = &topo;
  }
};

static void BM_PlanLpNoFilter(benchmark::State& state) {
  PlannerFixture f(static_cast<int>(state.range(0)), 10, 25);
  core::LpNoFilterPlanner planner;
  core::PlanRequest req{10, 12.0};
  for (auto _ : state) {
    auto plan = planner.Plan(f.ctx, f.samples, req);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanLpNoFilter)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

static void BM_PlanLpFilter(benchmark::State& state) {
  PlannerFixture f(static_cast<int>(state.range(0)), 10, 25);
  core::LpFilterPlanner planner;
  core::PlanRequest req{10, 12.0};
  for (auto _ : state) {
    auto plan = planner.Plan(f.ctx, f.samples, req);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanLpFilter)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

static void BM_PlanProof(benchmark::State& state) {
  PlannerFixture f(static_cast<int>(state.range(0)), 10, 8);
  core::ProofPlanner planner;
  core::PlanRequest req;
  req.k = 10;
  req.energy_budget_mj = core::ProofPlanner::MinimumCost(f.ctx) * 1.2;
  for (auto _ : state) {
    auto plan = planner.Plan(f.ctx, f.samples, req);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanProof)->Arg(25)->Arg(40)->Unit(benchmark::kMillisecond);

static void BM_PlanGreedyBaseline(benchmark::State& state) {
  PlannerFixture f(static_cast<int>(state.range(0)), 10, 25);
  core::GreedyPlanner planner;
  core::PlanRequest req{10, 12.0};
  for (auto _ : state) {
    auto plan = planner.Plan(f.ctx, f.samples, req);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanGreedyBaseline)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace prospector

// BENCHMARK_MAIN with one addition: unless the caller passed their own
// --benchmark_out, default to the repo-wide machine-readable artifact
// convention (BENCH_<name>.json, google-benchmark's JSON schema).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out = "--benchmark_out=BENCH_lp_solver.json";
  std::string fmt = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
