// Extension bench: network lifetime — the resource all this planning
// protects ("the lifetime of the network is tied to the rate at which it
// consumes energy", Section 1). Under a fixed battery budget per mote,
// how many queries does each algorithm sustain before the first death /
// before coverage is lost?

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/lifetime.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/naive.h"
#include "src/core/oracle.h"
#include "src/data/gaussian_field.h"

namespace prospector {
namespace {

constexpr int kNodes = 100;
constexpr int kTop = 10;
constexpr double kBatteryMj = 2.0e5;  // ~2 AA-hours of radio at MICA2 rates

void Report(bench::BenchJson* json, const char* name,
            const core::QueryPlan& plan, const net::NetworkSimulator& sim,
            const core::BatteryModel& batteries) {
  const auto load = core::ExpectedPerNodeEnergy(plan, sim);
  double max_load = 0.0, sum = 0.0;
  int loaded = 0;
  for (size_t i = 1; i < load.size(); ++i) {
    max_load = std::max(max_load, load[i]);
    sum += load[i];
    loaded += load[i] > 0 ? 1 : 0;
  }
  const auto est = core::EstimateLifetime(sim.topology(), batteries, load);
  std::printf("%12s %10.2f %10.4f %12.0f %14.0f %10d\n", name, sum, max_load,
              est.queries_until_first_death, est.queries_until_partition,
              loaded);
  json->Section(name, {"sum_mJ_per_q", "max_mJ_per_q", "first_death",
                       "partition", "nodes_used"});
  json->Row({sum, max_load, est.queries_until_first_death,
             est.queries_until_partition, double(loaded)});
}

void Run() {
  Rng rng(171);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = kNodes;
  geo.radio_range = 22.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(kNodes, 40, 60, 1, 16, &rng);
  sampling::SampleSet samples = sampling::SampleSet::ForTopK(kNodes, kTop);
  for (int s = 0; s < 20; ++s) samples.Add(field.Sample(&rng));
  core::PlannerContext ctx;
  ctx.topology = &topo;
  net::NetworkSimulator sim(&topo, ctx.energy);
  const core::BatteryModel batteries =
      core::BatteryModel::Uniform(topo, kBatteryMj);

  std::printf("Network lifetime under %.0f mJ per mote (n=%d, k=%d)\n\n",
              kBatteryMj, kNodes, kTop);
  std::printf("%12s %10s %10s %12s %14s %10s\n", "plan", "sum_mJ/q",
              "max_mJ/q", "first_death", "partition", "nodes_used");

  bench::BenchJson json("lifetime");
  json.Meta("nodes", kNodes).Meta("k", kTop).Meta("battery_mj", kBatteryMj);
  Report(&json, "naive-k", core::MakeNaiveKPlan(topo, kTop), sim, batteries);

  core::LpFilterPlanner planner;
  for (double b : {8.0, 16.0}) {
    auto plan = planner.Plan(ctx, samples, core::PlanRequest{kTop, b});
    if (plan.ok()) {
      char name[32];
      std::snprintf(name, sizeof(name), "lp+lf@%.0fmJ", b);
      Report(&json, name, *plan, sim, batteries);
    }
  }
  const std::vector<double> truth = field.Sample(&rng);
  Report(&json, "oracle", core::MakeOraclePlan(topo, truth, kTop), sim,
         batteries);
  json.Write();

  std::printf("\n(partition = first death that silences live demand below "
              "it; re-planning on the rebuilt tree — net/rebuild.h — would "
              "extend it.)\n");
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
