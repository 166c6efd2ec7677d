// Multi-query quick-start: register several standing top-k queries on one
// core::QueryEngine and let them share the radio. Each epoch the engine
// merges every query's plan into a single superplan (one trigger wave, one
// set of messages carrying the union of the requested values), executes
// it, and demultiplexes the root arrivals back into per-query answers —
// bit-identical to running each plan alone, but far cheaper: sweeps,
// triggers, and shared edges are paid once instead of once per query.
//
// Compare with examples/standing_query.cpp, which runs one standing query
// on the same engine.
//
// Build & run:  ./build/examples/multi_query

#include <cstdio>

#include "src/core/query_engine.h"
#include "src/data/gaussian_field.h"
#include "src/net/describe.h"
#include "src/net/topology.h"

using namespace prospector;

int main() {
  Rng rng(2026);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = 80;
  geo.radio_range = 24.0;
  auto topo_or = net::BuildConnectedGeometricNetwork(geo, &rng);
  if (!topo_or.ok()) {
    std::fprintf(stderr, "%s\n", topo_or.status().ToString().c_str());
    return 1;
  }
  const net::Topology& topo = topo_or.value();
  std::printf("network: %s\n", net::SummarizeTopology(topo).c_str());

  data::GaussianField field =
      data::GaussianField::Random(80, 40.0, 60.0, 1.0, 16.0, &rng);

  core::QueryEngineOptions opts;
  opts.bootstrap_sweeps = 6;
  core::QueryEngine engine(&topo, net::EnergyModel{}, net::FailureModel{},
                           opts, /*seed=*/42);

  // A dashboard wants the ten hottest sensors on a generous budget...
  core::QuerySpec dashboard;
  dashboard.k = 10;
  dashboard.energy_budget_mj = 14.0;
  const int dash_id = engine.AddQuery(dashboard);

  // ...while an alerting rule only needs the top three, cheaply, and is
  // happy with the fast greedy planner.
  core::QuerySpec alarm;
  alarm.k = 3;
  alarm.energy_budget_mj = 5.0;
  alarm.planner = core::PlannerChoice::kGreedy;
  const int alarm_id = engine.AddQuery(alarm);

  for (int epoch = 0; epoch < 60; ++epoch) {
    const std::vector<double> truth = field.Sample(&rng);
    auto tick = engine.Tick(truth);
    if (!tick.ok()) {
      std::fprintf(stderr, "epoch %d: %s\n", epoch,
                   tick.status().ToString().c_str());
      return 1;
    }
    if (tick->kind != core::QueryEngine::EpochKind::kQuery) continue;
    for (const auto& qr : tick->per_query) {
      if (qr.answer.empty()) continue;
      std::printf("epoch %3d, query %d: hottest node %d at %.1f "
                  "(%.2f mJ attributed, recall %.0f%%)\n",
                  epoch, qr.query_id, qr.answer[0].node, qr.answer[0].value,
                  qr.energy_mj, 100.0 * qr.recall);
    }
    if (tick->shared_values > 0) {
      std::printf("          superplan shared %lld values across queries\n",
                  tick->shared_values);
    }
  }

  std::printf(
      "\nper-query ledgers: dashboard %.1f mJ, alarm %.1f mJ "
      "(engine total %.1f mJ)\n",
      engine.total_energy_mj(dash_id), engine.total_energy_mj(alarm_id),
      engine.total_energy_mj());
  return 0;
}
