// A standing top-k query on core::QueryEngine: register one query, then
// one Tick() per epoch runs it end-to-end — bootstrap sweeps, budgeted
// planning, windowed samples, adaptive re-planning, and periodic
// proof-backed audits. Compare with examples/lab_monitoring.cpp, which
// wires the same machinery by hand, and examples/multi_query.cpp, which
// registers several queries on one engine.
//
// Build & run:  ./build/examples/standing_query

#include <cstdio>

#include "src/core/executor.h"
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
  core::QuerySpec spec;
  spec.k = 8;
  spec.energy_budget_mj = 12.0;
  spec.audit_every = 25;  // a proof-backed exact query every 25 queries
  engine.AddQuery(spec);

  double recall = 0.0;
  int queries = 0;
  for (int epoch = 0; epoch < 120; ++epoch) {
    const std::vector<double> truth = field.Sample(&rng);
    auto tick = engine.Tick(truth);
    if (!tick.ok()) {
      std::fprintf(stderr, "epoch %d: %s\n", epoch,
                   tick.status().ToString().c_str());
      return 1;
    }
    const core::QueryEngine::QueryTickResult& q = tick->per_query[0];
    using Kind = core::QueryEngine::QueryEpochKind;
    switch (q.kind) {
      case Kind::kBootstrap:
        break;
      case Kind::kExplore:
        std::printf("epoch %3d: exploration sweep (%.1f mJ)%s\n", epoch,
                    q.energy_mj, q.replanned ? ", plan updated" : "");
        break;
      case Kind::kAudit:
        std::printf("epoch %3d: audit — exact top-%d retrieved, %d/%d proven "
                    "up front (%.1f mJ)\n",
                    epoch, spec.k, q.proven, spec.k, q.energy_mj);
        break;
      case Kind::kQuery: {
        ++queries;
        std::vector<char> hit(80, 0);
        for (const core::Reading& r : q.answer) hit[r.node] = 1;
        int found = 0;
        for (const core::Reading& r : core::TrueTopK(truth, spec.k)) {
          found += hit[r.node];
        }
        recall += static_cast<double>(found) / spec.k;
        break;
      }
    }
  }

  std::printf("\n%d queries: %.1f%% average recall\n", queries,
              100.0 * recall / queries);
  std::printf("energy: %.1f mJ queries, %.1f mJ sampling, %.1f mJ audits, "
              "%.1f mJ installs (%.2f mJ per answered query all-in)\n",
              engine.query_energy_mj(), engine.sampling_energy_mj(),
              engine.audit_energy_mj(), engine.install_energy_mj(),
              engine.total_energy_mj() / queries);
  return 0;
}
