#include "src/core/lifetime.h"

#include <algorithm>
#include <limits>

namespace prospector {
namespace core {

std::vector<double> ExpectedPerNodeEnergy(const QueryPlan& plan,
                                          const net::NetworkSimulator& sim) {
  const net::Topology& topo = sim.topology();
  std::vector<double> load(topo.num_nodes(), 0.0);
  const double acquisition = sim.energy_model().acquisition_mj;
  for (int e = 0; e < topo.num_nodes(); ++e) {
    if (e != topo.root() && plan.bandwidth[e] > 0) {
      load[e] += sim.ExpectedUnicastCost(e, plan.bandwidth[e]);
      if (plan.kind == PlanKind::kBandwidth || plan.chosen[e]) {
        load[e] += acquisition;
      }
    }
  }
  // Trigger broadcasts, attributed to the broadcasting node.
  for (int u = 0; u < topo.num_nodes(); ++u) {
    for (int c : topo.children(u)) {
      if (plan.UsesEdge(c)) {
        load[u] += sim.energy_model().BroadcastCost();
        break;
      }
    }
  }
  return load;
}

LifetimeEstimate EstimateLifetime(const net::Topology& topology,
                                  const BatteryModel& batteries,
                                  const std::vector<double>& per_query_mj) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LifetimeEstimate est;
  est.per_query_mj = per_query_mj;
  est.queries_until_first_death = kInf;
  est.queries_until_partition = kInf;

  const int n = topology.num_nodes();
  std::vector<double> death_at(n, kInf);
  for (int u = 0; u < n; ++u) {
    if (per_query_mj[u] > 0.0) {
      death_at[u] = batteries.capacity_mj[u] / per_query_mj[u];
      if (death_at[u] < est.queries_until_first_death) {
        est.queries_until_first_death = death_at[u];
        est.first_casualty = u;
      }
    }
  }

  // Partition: a dying node silences its whole subtree in the fixed tree
  // (Section 4.4's rebuild/re-plan machinery would recover; this estimate
  // is for a static plan). The earliest death of a node that still
  // shields active demand below it ends coverage.
  for (int u = 0; u < n; ++u) {
    if (u == topology.root() || death_at[u] == kInf) continue;
    bool shields_demand = false;
    for (int d : topology.DescendantsOf(u)) {
      if (d != u && per_query_mj[d] > 0.0) {
        shields_demand = true;
        break;
      }
    }
    if (shields_demand) {
      est.queries_until_partition =
          std::min(est.queries_until_partition, death_at[u]);
    }
  }
  return est;
}

LifetimeEstimate EstimatePlanLifetime(const QueryPlan& plan,
                                      const net::NetworkSimulator& sim,
                                      const BatteryModel& batteries) {
  return EstimateLifetime(sim.topology(), batteries,
                          ExpectedPerNodeEnergy(plan, sim));
}

}  // namespace core
}  // namespace prospector
