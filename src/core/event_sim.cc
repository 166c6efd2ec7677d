#include "src/core/event_sim.h"

#include <algorithm>
#include <limits>

namespace prospector {
namespace core {

EventSimResult SimulateCollectionPhase(const QueryPlan& plan,
                                       const net::Topology& topology,
                                       const net::EnergyModel& energy,
                                       const RadioTiming& timing,
                                       const net::FailureModel& failures,
                                       Rng* rng) {
  const int n = topology.num_nodes();
  const int root = topology.root();
  EventSimResult result;
  result.node_airtime_s.assign(n, 0.0);
  result.node_blocked_s.assign(n, 0.0);

  // Pending message count per node: how many child messages it still
  // expects before it may transmit its own.
  std::vector<int> awaiting(n, 0);
  std::vector<char> sends(n, 0);
  for (int u = 0; u < n; ++u) {
    sends[u] = u != root && plan.bandwidth[u] > 0 ? 1 : 0;
    if (sends[u]) ++awaiting[topology.parent(u)];
  }

  std::vector<double> ready(n, std::numeric_limits<double>::infinity());
  std::vector<double> radio_free(n, 0.0);
  for (int u = 0; u < n; ++u) {
    if (awaiting[u] == 0) ready[u] = 0.0;  // leaves (w.r.t. the plan)
  }

  std::vector<char> done(n, 1);
  int remaining = 0;
  for (int u = 0; u < n; ++u) {
    if (sends[u]) {
      done[u] = 0;
      ++remaining;
    }
  }

  // Greedy list scheduling: repeatedly dispatch the transmittable message
  // with the earliest feasible start (ties: lower node id).
  while (remaining > 0) {
    int pick = -1;
    double pick_start = std::numeric_limits<double>::infinity();
    for (int u = 0; u < n; ++u) {
      if (done[u] || !std::isfinite(ready[u])) continue;
      const int p = topology.parent(u);
      const double start =
          std::max({ready[u], radio_free[u], radio_free[p]});
      if (start < pick_start || (start == pick_start && u < pick)) {
        pick_start = start;
        pick = u;
      }
    }
    if (pick < 0) break;  // defensive: nothing dispatchable

    const int parent = topology.parent(pick);
    double tx = timing.TransmissionSeconds(plan.bandwidth[pick] *
                                           energy.bytes_per_value);
    ++result.transmissions;
    if (failures.enabled() && rng != nullptr) {
      // Geometric retransmission: retry until the link succeeds.
      const double p_fail = failures.ProbabilityFor(pick);
      while (rng->Bernoulli(p_fail)) {
        tx += timing.TransmissionSeconds(plan.bandwidth[pick] *
                                         energy.bytes_per_value);
        ++result.retransmissions;
      }
    }
    const double finish = pick_start + tx;
    result.node_blocked_s[pick] += pick_start - ready[pick];
    result.node_airtime_s[pick] += tx;
    result.node_airtime_s[parent] += tx;
    radio_free[pick] = finish;
    radio_free[parent] = finish;
    done[pick] = 1;
    --remaining;
    if (--awaiting[parent] == 0) {
      ready[parent] = std::max(finish, radio_free[parent]);
    }
    result.completion_s = std::max(result.completion_s, finish);
  }
  return result;
}

}  // namespace core
}  // namespace prospector
