#include "src/core/plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/core/plan_wire.h"
#include "src/obs/obs.h"

namespace prospector {
namespace core {

QueryPlan QueryPlan::Bandwidth(int k, std::vector<int> bandwidths,
                               bool proof_carrying) {
  QueryPlan p;
  p.kind = PlanKind::kBandwidth;
  p.k = k;
  p.proof_carrying = proof_carrying;
  p.bandwidth = std::move(bandwidths);
  return p;
}

QueryPlan QueryPlan::NodeSelection(int k, std::vector<char> chosen_mask,
                                   const net::Topology& topology) {
  QueryPlan p;
  p.kind = PlanKind::kNodeSelection;
  p.k = k;
  p.chosen = std::move(chosen_mask);
  p.bandwidth.assign(topology.num_nodes(), 0);
  // Each chosen node's value crosses every edge on its path to the root.
  for (int i = 0; i < topology.num_nodes(); ++i) {
    if (i == topology.root() || !p.chosen[i]) continue;
    for (int e : topology.PathEdges(i)) ++p.bandwidth[e];
  }
  return p;
}

QueryPlan& QueryPlan::Normalize(const net::Topology& topology) {
  bandwidth[topology.root()] = 0;
  for (int u : topology.PreOrder()) {
    if (u == topology.root()) continue;
    bandwidth[u] = std::min(bandwidth[u], topology.subtree_size(u));
    const int parent = topology.parent(u);
    // Values from u's subtree must cross the parent's edge too (unless the
    // parent is the root, where they have already arrived).
    if (parent != topology.root() && bandwidth[parent] == 0) bandwidth[u] = 0;
    if (kind == PlanKind::kNodeSelection && bandwidth[u] == 0 && chosen[u]) {
      chosen[u] = 0;
    }
  }
  return *this;
}

int QueryPlan::CountVisitedNodes(const net::Topology& topology) const {
  int count = 1;  // the root
  for (int u = 0; u < topology.num_nodes(); ++u) {
    if (u == topology.root()) continue;
    if (kind == PlanKind::kNodeSelection) {
      count += chosen[u] ? 1 : 0;
    } else {
      count += bandwidth[u] > 0 ? 1 : 0;
    }
  }
  return count;
}

std::string QueryPlan::DebugString(const net::Topology& topology) const {
  std::ostringstream os;
  os << (kind == PlanKind::kBandwidth ? "bandwidth" : "node-selection")
     << " plan, k=" << k << (proof_carrying ? ", proof-carrying" : "") << ":";
  for (int u = 0; u < topology.num_nodes(); ++u) {
    if (u == topology.root()) continue;
    if (bandwidth[u] > 0) {
      os << " e" << u << "->" << topology.parent(u) << ":" << bandwidth[u];
    }
  }
  return os.str();
}

double ExpectedCollectionCost(const QueryPlan& plan,
                              const net::NetworkSimulator& sim) {
  const double acquisition = sim.energy_model().acquisition_mj;
  const int root = sim.topology().root();
  double cost = 0.0;
  for (int e = 0; e < static_cast<int>(plan.bandwidth.size()); ++e) {
    if (e == root) continue;  // the root owns no edge
    if (plan.bandwidth[e] > 0) {
      cost += sim.ExpectedUnicastCost(e, plan.bandwidth[e]);
      // A participating node must take its measurement (Section 4.4); the
      // mains-powered base station's sensing is not budgeted.
      if (plan.kind == PlanKind::kBandwidth || plan.chosen[e]) {
        cost += acquisition;
      }
    }
  }
  return cost;
}

double ExpectedTriggerCost(const QueryPlan& plan,
                           const net::NetworkSimulator& sim) {
  const net::Topology& topo = sim.topology();
  double cost = 0.0;
  for (int u = 0; u < topo.num_nodes(); ++u) {
    for (int c : topo.children(u)) {
      if (plan.UsesEdge(c)) {
        cost += sim.energy_model().BroadcastCost();
        break;
      }
    }
  }
  return cost;
}

double ChargeInstallCost(const QueryPlan& plan, net::NetworkSimulator* sim) {
  const net::Topology& topo = sim->topology();
  // Installing is the moment plan bytes leave the optimizer for the
  // sensors: verify the bytes decode back to exactly the plan the LP
  // certified. A divergence here means the executor would run a different
  // plan than the one whose recall/energy trade-off was proven (the bug
  // class the old Cap255 clamps hid), so fail fast like the energy audit.
  if (const Status fidelity = VerifyPlanWireFidelity(plan, topo);
      !fidelity.ok()) {
    std::fprintf(stderr, "ChargeInstallCost: wire fidelity violation: %s\n",
                 fidelity.ToString().c_str());
    std::abort();
  }
  double spent = 0.0;
  // Each participating node receives its serialized subplan (its own edge
  // bandwidth plus the expected count per child) from its parent; the
  // charged bytes are the exact wire encoding (see plan_wire.h).
  for (int u : topo.PreOrder()) {
    if (u == topo.root() || !plan.UsesEdge(u)) continue;
    spent += sim->Unicast(u, /*num_values=*/0,
                          /*extra_bytes=*/SubplanWireBytes(plan, topo, u));
  }
  PROSPECTOR_FLIGHT(kPlanInstall, "plan.install", -1, spent, plan.k);
  return spent;
}

double ChargeTriggerCost(const QueryPlan& plan, net::NetworkSimulator* sim) {
  const net::Topology& topo = sim->topology();
  double spent = 0.0;
  for (int u : topo.PreOrder()) {
    if (!sim->node_alive(u)) continue;  // a dead node triggers nobody
    for (int c : topo.children(u)) {
      if (plan.UsesEdge(c)) {
        spent += sim->Broadcast(u);
        break;
      }
    }
  }
  return spent;
}

}  // namespace core
}  // namespace prospector
