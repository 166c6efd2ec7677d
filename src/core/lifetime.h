#ifndef PROSPECTOR_CORE_LIFETIME_H_
#define PROSPECTOR_CORE_LIFETIME_H_

#include <vector>

#include "src/core/plan.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"

namespace prospector {
namespace core {

/// Network-lifetime analysis — the quantity the energy budgeting
/// ultimately protects ("the lifetime of the network is tied to the rate
/// at which it consumes energy", Section 1).
///
/// Given per-node battery capacities and the per-node energy a plan
/// draws per query (from the simulator's ledger or the expected-cost
/// model), estimates how many queries the network survives under two
/// standard definitions:
///  * first death: the first node exhausts its battery;
///  * coverage loss: the root becomes disconnected from some surviving
///    sensing node (deaths cascade along the tree).
struct BatteryModel {
  /// Battery capacity per node, mJ. The root (base station) is usually
  /// mains-powered: give it a huge capacity.
  std::vector<double> capacity_mj;

  /// `capacity_mj` on every node of `topology` except its root, which gets
  /// `root_capacity_mj`.
  static BatteryModel Uniform(const net::Topology& topology,
                              double capacity_mj,
                              double root_capacity_mj = 1e12) {
    BatteryModel b;
    b.capacity_mj.assign(topology.num_nodes(), capacity_mj);
    if (topology.num_nodes() > 0) {
      b.capacity_mj[topology.root()] = root_capacity_mj;
    }
    return b;
  }
};

struct LifetimeEstimate {
  /// Queries until the first battery dies (the node id in first_casualty).
  double queries_until_first_death = 0.0;
  int first_casualty = -1;
  /// Queries until a node with positive remaining demand is cut off from
  /// the root, assuming dead relays silence their whole subtree.
  double queries_until_partition = 0.0;
  /// Per-node energy drawn by one query, mJ (the input, echoed).
  std::vector<double> per_query_mj;
};

/// Expected per-node energy of one query under the plan (trigger +
/// collection, failure-inflated), attributed to the transmitting child of
/// each edge as in the simulator's ledger, with receive costs already
/// folded into the symmetric message cost.
std::vector<double> ExpectedPerNodeEnergy(const QueryPlan& plan,
                                          const net::NetworkSimulator& sim);

/// Lifetime under a fixed per-query load vector.
LifetimeEstimate EstimateLifetime(const net::Topology& topology,
                                  const BatteryModel& batteries,
                                  const std::vector<double>& per_query_mj);

/// Convenience: plan -> expected load -> lifetime.
LifetimeEstimate EstimatePlanLifetime(const QueryPlan& plan,
                                      const net::NetworkSimulator& sim,
                                      const BatteryModel& batteries);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_LIFETIME_H_
