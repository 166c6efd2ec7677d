#ifndef PROSPECTOR_CORE_PLAN_H_
#define PROSPECTOR_CORE_PLAN_H_

#include <string>
#include <vector>

#include "src/net/simulator.h"
#include "src/net/topology.h"

namespace prospector {
namespace core {

/// How the plan's values are selected during the collection phase.
enum class PlanKind {
  /// A bandwidth assignment (Section 2): every node forwards the top
  /// bandwidth[i] readings of its subtree — local filtering happens
  /// wherever a node receives more values than it may send.
  kBandwidth,
  /// A fixed node set (PROSPECTOR Greedy / LP-LF): the chosen nodes'
  /// readings travel to the root unconditionally; no run-time filtering.
  kNodeSelection,
};

/// An executable top-k query plan.
///
/// For both kinds, `bandwidth[i]` is the number of values edge i (the link
/// from node i to its parent) carries; for node-selection plans it is
/// derived from `chosen` and used only for costing. The root's entry (it
/// owns no edge) is unused and always 0; Normalize() enforces this for the
/// actual root id.
struct QueryPlan {
  PlanKind kind = PlanKind::kBandwidth;
  int k = 0;
  bool proof_carrying = false;
  std::vector<int> bandwidth;
  std::vector<char> chosen;  ///< kNodeSelection only; indexed by node id

  bool UsesEdge(int child_edge) const { return bandwidth[child_edge] > 0; }

  /// Creates a bandwidth plan; `bandwidths` indexed by child-edge id. The
  /// root's entry is taken as given: pass 0 there, or Normalize().
  static QueryPlan Bandwidth(int k, std::vector<int> bandwidths,
                             bool proof_carrying = false);

  /// Creates a node-selection plan from the chosen node mask, deriving the
  /// per-edge value counts (the root's own reading needs no edge).
  static QueryPlan NodeSelection(int k, std::vector<char> chosen_mask,
                                 const net::Topology& topology);

  /// Clamps bandwidths to subtree sizes and zeroes any bandwidth that is
  /// unreachable because an ancestor edge carries nothing (values could
  /// never travel past it). Returns *this for chaining.
  QueryPlan& Normalize(const net::Topology& topology);

  /// Total number of participating (visited) nodes: those whose own
  /// reading can reach the root. The root always participates.
  int CountVisitedNodes(const net::Topology& topology) const;

  std::string DebugString(const net::Topology& topology) const;
};

/// Expected energy of one collection phase under this plan: per used edge,
/// one message carrying bandwidth[e] values, inflated by the edge's
/// expected transient-failure re-route factor (Section 4.4).
double ExpectedCollectionCost(const QueryPlan& plan,
                              const net::NetworkSimulator& sim);

/// Expected energy of triggering one execution (Section 2, "subsequent
/// distribution phases"): an empty broadcast at every node that has at
/// least one used child edge.
double ExpectedTriggerCost(const QueryPlan& plan,
                           const net::NetworkSimulator& sim);

/// Charges the initial distribution phase to the simulator: each node
/// unicasts a subplan (a few bytes per child entry) to every child that
/// participates in the plan. Returns the energy spent.
double ChargeInstallCost(const QueryPlan& plan, net::NetworkSimulator* sim);

/// Charges a trigger wave (empty broadcasts down the used subtrees).
double ChargeTriggerCost(const QueryPlan& plan, net::NetworkSimulator* sim);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_PLAN_H_
