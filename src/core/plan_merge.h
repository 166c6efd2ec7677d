#ifndef PROSPECTOR_CORE_PLAN_MERGE_H_
#define PROSPECTOR_CORE_PLAN_MERGE_H_

#include <vector>

#include "src/core/executor.h"
#include "src/core/plan.h"
#include "src/core/plan_wire.h"
#include "src/net/simulator.h"
#include "src/net/topology.h"

namespace prospector {
namespace core {

/// A set of per-query plans scheduled to execute together in one epoch,
/// plus their merged counterpart (see DESIGN.md, "Multi-query engine").
///
/// The merged plan is the union the radio actually serves: edge bandwidth
/// is the pointwise maximum of the constituents' per-edge value counts and
/// the visited-node set is the union of theirs, so one trigger wave and
/// one upward message per participating edge cover every query at once.
struct Superplan {
  /// Stable engine query ids, parallel to `plans` (0..Q-1 by default).
  std::vector<int> query_ids;
  /// The constituent plans, Normalize()d.
  std::vector<QueryPlan> plans;
  /// Pointwise-max merge of `plans` (kind kBandwidth, k = max k).
  QueryPlan merged;

  int num_queries() const { return static_cast<int>(plans.size()); }
};

/// Builds a superplan. Constituents are Normalize()d first; `query_ids`
/// defaults to 0..Q-1 when empty (sizes must match otherwise).
Superplan MergePlans(std::vector<QueryPlan> plans,
                     const net::Topology& topology,
                     std::vector<int> query_ids = {});

/// Outcome of executing a superplan: per-query demultiplexed results plus
/// the shared-level accounting no single query owns.
struct SuperplanResult {
  /// Parallel to Superplan::plans. Each entry is what that query's plan
  /// would have reported standalone: answer, arrived, loss accounting and
  /// link evidence follow the query's own logical flow, so a loss-free
  /// merged run is bit-identical to executing the plan alone. The energy
  /// fields inside these entries stay zero — shared radio cost cannot be
  /// observed per query; use `attributed_mj` instead.
  std::vector<ExecutionResult> per_query;
  /// Energy attribution per query (trigger + acquisition + message
  /// shares); sums to total_energy_mj() up to rounding, so per-query
  /// ledgers reconcile against the simulator's audited total.
  std::vector<double> attributed_mj;

  double trigger_energy_mj = 0.0;
  double collection_energy_mj = 0.0;

  /// Radio-level (union) degradation accounting — what the shared
  /// watchdog observes. A value lost here is a unique reading lost,
  /// however many queries wanted it.
  int values_lost = 0;
  int messages_dropped = 0;
  /// Adversarially deferred union messages (charged, in flight, not
  /// arriving this epoch).
  int messages_deferred = 0;
  bool degraded = false;
  std::vector<char> edge_expected;
  std::vector<char> edge_delivered;

  /// Sharing wins: unicasts that served more than one query, and value
  /// slots saved because a reading wanted by several queries crossed an
  /// edge once instead of once per query.
  int shared_messages = 0;
  long long shared_values = 0;

  double total_energy_mj() const {
    return trigger_energy_mj + collection_energy_mj;
  }
};

/// Executes a superplan against one epoch of readings.
///
/// Each query's plan runs as a *logical flow*: its inbox/outbox at every
/// node is simulated exactly as CollectionExecutor would (local filtering
/// is free CPU), but each tree edge transmits the by-node-id union of all
/// outboxes in ONE message. Demultiplexing at the root is therefore
/// bit-identical to standalone execution by construction — sharing only
/// changes what the radio pays, never what any query receives (loss-free;
/// under loss, one shared message dropping affects every query aboard).
///
/// Energy attribution per message: the per-message overhead is split
/// equally among the queries that put values aboard, and the value-
/// proportional remainder is split by counting each union value once,
/// divided among the queries that requested it. Acquisition is charged
/// once per node and split among the queries acquiring there; trigger
/// broadcasts are split among the queries with a used child edge below
/// the broadcasting node. The attributions sum to the audited total.
class SuperplanExecutor {
 public:
  /// `guard` (optional) applies the fenced transport protocol to every
  /// union message — see CollectionExecutor::Execute. Deferred union
  /// messages park with one flow per sender query (keyed by stable query
  /// id), so a naive fold after the sharer set changed still lands on
  /// the right surviving queries.
  static SuperplanResult Execute(const Superplan& superplan,
                                 const std::vector<double>& truth,
                                 net::NetworkSimulator* sim,
                                 bool include_trigger = true,
                                 TransportGuard* guard = nullptr);
};

/// Wire subplan for `node` under a merged superplan: the merged plan's
/// subplan plus one SubplanQueryEntry per constituent query whose plan
/// visits the node (all queries at the root). Encodes as wire version 1
/// whenever any entry is present.
Subplan MergedSubplanFor(const Superplan& superplan,
                         const net::Topology& topology, int node);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_PLAN_MERGE_H_
