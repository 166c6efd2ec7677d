#ifndef PROSPECTOR_CORE_EXECUTOR_H_
#define PROSPECTOR_CORE_EXECUTOR_H_

#include <vector>

#include "src/core/plan.h"
#include "src/core/reading.h"
#include "src/core/transport_guard.h"
#include "src/net/simulator.h"

namespace prospector {
namespace core {

/// Outcome of executing a plan against one epoch of true readings.
///
/// Under fault injection or lossy transport the result is *partial* and
/// says so: `degraded` flags any loss, `values_lost`/`messages_dropped`
/// quantify it, and the per-edge link evidence says which edges went
/// dark — the observations the engine watchdog feeds on. A loss-free run
/// leaves `degraded` false and every delivered flag equal to its expected
/// flag.
struct ExecutionResult {
  /// What the query returns: the best min(k, arrived) readings at the
  /// root, best-first.
  std::vector<Reading> answer;
  /// Everything that reached the root (including its own reading).
  std::vector<Reading> arrived;
  /// Proof-carrying plans: the first `proven_count` entries of `answer`
  /// are proven to be the true top values of the whole network.
  int proven_count = 0;
  double trigger_energy_mj = 0.0;
  double collection_energy_mj = 0.0;

  /// --- degradation accounting (zero/empty when nothing was lost) ---
  /// Readings that were acquired (or received) but never reached the next
  /// hop because their message dropped or their holder died.
  int values_lost = 0;
  int messages_dropped = 0;
  /// Adversarially deferred messages (tier 3): charged and in flight, but
  /// not arriving this epoch — their readings count in `values_lost`.
  int messages_deferred = 0;
  bool degraded = false;
  /// Per node u != root: the plan called for traffic originating at u
  /// (or u actually transmitted).
  std::vector<char> edge_expected;
  /// Per node u != root: u's message arrived at its parent this epoch.
  std::vector<char> edge_delivered;

  double total_energy_mj() const {
    return trigger_energy_mj + collection_energy_mj;
  }
};

/// Shared degradation-accounting helpers (CollectionExecutor,
/// ProofExecutor, and SuperplanExecutor all build the same link-evidence
/// block; keep the semantics in one place).

/// Sizes and zeroes `edge_expected`/`edge_delivered` for a fresh phase.
void InitLinkEvidence(int num_nodes, ExecutionResult* result);

/// Executes non-proof plans (bandwidth plans with local filtering, and
/// node-selection plans) over the simulator, charging every message.
class CollectionExecutor {
 public:
  /// Runs one trigger wave plus one collection phase. `truth` holds the
  /// current reading of every node. The plan is defensively Normalize()d
  /// first (a no-op for planner output), so an inconsistent hand-built
  /// plan cannot charge children for readings an ancestor edge drops.
  /// Dead nodes (per the simulator's fault injector) acquire nothing and
  /// send nothing; messages across dead or partitioned edges drop after
  /// the transport's retry budget.
  ///
  /// Under an adversarial transport, pass the deployment's TransportGuard:
  /// messages are stamped (header bytes charged), duplicates fold once,
  /// corrupt payloads are rejected like drops, and deferred messages park
  /// in the guard's mailbox — where fencing refuses them on arrival. With
  /// `guard == nullptr` (the default) behavior is bit-identical to the
  /// pre-adversarial executor, with corrupt/deferred deliveries treated
  /// as drops defensively.
  static ExecutionResult Execute(const QueryPlan& plan,
                                 const std::vector<double>& truth,
                                 net::NetworkSimulator* sim,
                                 bool include_trigger = true,
                                 TransportGuard* guard = nullptr);
};

/// Fraction of the true top-k returned by the plan — the accuracy metric
/// of Section 5 ("percentage of actual top-k values returned").
double TopKRecall(const ExecutionResult& result,
                  const std::vector<double>& truth, int k);

/// Same metric over a bare answer list (e.g. an engine tick's translated
/// answer); `answer` node ids must index into `truth`.
double TopKRecall(const std::vector<Reading>& answer,
                  const std::vector<double>& truth, int k);

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_EXECUTOR_H_
