#ifndef PROSPECTOR_CORE_SESSION_H_
#define PROSPECTOR_CORE_SESSION_H_

#include <vector>

#include "src/core/query_engine.h"

namespace prospector {
namespace core {

/// Configuration of a standing top-k query. Kept flat for source
/// compatibility; internally this splits into the engine-wide knobs
/// (QueryEngineOptions) and the per-query spec (QuerySpec).
struct SessionOptions {
  int k = 10;
  double energy_budget_mj = 10.0;
  /// Sliding sample window (Section 3's "window of recent samples").
  size_t sample_window = 40;
  /// The first epochs always run full sweeps to seed the window.
  int bootstrap_sweeps = 8;
  /// Which PROSPECTOR plans the queries.
  using PlannerChoice = ::prospector::core::PlannerChoice;
  PlannerChoice planner = PlannerChoice::kLpFilter;
  LpPlannerOptions lp;
  PlanManagerOptions manager;
  /// Every `audit_every` query epochs, run a proof-carrying exact query to
  /// measure true accuracy and drive the re-sampling policy (Section 4.4);
  /// 0 disables audits.
  int audit_every = 0;
  /// Phase-1 budget of an audit, as a multiple of the proof floor.
  double audit_budget_factor = 1.15;

  // --- Incremental planning (DESIGN.md, "Incremental planning") ---
  /// The session owns a PlanningWorkspace and threads it through every
  /// replan, so steady-state epochs reuse cached LP skeletons and skip
  /// replans whose inputs did not move. Disable to force the from-scratch
  /// path.
  bool use_workspace = true;

  // --- Robustness (DESIGN.md, "Failure semantics") ---
  /// Scripted fault timeline, driven by the session clock (event epoch ==
  /// Tick count). Node ids refer to the construction-time topology; the
  /// schedule follows survivors through rebuilds. Empty = no injection.
  net::FaultSchedule faults;
  /// Transport tier 2: bounded retries with backoff, then genuine drops.
  net::LossyTransport lossy;
  /// Watchdog: a non-root subtree whose expected traffic has been missing
  /// for this many consecutive observed epochs is declared permanently
  /// dead; the session rebuilds the tree without it, remaps the sample
  /// window, and replans (Section 4.4's "the tree adjusts to exclude the
  /// node"). 0 disables the watchdog.
  int dead_after_epochs = 0;
  /// Radio range for the rebuild's minimum-hop re-tree. Required when the
  /// watchdog is enabled; the topology must be geometric (positions).
  double rebuild_radio_range = 0.0;
};

/// One-stop standing top-k query over a deployed network — the facade a
/// downstream user adopts. Since the multi-query refactor this is a thin
/// single-query adapter over core::QueryEngine (see DESIGN.md,
/// "Multi-query engine"): the engine owns the sample window, planner,
/// exploration schedule, audits, watchdog, and energy ledger; the session
/// registers exactly one query at construction and translates the
/// engine's per-epoch result back into the historical TickResult shape.
/// Behavior is bit-identical to the pre-refactor session.
class TopKQuerySession {
 public:
  TopKQuerySession(const net::Topology* topology, net::EnergyModel energy,
                   net::FailureModel failures, SessionOptions options,
                   uint64_t seed = 1);

  /// What one epoch did.
  struct TickResult {
    enum class Kind { kBootstrap, kExplore, kAudit, kQuery };
    Kind kind = Kind::kQuery;
    /// The query answer (top-k readings at the root); exact for audit
    /// epochs, empty for pure exploration epochs. Node ids are always
    /// construction-time (original) ids, even after rebuilds.
    std::vector<Reading> answer;
    double energy_mj = 0.0;
    bool replanned = false;
    /// Audit epochs: how many answers phase 1 proved (k = full marks).
    int proven = -1;
    /// Query/audit epochs: fraction of the true top-k in `answer`,
    /// measured against the caller's truth vector. -1 for epochs that
    /// return no answer (bootstrap/explore).
    double recall = -1.0;
    /// Wall-clock cost of any replan this epoch (0 when none ran).
    double replan_latency_ms = 0.0;
    /// Loss accounting for this epoch (fault injection / lossy transport).
    bool degraded = false;
    int values_lost = 0;
    /// Watchdog action: original ids excluded this epoch (nodes declared
    /// dead plus survivors orphaned by their loss). Usually empty.
    std::vector<int> removed_nodes;
    bool rebuilt = false;
  };

  /// `truth` is always indexed by construction-time node ids (size = the
  /// original network), regardless of rebuilds; readings of excluded
  /// nodes are simply ignored.
  Result<TickResult> Tick(const std::vector<double>& truth);

  int epoch() const { return engine_.epoch(); }
  bool has_plan() const { return engine_.has_plan(qid_); }
  const QueryPlan& plan() const { return engine_.plan(qid_); }
  const sampling::SampleSet& samples() const { return engine_.samples(qid_); }
  const PlanManager& manager() const { return engine_.manager(qid_); }
  /// The session's incremental-planning caches (hit/miss counters etc.).
  const PlanningWorkspace& workspace() const { return engine_.workspace(); }

  /// The tree currently in use (the rebuilt one after self-healing).
  const net::Topology& topology() const { return engine_.topology(); }
  /// How many self-healing rebuilds have happened.
  int rebuilds() const { return engine_.rebuilds(); }
  /// Current id -> construction-time id.
  const std::vector<int>& original_ids() const {
    return engine_.original_ids();
  }
  /// The active injector, or nullptr when no faults were scripted.
  const net::FaultInjector* fault_injector() const {
    return engine_.fault_injector();
  }

  /// Cumulative energy by activity, mJ.
  double query_energy_mj() const { return engine_.query_energy_mj(); }
  double sampling_energy_mj() const { return engine_.sampling_energy_mj(); }
  double audit_energy_mj() const { return engine_.audit_energy_mj(); }
  double install_energy_mj() const { return engine_.install_energy_mj(); }
  double total_energy_mj() const { return engine_.total_energy_mj(); }

  /// The engine underneath — the migration path for callers that want to
  /// co-register more queries on this session's radio.
  QueryEngine& engine() { return engine_; }
  const QueryEngine& engine() const { return engine_; }
  /// This session's query id inside engine().
  int query_id() const { return qid_; }

 private:
  QueryEngine engine_;
  int qid_;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_SESSION_H_
