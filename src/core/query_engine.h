#ifndef PROSPECTOR_CORE_QUERY_ENGINE_H_
#define PROSPECTOR_CORE_QUERY_ENGINE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/core/exact.h"
#include "src/core/health.h"
#include "src/core/plan_manager.h"
#include "src/core/plan_merge.h"
#include "src/core/query_registry.h"
#include "src/net/fault_injector.h"
#include "src/net/rebuild.h"
#include "src/net/simulator.h"
#include "src/sampling/collector.h"
#include "src/sampling/sample_set.h"

namespace prospector {
namespace core {

/// Deployment-wide configuration shared by every registered query.
struct QueryEngineOptions {
  /// Sliding sample window (Section 3's "window of recent samples").
  size_t sample_window = 40;
  /// The first epochs always run full sweeps to seed the windows.
  int bootstrap_sweeps = 8;

  /// Scripted fault timeline (engine epoch == event epoch). Empty = none.
  net::FaultSchedule faults;
  /// Transport tier 2: bounded retries with backoff, then genuine drops.
  net::LossyTransport lossy;
  /// Transport tier 3: rate-based duplication / corruption / delay
  /// (scripted per-edge events ride in `faults`). Validated at engine
  /// construction like the failure model.
  net::AdversarialTransport adversarial;
  /// Protocol defense against tier 3. kAuto fences exactly when any
  /// adversarial knob is active (config rates or scripted events), so a
  /// tier-1/2 engine stays bit-identical to the seed; kNaive is the
  /// deliberately-broken mode the chaos soak's tamper check uses.
  TransportFencing fencing = TransportFencing::kAuto;
  /// Shared watchdog: a non-root subtree silent for this many consecutive
  /// observed epochs is declared dead and the tree is rebuilt without it.
  /// 0 disables.
  int dead_after_epochs = 0;
  /// Radio range for the rebuild's minimum-hop re-tree.
  double rebuild_radio_range = 0.0;
  /// Fleet tag stamped onto health reports (and fleet rollups) when this
  /// engine is one deployment among many behind a service::FleetService;
  /// -1 for standalone engines.
  int deployment_id = -1;
};

/// Multi-query top-k engine over one deployed network (see DESIGN.md,
/// "Multi-query engine"). Layering:
///
///   QueryRegistry  — admit/retire co-resident standing queries
///   plan merge     — per-epoch superplan over the installed plans
///   epoch driver   — Tick(): one shared sweep/trigger/collection wave
///   demux          — per-query answers, recall, proofs, energy shares
///
/// One radio serves every query: exploration sweeps feed all sample
/// windows from a single charged sweep, query epochs execute one merged
/// superplan whose per-edge messages carry the union of what the
/// constituent plans want, and one watchdog/heal path maintains the tree
/// for everyone. A single standing query is an engine with one registered
/// query: AddQuery once, Tick each epoch, and read the query's outcome
/// from per_query[0] and the watchdog's from the epoch result.
class QueryEngine {
 public:
  QueryEngine(const net::Topology* topology, net::EnergyModel energy,
              net::FailureModel failures, QueryEngineOptions options,
              uint64_t seed = 1);

  /// What one epoch did for one query.
  enum class QueryEpochKind { kBootstrap, kExplore, kAudit, kQuery };
  struct QueryTickResult {
    int query_id = -1;
    QueryEpochKind kind = QueryEpochKind::kQuery;
    /// Top-k answer in construction-time node ids; empty on
    /// bootstrap/explore epochs.
    std::vector<Reading> answer;
    /// This query's attributed share of the epoch's energy, mJ.
    double energy_mj = 0.0;
    bool replanned = false;
    int proven = -1;
    double recall = -1.0;
    double replan_latency_ms = 0.0;
    bool degraded = false;
    int values_lost = 0;
    /// This query's SLO health after the epoch was scored.
    HealthStatus health = HealthStatus::kUnknown;
  };

  /// What one epoch did overall.
  enum class EpochKind { kBootstrap, kExplore, kQuery, kIdle };
  struct TickResult {
    EpochKind kind = EpochKind::kIdle;
    /// One entry per registered query, in admission order.
    std::vector<QueryTickResult> per_query;
    /// Radio-level accounting: the audited epoch total and union loss.
    double energy_mj = 0.0;
    bool degraded = false;
    int values_lost = 0;
    /// Sharing wins of this epoch's superplan (query epochs only).
    int shared_messages = 0;
    long long shared_values = 0;
    /// Watchdog action this epoch.
    std::vector<int> removed_nodes;
    bool rebuilt = false;
  };

  // --- registry ---
  /// Admits a standing query; returns its stable id. The new query's
  /// sample window is hydrated from the sweeps the engine has already
  /// collected, so it can plan immediately.
  int AddQuery(const QuerySpec& spec);
  /// Admits a standing query under an externally supplied id (the fleet
  /// service allocates globally unique ids across deployments). Fails if
  /// the id was ever used on this engine — ids never alias, so a retired
  /// query's attribution pools and health windows cannot be revived.
  Result<int> AddQueryWithId(int id, const QuerySpec& spec);
  /// Retires a query. Its attributed energy stays in the engine totals.
  bool RemoveQuery(int id);
  int num_queries() const { return registry_.size(); }
  std::vector<int> query_ids() const { return registry_.ids(); }

  /// Runs one epoch for every registered query. `truth` is indexed by
  /// construction-time node ids regardless of rebuilds.
  Result<TickResult> Tick(const std::vector<double>& truth);

  // --- per-query accessors (abort on unknown id) ---
  bool has_plan(int id) const { return At(id).manager.has_plan(); }
  const QueryPlan& plan(int id) const { return At(id).manager.plan(); }
  const sampling::SampleSet& samples(int id) const { return At(id).samples; }
  const PlanManager& manager(int id) const { return At(id).manager; }
  const QuerySpec& spec(int id) const { return At(id).spec; }
  double query_energy_mj(int id) const { return At(id).query_energy_mj; }
  double sampling_energy_mj(int id) const { return At(id).sampling_energy_mj; }
  double audit_energy_mj(int id) const { return At(id).audit_energy_mj; }
  double install_energy_mj(int id) const { return At(id).install_energy_mj; }
  double total_energy_mj(int id) const { return At(id).total_energy_mj(); }

  /// SLO health of every registered query, in admission order.
  std::vector<QueryHealth> HealthReport() const;
  /// One query's health (aborts on unknown id).
  QueryHealth query_health(int id) const;

  // --- engine-level accessors ---
  int epoch() const { return epoch_; }
  const net::Topology& topology() const { return *topology_; }
  int rebuilds() const { return rebuilds_; }
  const std::vector<int>& original_ids() const { return orig_of_; }
  const net::FaultInjector* fault_injector() const {
    return injecting_ ? &injector_ : nullptr;
  }
  /// The transport guard defending this deployment's protocol layer, or
  /// nullptr when no adversarial knob is active (tier-1/2 engines run the
  /// seed protocol verbatim).
  const TransportGuard* transport_guard() const {
    return guarding_ ? &guard_ : nullptr;
  }
  /// Cumulative radio-level transmission accounting across every phase
  /// (sweeps, installs, audits, query epochs) and every rebuild — the
  /// ledger the chaos soak reconciles guard counters against.
  const net::TransmissionStats& radio_totals() const { return radio_totals_; }
  /// The merged superplan of the most recent query epoch (empty before
  /// the first one).
  const Superplan& superplan() const { return superplan_; }
  /// The proof plan the engine holds for query `id`'s audit on the current
  /// sample windows (the plan its audits execute until a sweep or a heal
  /// changes the windows), or nullptr when no audit with its key has run
  /// since. Valid until the next Tick; aborts on unknown id.
  const QueryPlan* audit_plan(int id) const;

  /// Cumulative radio energy by activity, mJ (audited epoch totals; the
  /// per-query attributed ledgers sum to these).
  double query_energy_mj() const { return query_energy_; }
  double sampling_energy_mj() const { return sampling_energy_; }
  double audit_energy_mj() const { return audit_energy_; }
  double install_energy_mj() const { return install_energy_; }
  double total_energy_mj() const {
    return query_energy_ + sampling_energy_ + audit_energy_ + install_energy_;
  }

 private:
  const QueryState& At(int id) const;
  void HydrateNewQuery(QueryState* q);
  TransportGuard* guard() { return guarding_ ? &guard_ : nullptr; }
  /// Drains the simulator's ledger into `radio_totals_` (every phase ends
  /// through here so the cumulative accounting survives ResetStats).
  net::TransmissionStats TakeRadioStats();
  Result<bool> ReplanQuery(QueryState* q);
  /// Phase-1 budget of `spec`'s audits on the current tree and cost model.
  double AuditBudget(const QuerySpec& spec) const {
    return ProofPlanner::MinimumCost(ctx_) * spec.audit_budget_factor;
  }
  const QueryPlan* FindAuditPlan(const QuerySpec& spec,
                                 double budget_mj) const;
  /// The proof plan for `q`'s next audit: the memoized one when an audit
  /// with the same key already planned on the current windows, else a
  /// fresh ProofPlanner::Plan, memoized.
  Result<const QueryPlan*> AuditPlanFor(const QueryState& q);
  void ObserveEdges(const std::vector<char>& expected,
                    const std::vector<char>& delivered);
  void TranslateAnswer(std::vector<Reading>* answer) const;
  Result<bool> MaybeHeal(TickResult* result);
  /// Feeds every tracker this epoch's signals and stamps per-query health
  /// onto the result. Runs serially right before FinishTick.
  void UpdateHealth(TickResult* result);
  void FinishTick(const TickResult& result) const;

  const net::Topology* topology_;
  QueryEngineOptions options_;
  PlannerContext ctx_;
  net::NetworkSimulator sim_;
  sampling::SampleCollector collector_;
  QueryRegistry registry_;
  Rng rng_;
  int epoch_ = 0;
  Superplan superplan_;
  /// Proof plans solved on the current sample windows, one per distinct
  /// audit key. A proof plan is a function of tree, cost model, window, k,
  /// budget and LP options; the first two are fixed between heals, and
  /// queries with equal k hold equal windows (see Tick), so the key is
  /// (k, budget, lp). Cleared wherever a window changes: the sweep feed
  /// and the heal.
  struct MemoizedAuditPlan {
    int k;
    double budget_mj;
    LpPlannerOptions lp;
    QueryPlan plan;
  };
  std::vector<MemoizedAuditPlan> audit_plans_;
  TransportGuard guard_;
  bool guarding_ = false;
  net::TransmissionStats radio_totals_;
  /// Guard rejections seen up to the previous tick, so health scoring can
  /// attribute a per-epoch rejection delta.
  long long guard_rejects_prev_ = 0;

  /// Recent collected sweeps (current-tree indexing, oldest first) —
  /// what hydrates the window of a query admitted mid-flight. Capped at
  /// `sample_window`.
  std::deque<std::vector<double>> history_;

  double query_energy_ = 0.0;
  double sampling_energy_ = 0.0;
  double audit_energy_ = 0.0;
  double install_energy_ = 0.0;

  // Robustness state (see the heal path): after a rebuild
  // `owned_topology_` replaces the caller's topology, `orig_of_[i]` maps
  // current node i to its construction-time id, and `silent_[i]` counts
  // consecutive observed epochs of unexpected silence.
  uint64_t seed_;
  int original_num_nodes_;
  net::FaultInjector injector_;
  bool injecting_ = false;
  std::unique_ptr<net::Topology> owned_topology_;
  std::vector<int> orig_of_;
  std::vector<int> silent_;
  int rebuilds_ = 0;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_QUERY_ENGINE_H_
