#ifndef PROSPECTOR_CORE_QUERY_REGISTRY_H_
#define PROSPECTOR_CORE_QUERY_REGISTRY_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/core/health.h"
#include "src/core/lp_no_filter_planner.h"
#include "src/core/plan_manager.h"
#include "src/sampling/sample_set.h"
#include "src/util/status.h"

namespace prospector {
namespace core {

/// Which PROSPECTOR algorithm plans a query.
enum class PlannerChoice { kGreedy, kLpNoFilter, kLpFilter };

/// What one registered query asks for. Everything here is per query; the
/// deployment-wide knobs (sample window, bootstrap, faults, watchdog)
/// live in QueryEngineOptions.
struct QuerySpec {
  int k = 10;
  double energy_budget_mj = 10.0;
  PlannerChoice planner = PlannerChoice::kLpFilter;
  LpPlannerOptions lp;
  PlanManagerOptions manager;
  /// Every `audit_every` query epochs, run a proof-carrying exact query to
  /// measure true accuracy and drive re-sampling; 0 disables audits.
  int audit_every = 0;
  /// Phase-1 budget of an audit, as a multiple of the proof floor.
  double audit_budget_factor = 1.15;
  /// Service-level objectives this query's health is scored against.
  HealthSlo slo;
  /// Owning tenant when the query was admitted through the fleet service;
  /// -1 for directly-registered queries. Tags health reports and fleet
  /// rollups (see DESIGN.md, "Fleet service").
  int tenant_id = -1;
};

/// Everything the engine keeps per admitted query: its spec, its own
/// sample window (contribution rows depend on the query's k, so windows
/// cannot be shared even though the underlying sweeps are), its planner
/// and re-planning policy, and its energy ledger (attributed shares of
/// the shared radio cost — see DESIGN.md, "Multi-query engine").
struct QueryState {
  QueryState(int id, const QuerySpec& spec, int num_nodes,
             size_t sample_window);

  int id;
  QuerySpec spec;
  sampling::SampleSet samples;
  std::unique_ptr<Planner> planner;
  PlanManager manager;

  int queries_since_audit = 0;
  double last_replan_latency_ms = 0.0;
  /// Rolling-window SLO scorer fed once per tick (see DESIGN.md, "Flight
  /// recorder & health model").
  QueryHealthTracker health;

  /// Attributed energy by activity, mJ. Shared epochs (sweeps, merged
  /// superplans) are split across the queries aboard, so summing these
  /// over all queries reproduces the engine's audited totals.
  double query_energy_mj = 0.0;
  double sampling_energy_mj = 0.0;
  double audit_energy_mj = 0.0;
  double install_energy_mj = 0.0;
  double total_energy_mj() const {
    return query_energy_mj + sampling_energy_mj + audit_energy_mj +
           install_energy_mj;
  }
};

/// The admission/retirement layer: owns the QueryStates and guarantees
/// ids are never reused.
///
/// Single-threaded: only the engine's AddQuery/AddQueryWithId/RemoveQuery
/// mutate it, and the fleet service applies those serially at the epoch
/// boundary. Iteration order is ascending query id, never admission
/// order, so the engine's per-epoch walk is the same however the queries
/// arrived.
class QueryRegistry {
 public:
  QueryRegistry() = default;
  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Admits with a registry-allocated id: one above the highest id ever
  /// admitted, so it never collides with an externally supplied one.
  int Add(const QuerySpec& spec, int num_nodes, size_t sample_window);

  /// Admits under an externally supplied id — the fleet service owns
  /// global id allocation across deployments. Fails (and admits nothing)
  /// if the id was ever admitted to this registry before, live or
  /// retired: ids never alias, so attribution pools and health windows
  /// of a retired query can never be revived by a newcomer.
  Result<int> AddWithId(int id, const QuerySpec& spec, int num_nodes,
                        size_t sample_window);

  /// Retires a query. Returns false for an unknown id. The id stays
  /// burned: re-admitting it is an error forever.
  bool Remove(int id);

  QueryState* Find(int id);
  const QueryState* Find(int id) const;

  int size() const { return static_cast<int>(live_.size()); }
  /// Live ids, ascending.
  std::vector<int> ids() const;

  /// Live queries in ascending-id order — the engine's iteration order.
  /// The reference is valid until the next admit/retire.
  const std::vector<QueryState*>& ordered() const { return ordered_; }

 private:
  void Admit(int id, const QuerySpec& spec, int num_nodes,
             size_t sample_window);
  void RebuildOrdered();

  std::map<int, std::unique_ptr<QueryState>> live_;
  /// Every id ever admitted, live or retired.
  std::set<int> burned_;
  std::vector<QueryState*> ordered_;
};

}  // namespace core
}  // namespace prospector

#endif  // PROSPECTOR_CORE_QUERY_REGISTRY_H_
