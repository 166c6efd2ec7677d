#ifndef PROSPECTOR_SERVICE_FLEET_H_
#define PROSPECTOR_SERVICE_FLEET_H_

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/query_engine.h"
#include "src/service/api.h"
#include "src/service/quota.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace service {

struct FleetOptions {
  /// Epoch scheduler width: deployments are batched onto a ThreadPool of
  /// this many workers each epoch. <= 1 ticks serially; either way the
  /// scheduler output is bit-identical (see DESIGN.md, "Fleet service").
  int scheduler_threads = 1;
  /// Buffered answers per query; on overflow the oldest drops and the
  /// next poll reports how many were lost.
  size_t answer_ring_capacity = 32;
  /// Admission backpressure: admits are rejected (kQueueFull) while this
  /// many requests await the next epoch boundary. 0 = unlimited.
  size_t max_pending_requests = 4096;
  /// Applied to tenants without an explicit SetTenantQuota override.
  TenantQuota default_quota;
};

/// What one fleet epoch did, aggregated across deployments.
struct FleetEpochReport {
  long long epoch = -1;
  int applied_admits = 0;
  int applied_retires = 0;
  double energy_mj = 0.0;  ///< audited fleet-wide radio energy this epoch
  int degraded_deployments = 0;
  int rebuilt_deployments = 0;
};

/// The fleet-scale serving layer: many independent core::QueryEngine
/// deployments behind one request/response API, multiplexing thousands of
/// standing queries from many tenants (see DESIGN.md, "Fleet service").
///
/// Request lifecycle (the per-request state machine):
///
///   Admit() --------> kPending --(epoch boundary)--> kActive
///     |  validation + quota reservation are synchronous; activation is
///     |  deferred so every epoch sees a stable query population.
///   Retire() -------> kRetireQueued --(epoch boundary)--> kRetired
///
/// Scheduling: RunEpoch() first applies queued requests in submission
/// order, then ticks every deployment — batched over the worker pool in
/// stable deployment order — then demultiplexes answers into per-query
/// poll rings serially. Deployments share no mutable state (each engine
/// owns its simulator, RNG, and truth stream), so the scheduler's output
/// is bit-identical to ticking the same deployments sequentially.
///
/// Query ids are allocated from a single fleet-wide counter and are never
/// reused, on any deployment, ever (QueryRegistry burns retired ids).
///
/// Threading: one mutex guards the service's own state (query records,
/// request queue, quota ledger, counters). Admit(), Retire(), Poll() and
/// SetTenantQuota() may run on concurrent caller threads, including
/// during RunEpoch(); RunEpoch() holds the lock only to apply the queue
/// and to demultiplex answers, never while deployments tick. RunEpoch(),
/// Snapshot() and HealthReport() must not overlap one another: they read
/// engine state, which only RunEpoch() writes. AddDeployment() must not
/// overlap any other call.
class FleetService {
 public:
  /// Produces one epoch's ground-truth readings for a deployment. Each
  /// deployment draws from its own Rng, so truth streams are independent
  /// of scheduling.
  using TruthFn = std::function<std::vector<double>(Rng*)>;

  explicit FleetService(FleetOptions options = {});

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Per-tenant override of options.default_quota.
  void SetTenantQuota(int tenant_id, TenantQuota quota);

  /// Registers a deployment (an engine over `topology`, which the caller
  /// keeps alive). Registration order fixes the deployment id and the
  /// scheduler's tick order. The engine seeds from `seed`; the truth
  /// stream seeds from a decorrelated derivative of it.
  int AddDeployment(const net::Topology* topology, net::EnergyModel energy,
                    net::FailureModel failures,
                    core::QueryEngineOptions options, TruthFn truth,
                    uint64_t seed);

  // --- request/response API ---
  AdmitQueryResponse Admit(const AdmitQueryRequest& request);
  RetireQueryResponse Retire(const RetireQueryRequest& request);
  PollAnswersResponse Poll(const PollAnswersRequest& request);

  /// Applies queued admits/retires, then runs one epoch on every
  /// deployment. Fails on the first deployment tick error (in deployment
  /// order), with the fleet stopped at that epoch.
  Result<FleetEpochReport> RunEpoch();
  /// Runs `n` epochs; returns the last report.
  Result<FleetEpochReport> RunEpochs(int n);

  /// One consistent snapshot of fleet, deployment, and tenant state.
  FleetStatus Snapshot() const;

  /// Health of every standing query across the fleet, tagged with
  /// deployment and tenant ids, in (deployment, query id) order — feed to
  /// core::RollupByTenant / RollupByDeployment / FleetHealthJson.
  std::vector<core::QueryHealth> HealthReport() const;

  int num_deployments() const { return static_cast<int>(deployments_.size()); }
  /// Direct read access to one deployment's engine (aborts on bad id).
  const core::QueryEngine& deployment(int deployment_id) const;

 private:
  enum class QueryPhase { kPending, kActive, kRetireQueued, kRetired };

  /// Service-side record of one query, at index query_id of `records_`:
  /// routing (deployment, tenant), the reserved budget, and the answer
  /// ring Poll() drains. A drain-all Poll() hands the whole ring to the
  /// response, so a drained record holds no heap memory.
  struct QueryRecord {
    int deployment_id = -1;
    int tenant_id = -1;
    double budget_mj = 0.0;
    QueryPhase phase = QueryPhase::kPending;
    long long dropped = 0;
    std::vector<AnswerRecord> ring;  ///< oldest first
  };

  struct Deployment {
    int id = -1;
    std::unique_ptr<core::QueryEngine> engine;
    TruthFn truth;
    Rng truth_rng;
    Deployment(int id, std::unique_ptr<core::QueryEngine> engine, TruthFn t,
               uint64_t truth_seed)
        : id(id),
          engine(std::move(engine)),
          truth(std::move(t)),
          truth_rng(truth_seed) {}
  };

  struct PendingRequest {
    enum Kind { kAdmit, kRetire } kind = kAdmit;
    int query_id = -1;
    core::QuerySpec spec;  ///< admits only: what activates
  };

  // The helpers below run with mu_ held.
  void CountReject(int tenant_id, AdmitReject reject);
  /// Applies queued requests in submission order (epoch boundary).
  void ApplyPending(FleetEpochReport* report);

  FleetOptions options_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<Deployment>> deployments_;

  /// Guards every field below.
  mutable std::mutex mu_;
  QuotaLedger quota_;
  /// Indexed by query id. Ids come from records_.size(), so they start at
  /// 0, are dense, and are never reused; records are never erased.
  std::vector<QueryRecord> records_;
  std::vector<PendingRequest> queue_;
  long long epoch_ = 0;
  // Fleet-lifetime counters for Snapshot(); also mirrored to obs.
  long long admits_ = 0;
  long long retires_ = 0;
  std::array<long long, kAdmitRejectKinds> rejects_by_kind_{};
};

}  // namespace service
}  // namespace prospector

#endif  // PROSPECTOR_SERVICE_FLEET_H_
