#ifndef PROSPECTOR_SERVICE_FLEET_H_
#define PROSPECTOR_SERVICE_FLEET_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
/// Threading: Admit(), Retire() and Poll() may run on concurrent caller
/// threads; they meet only at the request queue and the sharded query
/// index. RunEpoch(), Snapshot() and HealthReport() must not overlap one
/// another: Snapshot() reads engine epochs and energy totals without
/// locks.
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
  long long epochs_run() const { return epoch_.load(std::memory_order_acquire); }
  /// Direct read access to one deployment's engine (aborts on bad id).
  const core::QueryEngine& deployment(int deployment_id) const;

 private:
  enum class QueryPhase { kPending, kActive, kRetireQueued, kRetired };

  /// Service-side record of one query: routing (deployment, tenant), the
  /// spec awaiting activation, and the answer ring Poll() drains.
  struct QueryRecord {
    int query_id = -1;
    int deployment_id = -1;
    int tenant_id = -1;
    double budget_mj = 0.0;
    core::QuerySpec spec;
    /// Guards phase + ring: Poll() runs on caller threads while the
    /// scheduler's serial demux appends.
    std::mutex mu;
    QueryPhase phase = QueryPhase::kPending;
    std::deque<AnswerRecord> ring;
    long long dropped = 0;
  };

  struct IndexShard {
    mutable std::mutex mu;
    std::unordered_map<int, std::unique_ptr<QueryRecord>> records;
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
  };

  /// Shards of the query index (query id -> record), so concurrent
  /// Admit/Retire/Poll callers on different ids rarely share a lock.
  static constexpr size_t kIndexShards = 64;

  IndexShard& ShardFor(int query_id) {
    return index_[static_cast<size_t>(query_id) % kIndexShards];
  }
  QueryRecord* FindRecord(int query_id);
  const QueryRecord* FindRecord(int query_id) const;
  void CountReject(int tenant_id, AdmitReject reject);
  /// Applies queued requests in submission order (serial, epoch boundary).
  void ApplyPending(FleetEpochReport* report);

  FleetOptions options_;
  util::ThreadPool pool_;
  QuotaLedger quota_;
  std::vector<std::unique_ptr<Deployment>> deployments_;

  /// Fleet-wide query id allocator; ids are never reused.
  std::atomic<int> next_query_id_{0};
  std::atomic<long long> epoch_{0};

  std::array<IndexShard, kIndexShards> index_;

  mutable std::mutex queue_mu_;
  std::deque<PendingRequest> queue_;

  // Fleet-lifetime counters for Snapshot(); also mirrored to obs.
  std::atomic<long long> admits_{0};
  std::atomic<long long> retires_{0};
  std::array<std::atomic<long long>, kAdmitRejectKinds> rejects_by_kind_{};
};

}  // namespace service
}  // namespace prospector

#endif  // PROSPECTOR_SERVICE_FLEET_H_
