#ifndef PROSPECTOR_SERVICE_API_H_
#define PROSPECTOR_SERVICE_API_H_

#include <array>
#include <string>
#include <vector>

#include "src/core/health.h"
#include "src/core/query_engine.h"

namespace prospector {
namespace service {

/// Why an admission was refused. Typed so callers (and tests) can branch
/// on the cause instead of parsing messages; every kind is also metered
/// through obs as service.rejects.<kind>.
enum class AdmitReject {
  kNone = 0,
  kUnknownDeployment,  ///< deployment_id names no registered deployment
  /// k <= 0; energy budget not finite and > 0; or audits on
  /// (audit_every > 0) with audit_budget_factor not finite and >= 1.
  kInvalidSpec,
  kTenantQueryQuota,   ///< tenant at max standing queries
  kTenantEnergyQuota,  ///< admitted budgets would exceed the tenant cap
  kQueueFull,          ///< admission backpressure: pending queue at cap
};
inline constexpr int kAdmitRejectKinds = 6;

const char* AdmitRejectName(AdmitReject reject);

/// Admit one standing top-k query onto one deployment, on behalf of a
/// tenant. Validation and quota reservation happen synchronously; the
/// query starts ticking at the next epoch boundary.
struct AdmitQueryRequest {
  int deployment_id = -1;
  int tenant_id = 0;
  /// spec.tenant_id is overwritten by the service from `tenant_id`.
  core::QuerySpec spec;
};

struct AdmitQueryResponse {
  /// True: the query holds a globally unique id, its quota is reserved,
  /// and it activates at the next epoch boundary. False: see `reject`.
  bool admitted = false;
  int query_id = -1;
  AdmitReject reject = AdmitReject::kNone;
  std::string message;
};

/// Retire a standing query. `tenant_id >= 0` asserts ownership (tenants
/// cannot retire each other's queries); -1 is the administrative path.
struct RetireQueryRequest {
  int query_id = -1;
  int tenant_id = -1;
};

struct RetireQueryResponse {
  /// True: retirement is queued and applies at the next epoch boundary.
  /// Already-buffered answers stay pollable after that.
  bool retired = false;
  std::string message;
};

/// One answer-bearing epoch of one query, as buffered for polling.
struct AnswerRecord {
  long long epoch = -1;  ///< fleet epoch that produced the answer
  core::QueryEngine::QueryEpochKind kind =
      core::QueryEngine::QueryEpochKind::kQuery;
  std::vector<core::Reading> answer;  ///< construction-time node ids
  double recall = -1.0;
  double energy_mj = 0.0;  ///< the query's attributed share that epoch
  core::HealthStatus health = core::HealthStatus::kUnknown;
};

struct PollAnswersRequest {
  int query_id = -1;
  /// Upper bound on answers returned; 0 drains everything buffered.
  int max_answers = 0;
};

struct PollAnswersResponse {
  bool known_query = false;
  /// Still standing (pending or active); false once retired. Retired
  /// queries keep their buffered answers until drained.
  bool active = false;
  std::vector<AnswerRecord> answers;  ///< oldest first
  /// Ring overflow: answers dropped (oldest-first) since the last poll.
  long long dropped = 0;
};

struct TenantStatus {
  int tenant_id = -1;
  int standing_queries = 0;  ///< pending + active (quota-reserved)
  double admitted_budget_mj = 0.0;  ///< sum of standing per-epoch budgets
  long long admits = 0;
  long long rejects = 0;
  double attributed_energy_mj = 0.0;  ///< realized, summed over epochs
};

struct DeploymentStatus {
  int deployment_id = -1;
  int num_nodes = 0;
  int standing_queries = 0;
  int epoch = 0;  ///< engine-local epoch count
  int rebuilds = 0;
  double total_energy_mj = 0.0;
};

/// One consistent snapshot of the whole fleet.
struct FleetStatus {
  long long epoch = 0;  ///< fleet epochs run
  int deployments = 0;
  int standing_queries = 0;
  int pending_requests = 0;  ///< queued admits/retires awaiting the boundary
  long long admits = 0;   ///< requests accepted into the queue, ever
  long long retires = 0;  ///< retirements applied, ever
  long long rejects = 0;
  /// Indexed by static_cast<int>(AdmitReject).
  std::array<long long, kAdmitRejectKinds> rejects_by_kind{};
  double total_energy_mj = 0.0;
  std::vector<DeploymentStatus> per_deployment;  ///< ascending deployment id
  std::vector<TenantStatus> per_tenant;          ///< ascending tenant id
};

/// Compact deterministic JSON rendering of a fleet snapshot (obsdump's
/// --fleet-demo and the bench artifacts embed this).
std::string FleetStatusJson(const FleetStatus& status);

}  // namespace service
}  // namespace prospector

#endif  // PROSPECTOR_SERVICE_API_H_
