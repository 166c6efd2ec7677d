#include "src/service/api.h"

#include "src/util/json.h"

namespace prospector {
namespace service {

const char* AdmitRejectName(AdmitReject reject) {
  switch (reject) {
    case AdmitReject::kNone:
      return "none";
    case AdmitReject::kUnknownDeployment:
      return "unknown_deployment";
    case AdmitReject::kInvalidSpec:
      return "invalid_spec";
    case AdmitReject::kTenantQueryQuota:
      return "tenant_query_quota";
    case AdmitReject::kTenantEnergyQuota:
      return "tenant_energy_quota";
    case AdmitReject::kQueueFull:
      return "queue_full";
  }
  return "unknown";
}

std::string FleetStatusJson(const FleetStatus& s) {
  util::Json rejects_by_kind = util::Json::Object();
  for (int i = 0; i < kAdmitRejectKinds; ++i) {
    if (i == static_cast<int>(AdmitReject::kNone)) continue;
    rejects_by_kind.Set(AdmitRejectName(static_cast<AdmitReject>(i)),
                        s.rejects_by_kind[static_cast<size_t>(i)]);
  }
  util::Json per_deployment = util::Json::Array();
  for (const DeploymentStatus& d : s.per_deployment) {
    util::Json j = util::Json::Object();
    j.Set("deployment", d.deployment_id);
    j.Set("nodes", d.num_nodes);
    j.Set("standing_queries", d.standing_queries);
    j.Set("epoch", d.epoch);
    j.Set("rebuilds", d.rebuilds);
    j.Set("total_energy_mj", d.total_energy_mj);
    per_deployment.Append(std::move(j));
  }
  util::Json per_tenant = util::Json::Array();
  for (const TenantStatus& t : s.per_tenant) {
    util::Json j = util::Json::Object();
    j.Set("tenant", t.tenant_id);
    j.Set("standing_queries", t.standing_queries);
    j.Set("admitted_budget_mj", t.admitted_budget_mj);
    j.Set("admits", t.admits);
    j.Set("rejects", t.rejects);
    j.Set("attributed_energy_mj", t.attributed_energy_mj);
    per_tenant.Append(std::move(j));
  }
  util::Json out = util::Json::Object();
  out.Set("epoch", s.epoch);
  out.Set("deployments", s.deployments);
  out.Set("standing_queries", s.standing_queries);
  out.Set("pending_requests", s.pending_requests);
  out.Set("admits", s.admits);
  out.Set("retires", s.retires);
  out.Set("rejects", s.rejects);
  out.Set("rejects_by_kind", std::move(rejects_by_kind));
  out.Set("total_energy_mj", s.total_energy_mj);
  out.Set("per_deployment", std::move(per_deployment));
  out.Set("per_tenant", std::move(per_tenant));
  return out.Dump(-1);
}

}  // namespace service
}  // namespace prospector
