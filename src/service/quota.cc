#include "src/service/quota.h"

namespace prospector {
namespace service {

void QuotaLedger::SetQuota(int tenant_id, TenantQuota quota) {
  quotas_[tenant_id] = quota;
}

AdmitReject QuotaLedger::Reserve(int tenant_id, double budget_mj,
                                 std::string* message) {
  const auto qit = quotas_.find(tenant_id);
  const TenantQuota quota = qit != quotas_.end() ? qit->second : default_;
  Usage& usage = usage_[tenant_id];
  if (quota.max_standing_queries > 0 &&
      usage.standing >= quota.max_standing_queries) {
    ++usage.rejects;
    if (message != nullptr) {
      *message = "tenant " + std::to_string(tenant_id) + " at its quota of " +
                 std::to_string(quota.max_standing_queries) +
                 " standing queries";
    }
    return AdmitReject::kTenantQueryQuota;
  }
  if (quota.max_energy_mj_per_epoch > 0.0 &&
      usage.budget_mj + budget_mj > quota.max_energy_mj_per_epoch) {
    ++usage.rejects;
    if (message != nullptr) {
      *message = "tenant " + std::to_string(tenant_id) +
                 " energy cap exceeded: " + std::to_string(usage.budget_mj) +
                 " + " + std::to_string(budget_mj) + " > " +
                 std::to_string(quota.max_energy_mj_per_epoch) + " mJ/epoch";
    }
    return AdmitReject::kTenantEnergyQuota;
  }
  ++usage.standing;
  usage.budget_mj += budget_mj;
  ++usage.admits;
  return AdmitReject::kNone;
}

void QuotaLedger::Release(int tenant_id, double budget_mj) {
  Usage& usage = usage_[tenant_id];
  if (usage.standing > 0) --usage.standing;
  usage.budget_mj -= budget_mj;
  if (usage.budget_mj < 0.0) usage.budget_mj = 0.0;
}

void QuotaLedger::MeterEnergy(int tenant_id, double energy_mj) {
  usage_[tenant_id].energy_mj += energy_mj;
}

std::vector<std::pair<int, QuotaLedger::Usage>> QuotaLedger::AllUsage() const {
  return {usage_.begin(), usage_.end()};
}

}  // namespace service
}  // namespace prospector
