#ifndef PROSPECTOR_SERVICE_QUOTA_H_
#define PROSPECTOR_SERVICE_QUOTA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/service/api.h"

namespace prospector {
namespace service {

/// Per-tenant admission limits. A zero field disarms that limit.
struct TenantQuota {
  /// Maximum standing (pending + active) queries.
  int max_standing_queries = 0;
  /// Cap on the sum of standing queries' per-epoch energy budgets, mJ —
  /// the tenant's worst-case planned draw per epoch across the fleet.
  double max_energy_mj_per_epoch = 0.0;
};

/// Check-and-reserve accounting behind admission control. Reservations
/// are taken synchronously at Admit() time — before the query activates —
/// and released when the retirement applies at an epoch boundary.
///
/// The ledger takes no lock: FleetService makes every call under its one
/// service lock, so concurrent admissions cannot both squeeze under a
/// cap. It is pure bookkeeping: obs metering (service.rejects.<kind>
/// counters etc.) stays in FleetService so the ledger is trivially
/// testable.
class QuotaLedger {
 public:
  explicit QuotaLedger(TenantQuota default_quota = {})
      : default_(default_quota) {}

  /// Per-tenant override of the default quota.
  void SetQuota(int tenant_id, TenantQuota quota);

  /// Admission check: reserves one standing query and `budget_mj` of the
  /// tenant's energy cap, or reports the typed reason it cannot. On
  /// reject, nothing is reserved and the tenant's reject count bumps.
  AdmitReject Reserve(int tenant_id, double budget_mj, std::string* message);

  /// Releases one standing query and its budget (retirement applied, or
  /// an admission that failed downstream).
  void Release(int tenant_id, double budget_mj);

  /// Meters realized attributed energy for status reporting.
  void MeterEnergy(int tenant_id, double energy_mj);

  struct Usage {
    int standing = 0;
    double budget_mj = 0.0;
    long long admits = 0;
    long long rejects = 0;
    double energy_mj = 0.0;
  };
  /// Every tenant ever seen, ascending id.
  std::vector<std::pair<int, Usage>> AllUsage() const;

 private:
  TenantQuota default_;
  std::map<int, TenantQuota> quotas_;
  std::map<int, Usage> usage_;
};

}  // namespace service
}  // namespace prospector

#endif  // PROSPECTOR_SERVICE_QUOTA_H_
