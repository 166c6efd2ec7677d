#ifndef PROSPECTOR_OBS_AUDIT_H_
#define PROSPECTOR_OBS_AUDIT_H_

#include <string>

namespace prospector {
namespace obs {

/// Outcome of one energy ledger cross-check.
struct EnergyAuditResult {
  double claimed_mj = 0.0;   ///< what the executor/engine accumulated
  double measured_mj = 0.0;  ///< the simulator's independent ledger delta
  double divergence_mj = 0.0;
  bool ok = true;
};

/// Pure comparison: claimed and measured sum the exact same per-message
/// charges (in possibly different orders), so they must agree to float
/// round-off. `ok` iff |claimed - measured| <= abs_tol + rel_tol*|measured|.
EnergyAuditResult CheckEnergyLedger(double claimed_mj, double measured_mj,
                                    double abs_tol = 1e-6,
                                    double rel_tol = 1e-9);

/// When set, a failed AuditEnergy() aborts the process instead of just
/// counting and logging — the mode CI scenarios run under, so a cost-model
/// regression cannot hide inside an averaged benchmark table.
void SetEnergyAuditFailFast(bool fail_fast);
bool EnergyAuditFailFast();

/// Full audit: checks, bumps the `audit.energy.checks` /
/// `audit.energy.failures` counters, logs a diagnostic on divergence
/// (and aborts under fail-fast). `label` names the call site, e.g.
/// "executor.collect". Returns whether the ledgers agreed.
bool AuditEnergy(const char* label, double claimed_mj, double measured_mj);

}  // namespace obs
}  // namespace prospector

#endif  // PROSPECTOR_OBS_AUDIT_H_
