#ifndef PROSPECTOR_TESTVEC_CHAOS_H_
#define PROSPECTOR_TESTVEC_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/query_engine.h"
#include "src/net/fault_injector.h"
#include "src/net/simulator.h"
#include "src/obs/flight_recorder.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace prospector {
namespace testvec {

/// Chaos-soak harness (see DESIGN.md, "Failure semantics"): runs a
/// QueryEngine under a seeded random fault schedule that mixes all nine
/// scripted fault kinds (kills/revives, degrades/restores, partitions/
/// heals, duplication/corruption/delay) on top of rate-based lossy and
/// adversarial transport, across replans, watchdog rebuilds, and
/// multi-query epochs — and checks machine-verifiable invariants:
///
///   I1 fencing is structural: a fenced run never folds a stale or
///      duplicate message into an answer (guard counters stay zero);
///   I2 flag honesty: any epoch whose radio ledger recorded corruption
///      or deferral reports `degraded`;
///   I3 guard/radio reconciliation: protocol-layer rejection counters
///      never exceed the radio-level event counts (sweeps and plan
///      installs legitimately bypass the guard);
///   I4 the energy audit reconciles: phase-claimed totals equal the
///      cumulative radio ledger bit-for-bit (tolerance covers float
///      summation order only), and no obs energy-audit check failed;
///   I5 (corpus aggregate, asserted by the soak test) fenced recall is
///      no worse than the naive protocol's on the same schedules;
///   I6 tamper detection (asserted by the soak test): a deliberately
///      naive run over an adversarial schedule must show non-zero
///      stale/duplicate folds — if breaking the fence is invisible, the
///      soak proves nothing;
///   I7 duplication is answer-invariant under fencing: re-running with
///      every duplication knob zeroed (same seed, same draws — the
///      simulator consumes its three adversary draws regardless) yields
///      bit-identical per-tick answers.
///
/// A violating run serializes to a replayable vector file (module
/// "fault_schedule", case kind "chaos_replay") so CI failures reproduce
/// from the artifact alone.

/// Scripted fault timeline <-> corpus JSON (also used by the golden
/// fault-schedule vectors).
util::Json FaultEventToJson(const net::FaultEvent& e);
Result<net::FaultEvent> FaultEventFromJson(const util::Json& j);
util::Json FaultScheduleToJson(const net::FaultSchedule& s);
Result<net::FaultSchedule> FaultScheduleFromJson(const util::Json& j);

/// Canonical JSON of a FaultInjector's materialized state (dead set, cut
/// set, probability overrides, armed adversarial knobs, counts). The
/// golden timeline vectors store this per step; replay compares the
/// live injector's state against it textually.
util::Json InjectorStateToJson(const net::FaultInjector& injector);

/// One chaos run, fully determined by these knobs: the topology, the
/// fault schedule, the transport rates, the truth series, and the query
/// mix are all pure functions of `seed` and the sizes.
struct ChaosConfig {
  uint64_t seed = 1;
  int num_nodes = 20;
  int epochs = 48;
  /// Queries admitted up front; when >= 2, one more query joins at
  /// epochs/2 to exercise mid-flight admission.
  int num_queries = 2;
  /// Run the deliberately-broken naive protocol instead of fencing (the
  /// tamper-detection arm; never use for real results).
  bool naive = false;
  /// Zero every duplication knob (config rate and scripted events) while
  /// keeping all other draws identical — the I7 comparison arm.
  bool strip_duplicates = false;
};

util::Json ChaosConfigToJson(const ChaosConfig& c);
Result<ChaosConfig> ChaosConfigFromJson(const util::Json& j);

/// The seeded schedule a chaos run injects (pure function of the config
/// and the topology size; `strip_duplicates` only zeroes duplication
/// probabilities after generation, so the event list lines up 1:1).
net::FaultSchedule GenerateChaosSchedule(const ChaosConfig& config,
                                         int num_nodes);

/// Everything a soak needs to judge one run.
struct ChaosReport {
  ChaosConfig config;
  net::FaultSchedule schedule;
  int ticks = 0;
  int rebuilds = 0;
  int replans = 0;
  double recall_sum = 0.0;
  int recall_count = 0;
  /// Final protocol-guard counters (all zero when the engine never
  /// guarded — cannot happen for generated schedules, which always carry
  /// adversarial events).
  core::TransportGuard::Counters guard;
  /// Cumulative radio ledger across every phase and rebuild.
  net::TransmissionStats radio;
  double engine_energy_mj = 0.0;
  /// Per tick, per registered query (admission order): the answer that
  /// epoch (empty on sweep epochs). The I7 arm compares these across
  /// duplication-on/off runs.
  std::vector<std::vector<std::vector<core::Reading>>> answers;
  /// Final per-query health verdicts (admission order), captured before
  /// the engine is torn down so `prospector_obsdump` can render them.
  std::vector<core::QueryHealth> health;
  /// Merged flight-recorder timeline for the whole run. Deterministic:
  /// the recorder is cleared at run start, every event is recorded from
  /// serial code with no wall-clock values, so replaying the same config
  /// reproduces this byte-for-byte (empty when obs is compiled out).
  std::vector<obs::FlightEvent> flight;
  /// Human-readable invariant violations; empty means the run is clean.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  double mean_recall() const {
    return recall_count > 0 ? recall_sum / recall_count : -1.0;
  }
};

/// Runs one seeded chaos schedule end to end and checks invariants
/// I1-I4 (I5-I7 are cross-run properties the soak test asserts).
ChaosReport RunChaos(const ChaosConfig& config);

/// Serializes a run as a replayable vector file: module "fault_schedule",
/// one case of kind "chaos_replay" carrying the config, the materialized
/// schedule (for review), and the violations observed. ReplayVectorFile
/// re-runs the config and fails if any violation reproduces — so a CI
/// artifact is a one-command repro.
util::Json ChaosArtifact(const ChaosReport& report);
Status WriteChaosArtifact(const std::string& path, const ChaosReport& report);

}  // namespace testvec
}  // namespace prospector

#endif  // PROSPECTOR_TESTVEC_CHAOS_H_
