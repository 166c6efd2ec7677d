#ifndef PROSPECTOR_TESTVEC_REPLAY_H_
#define PROSPECTOR_TESTVEC_REPLAY_H_

#include <string>

#include "src/core/plan_wire.h"
#include "src/testvec/testvec.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace prospector {
namespace testvec {

/// Replays the golden test-vector corpus against the live implementation.
/// Each vector file declares a "module" — plan_wire, lp, or superplan —
/// and a list of cases; a replay failure names the file, case, and first
/// violated expectation. The harness is the CI tripwire that makes the
/// wire protocol and solver outputs regression-proof: any change to the
/// encoders, the simplex, or the merge logic that shifts observable bytes
/// or optima trips a vector before it ships.
///
/// Case schemas (see DESIGN.md "Wire format & golden vectors"):
///   plan_wire/roundtrip:    subplan + wire_hex + wire_version; encode
///                           must produce exactly wire_hex and decode
///                           must invert it.
///   plan_wire/decode_error: wire_hex + error_code (+ error_substr);
///                           decode must fail with that StatusCode.
///   plan_wire/encode_error: subplan + error_code; encode must refuse.
///   lp/solve:               model + solution; the stored certificate
///                           must pass VerifyKkt against the model, and a
///                           fresh simplex solve must reproduce status +
///                           objective (within objective_tol) with its
///                           own valid certificate.
///   superplan/merge:        parents + plans (+ query_ids, truth);
///                           MergePlans must reproduce merged_k and
///                           merged_bandwidth, every listed node subplan
///                           must encode to its wire_hex and decode back,
///                           and (when truth is present) the loss-free
///                           demuxed per-query answers must equal the
///                           vector's — which the generator certified
///                           bit-identical to standalone execution.
///   fault_schedule/timeline:     num_nodes + schedule + steps; each step
///                           advances the injector's clock (or remaps it
///                           across a rebuild) and compares the
///                           materialized fault state against a golden
///                           snapshot.
///   fault_schedule/chaos_replay: config (+ schedule, violations); the
///                           chaos harness re-runs the config and fails
///                           if any soak invariant violation reproduces —
///                           the persisted form of a failing schedule.

/// Serializes a subplan for the corpus / parses one back.
util::Json SubplanToJson(const core::Subplan& subplan);
Result<core::Subplan> SubplanFromJson(const util::Json& j);

/// Replays one case of the given module. OK when every expectation holds.
Status ReplayPlanWireCase(const util::Json& c);
Status ReplayLpCase(const util::Json& c);
Status ReplaySuperplanCase(const util::Json& c);
Status ReplayFaultScheduleCase(const util::Json& c);

/// Totals from a corpus replay.
struct ReplayStats {
  int files = 0;
  int cases = 0;
};

/// Replays every case of one vector file (dispatching on its module) or
/// of every *.json file in a directory. Returns the first failure,
/// prefixed with "<file>: case '<name>':". Stats (optional) accumulate.
Status ReplayVectorFile(const std::string& path, ReplayStats* stats);
Status ReplayCorpus(const std::string& dir, ReplayStats* stats);

}  // namespace testvec
}  // namespace prospector

#endif  // PROSPECTOR_TESTVEC_REPLAY_H_
