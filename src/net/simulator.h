#ifndef PROSPECTOR_NET_SIMULATOR_H_
#define PROSPECTOR_NET_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "src/net/energy_model.h"
#include "src/net/failure.h"
#include "src/net/fault_injector.h"
#include "src/net/topology.h"
#include "src/obs/obs.h"
#include "src/util/rng.h"

namespace prospector {
namespace net {

/// Aggregate accounting of one or more simulated phases.
struct TransmissionStats {
  double total_energy_mj = 0.0;
  int unicast_messages = 0;
  int broadcast_messages = 0;
  int64_t values_transmitted = 0;  ///< readings on *delivered* messages
  int reroutes = 0;                ///< reliable mode: re-routed messages
  int retries = 0;                 ///< lossy mode: re-transmissions
  int drops = 0;                   ///< messages abandoned after the retry budget
  int64_t values_lost = 0;         ///< readings on dropped messages
  int acquisitions = 0;
  /// --- adversarial transport (tier 3) ---
  int duplicates = 0;  ///< extra delivered copies (retransmit after lost ACK)
  int corrupted = 0;   ///< delivered but mangled; also counted in `drops`
  int delayed = 0;     ///< deferred deliveries; values counted in values_lost

  void Accumulate(const TransmissionStats& other) {
    total_energy_mj += other.total_energy_mj;
    unicast_messages += other.unicast_messages;
    broadcast_messages += other.broadcast_messages;
    values_transmitted += other.values_transmitted;
    reroutes += other.reroutes;
    retries += other.retries;
    drops += other.drops;
    values_lost += other.values_lost;
    acquisitions += other.acquisitions;
    duplicates += other.duplicates;
    corrupted += other.corrupted;
    delayed += other.delayed;
  }
};

/// Transport tier 2 (see DESIGN.md, "Failure semantics"): instead of the
/// paper's always-successful re-routing, a failed transmission is retried
/// up to `max_retries` times — each attempt paying more energy as the
/// backoff lengthens preambles — and then genuinely dropped.
struct LossyTransport {
  bool enabled = false;
  /// Re-transmissions after the first attempt before the message drops.
  int max_retries = 3;
  /// Attempt a (0-based) costs `base * pow(backoff_cost_growth, a)`.
  double backoff_cost_growth = 1.5;

  /// A lossy config must be meaningful, not silently repaired: a negative
  /// retry budget and a shrinking backoff are configuration errors, and
  /// clamping them in TryUnicast would hide the mistake inside a
  /// benchmark average. NetworkSimulator rejects them at set time with
  /// the same fail-loud path as FailureModel::Validate.
  Status Validate() const {
    if (!enabled) return Status::OK();
    if (max_retries < 0) {
      return Status::InvalidArgument(
          "LossyTransport.max_retries is negative: " +
          std::to_string(max_retries));
    }
    if (backoff_cost_growth < 1.0) {
      return Status::InvalidArgument(
          "LossyTransport.backoff_cost_growth < 1.0: " +
          std::to_string(backoff_cost_growth));
    }
    return Status::OK();
  }
};

/// Transport tier 3 (see DESIGN.md, "Failure semantics"): an adversarial
/// radio that not only loses messages but also *duplicates* them (a
/// retransmission after a lost ACK delivers extra copies), *corrupts*
/// payloads in flight, and *delays* deliveries into a later epoch. Rates
/// apply per delivered message on every edge; scripted FaultEvents
/// (kDuplicateEdge / kCorruptEdge / kDelayEdge) override them per edge.
/// Effects are drawn from a dedicated RNG stream, so enabling the
/// adversary never perturbs the loss/re-route draws of the base
/// simulation — and disabling it is bit-identical to the tier-2 world.
struct AdversarialTransport {
  bool enabled = false;
  /// Per delivered message: probability the receiver sees extra copies.
  double duplicate_prob = 0.0;
  /// Extra copies delivered when duplication fires (sender pays each).
  int duplicate_copies = 1;
  /// Per delivered message: probability the payload arrives mangled (the
  /// protocol layer must reject it like a drop).
  double corrupt_prob = 0.0;
  /// Per delivered message: probability delivery is deferred.
  double delay_prob = 0.0;
  /// Epochs a delayed message is deferred by.
  int delay_epochs = 1;

  /// Same fail-loud contract as FailureModel::Validate /
  /// LossyTransport::Validate: rates must be probabilities and the
  /// integer knobs at least 1.
  Status Validate() const {
    if (!enabled) return Status::OK();
    for (double p : {duplicate_prob, corrupt_prob, delay_prob}) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "AdversarialTransport probability out of [0, 1]: " +
            std::to_string(p));
      }
    }
    if (duplicate_copies < 1) {
      return Status::InvalidArgument(
          "AdversarialTransport.duplicate_copies < 1: " +
          std::to_string(duplicate_copies));
    }
    if (delay_epochs < 1) {
      return Status::InvalidArgument(
          "AdversarialTransport.delay_epochs < 1: " +
          std::to_string(delay_epochs));
    }
    return Status::OK();
  }
};

/// Outcome of one transmission attempt sequence.
struct DeliveryResult {
  bool delivered = true;
  double energy_mj = 0.0;
  int attempts = 1;
  /// How many copies the receiver sees (adversarial duplication): 1 for a
  /// normal delivery, 0 when dropped, corrupted, or delayed.
  int delivered_copies = 1;
  /// Delivered but mangled in flight: an intact protocol layer must
  /// reject the payload exactly like a drop.
  bool corrupted = false;
  /// >= 0: the message was transmitted (and charged) now but arrives at
  /// this simulator epoch — stale by construction, which is what the
  /// protocol layer's plan-epoch fencing exists to refuse.
  int delayed_until_epoch = -1;

  /// Did an intact payload arrive in this epoch? The condition every
  /// executor gates insertion on (false for drops, corruption, and
  /// deferred deliveries alike).
  bool arrived_now() const {
    return delivered && !corrupted && delayed_until_epoch < 0;
  }
};

/// Message-level simulator of the network's MAC layer, per Section 5:
/// only communication costs are modeled. Executors call Unicast/Broadcast
/// as their protocol sends messages; the simulator draws transient edge
/// failures, charges re-routing (or, in lossy mode, bounded retries and
/// real drops), consults the fault injector for dead nodes and cut edges,
/// applies the adversarial tier (duplication / corruption / delay), and
/// keeps the energy ledger.
class NetworkSimulator {
 public:
  NetworkSimulator(const Topology* topology, EnergyModel energy,
                   FailureModel failures = {}, uint64_t seed = 1)
      : topology_(topology),
        energy_(energy),
        failures_(failures),
        rng_(seed),
        adv_rng_(seed ^ 0xadec0de5a7e5eedULL) {
    const Status valid = failures_.Validate(topology->num_nodes());
    if (!valid.ok()) {
      // A misconfigured failure model used to degrade into a silently
      // failure-free tail; fail loudly at construction instead.
      std::fprintf(stderr, "NetworkSimulator: %s\n", valid.ToString().c_str());
      std::abort();
    }
  }

  const Topology& topology() const { return *topology_; }
  const EnergyModel& energy_model() const { return energy_; }
  const FailureModel& failure_model() const { return failures_; }

  /// Attaches a scripted fault timeline (not owned; may be nullptr). The
  /// owner advances the injector's clock; the simulator only consults it.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  const FaultInjector* fault_injector() const { return injector_; }

  /// Installs the tier-2 lossy transport. Invalid configs abort, same
  /// fail-loud path as the FailureModel check in the constructor.
  void set_lossy_transport(LossyTransport lossy) {
    const Status valid = lossy.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "NetworkSimulator: %s\n", valid.ToString().c_str());
      std::abort();
    }
    lossy_ = lossy;
  }
  const LossyTransport& lossy_transport() const { return lossy_; }

  /// Installs the tier-3 adversarial transport. Invalid configs abort,
  /// same fail-loud path as the FailureModel check in the constructor.
  void set_adversarial_transport(AdversarialTransport adversarial) {
    const Status valid = adversarial.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "NetworkSimulator: %s\n", valid.ToString().c_str());
      std::abort();
    }
    adversarial_ = adversarial;
  }
  const AdversarialTransport& adversarial_transport() const {
    return adversarial_;
  }

  /// The simulator's epoch clock — what `delayed_until_epoch` is relative
  /// to. The owner advances it alongside the fault injector's clock.
  void set_epoch(int epoch) { epoch_ = epoch; }
  int epoch() const { return epoch_; }

  /// Bytes of fenced protocol header (plan-epoch stamp + sequence number)
  /// the owner's transport guard adds to every unicast. Folded into
  /// ExpectedUnicastCost so planners and sweep costing see the honest
  /// per-message price; 0 when fencing is off (the seed cost model).
  void set_fence_header_bytes(int bytes) { fence_header_bytes_ = bytes; }
  int fence_header_bytes() const { return fence_header_bytes_; }

  bool node_alive(int node) const {
    return injector_ == nullptr || injector_->node_alive(node);
  }
  /// Can a message cross the edge above `child_edge` at all? False when
  /// either endpoint is dead or the edge is partitioned away.
  bool edge_usable(int child_edge) const {
    if (injector_ == nullptr) return true;
    return injector_->node_alive(child_edge) &&
           injector_->node_alive(topology_->parent(child_edge)) &&
           !injector_->edge_cut(child_edge);
  }

  /// Unicast along the tree edge owned by `child_edge`, in either
  /// direction (child->parent collection or parent->child request): the
  /// energy cost is symmetric. `num_values` readings plus `extra_bytes`
  /// protocol payload.
  ///
  /// Reliable mode (lossy disabled): a drawn transient failure re-routes
  /// at `reroute_cost_factor` and the message always arrives — unless the
  /// edge is unusable (dead endpoint / partition), where no protocol can
  /// help: the sender pays one transmission and the message drops.
  ///
  /// Lossy mode: every attempt independently fails with the edge's
  /// failure probability (injector overrides included); after
  /// `max_retries` re-transmissions — each charged with backoff growth —
  /// the message is genuinely dropped.
  ///
  /// Adversarial mode (rates or scripted edge events): a delivered
  /// message may additionally arrive corrupted, arrive in a later epoch,
  /// or arrive in multiple copies (the sender charged per copy, as for
  /// retries). Effects are mutually exclusive with precedence
  /// corrupt > delay > duplicate, and their draws come from a dedicated
  /// RNG stream so the base loss draws are unperturbed.
  DeliveryResult TryUnicast(int child_edge, int num_values,
                            int extra_bytes = 0) {
    const double base = energy_.MessageCostWithExtra(num_values, extra_bytes);
    const bool usable = edge_usable(child_edge);
    DeliveryResult out;

    if (!lossy_.enabled) {
      out.energy_mj = base;
      if (usable && failures_.enabled() &&
          rng_.Bernoulli(EffectiveProbability(child_edge))) {
        out.energy_mj *= failures_.reroute_cost_factor;
        ++stats_.reroutes;
      }
      out.delivered = usable;
    } else {
      const int max_attempts = 1 + lossy_.max_retries;
      const double p = EffectiveProbability(child_edge);
      out.delivered = false;
      out.attempts = 0;
      double attempt_cost = base;
      for (int a = 0; a < max_attempts; ++a) {
        ++out.attempts;
        out.energy_mj += attempt_cost;
        attempt_cost *= lossy_.backoff_cost_growth;
        if (usable && !(p > 0.0 && rng_.Bernoulli(p))) {
          out.delivered = true;
          break;
        }
      }
      stats_.retries += out.attempts - 1;
    }

    int extra_copies = 0;
    if (out.delivered) {
      ApplyAdversary(child_edge, base, &out, &extra_copies);
    } else {
      out.delivered_copies = 0;
    }

    stats_.total_energy_mj += out.energy_mj;
    const int transmissions =
        (lossy_.enabled ? out.attempts : 1) + extra_copies;
    stats_.unicast_messages += transmissions;
    if (!out.delivered) {
      ++stats_.drops;
      stats_.values_lost += num_values;
    } else if (out.corrupted) {
      // Accounted as a drop (the protocol layer must reject the payload),
      // tallied separately so the corruption rate stays observable.
      ++stats_.corrupted;
      ++stats_.drops;
      stats_.values_lost += num_values;
      PROSPECTOR_FLIGHT(kFaultInject, "sim.adversary.corrupt", -1,
                        child_edge, num_values);
    } else if (out.delayed_until_epoch >= 0) {
      // In flight across epochs: lost from this epoch's viewpoint. A
      // fencing protocol refuses the stale arrival; only a broken one
      // folds it in.
      ++stats_.delayed;
      stats_.values_lost += num_values;
      PROSPECTOR_FLIGHT(kFaultInject, "sim.adversary.delay", -1, child_edge,
                        out.delayed_until_epoch);
    } else {
      stats_.values_transmitted += num_values;
      stats_.duplicates += extra_copies;
      if (extra_copies > 0) {
        PROSPECTOR_FLIGHT(kFaultInject, "sim.adversary.duplicate", -1,
                          child_edge, extra_copies);
      }
    }
    return out;
  }

  /// Legacy reliable-delivery entry point: charges like TryUnicast and
  /// returns the energy. Callers that must react to loss (every executor
  /// in lossy/fault-injected runs) use TryUnicast instead.
  double Unicast(int child_edge, int num_values, int extra_bytes = 0) {
    return TryUnicast(child_edge, num_values, extra_bytes).energy_mj;
  }

  /// Empty-body broadcast by `node` (query trigger, Section 2). One
  /// per-message cost regardless of the number of listening children.
  double Broadcast(int node) { return BroadcastPayload(node, 0); }

  /// Broadcast carrying `extra_bytes` of payload (e.g. a mop-up request's
  /// count and range bounds). A dead node cannot key its radio: the
  /// broadcast is suppressed, charged nothing, and accounted as a drop —
  /// it used to charge energy (and, in executors, trigger children) from
  /// beyond the grave.
  double BroadcastPayload(int node, int extra_bytes) {
    if (!node_alive(node)) {
      ++stats_.drops;
      return 0.0;
    }
    const double cost = energy_.BroadcastCost() +
                        energy_.per_byte_mj * static_cast<double>(extra_bytes);
    stats_.total_energy_mj += cost;
    ++stats_.broadcast_messages;
    return cost;
  }

  /// Charges one sensor measurement at a node (Section 4.4); free when
  /// the energy model sets no acquisition cost.
  double ChargeAcquisition(int /*node*/) {
    const double cost = energy_.acquisition_mj;
    if (cost > 0.0) {
      stats_.total_energy_mj += cost;
      ++stats_.acquisitions;
    }
    return cost;
  }

  /// Expected cost of sending `num_values` readings along `child_edge`,
  /// failure inflation included — the figure planners use (Section 4.4:
  /// "increase the cost of each edge by the product of its failure
  /// probability and the extra cost incurred by re-routing"). Fenced
  /// header bytes, when enabled, ride every message and are costed here
  /// so plans are priced honestly.
  double ExpectedUnicastCost(int child_edge, int num_values) const {
    return energy_.MessageCostWithExtra(num_values, fence_header_bytes_) *
           failures_.ExpectedCostFactor(child_edge);
  }

  const TransmissionStats& stats() const { return stats_; }

  /// Clears the ledger (e.g. between the distribution accounting and the
  /// collection phase, or between query epochs).
  void ResetStats() { stats_ = TransmissionStats{}; }

  /// Takes the current ledger and resets it — convenient for per-phase
  /// breakdowns.
  TransmissionStats TakeStats() { return std::exchange(stats_, {}); }

 private:
  double EffectiveProbability(int child_edge) const {
    const double base = failures_.ProbabilityFor(child_edge);
    return injector_ == nullptr ? base
                                : injector_->EdgeProbability(child_edge, base);
  }

  /// Draws the adversarial outcome for one delivered message. Exactly
  /// three Bernoulli draws are consumed whenever the adversary is active
  /// for the edge — regardless of which effects fire — so toggling one
  /// knob's probability never desynchronizes the stream (what lets the
  /// chaos harness assert duplication-on/off answer bit-identity).
  void ApplyAdversary(int child_edge, double base_cost, DeliveryResult* out,
                      int* extra_copies) {
    static const EdgeAdversary kNone;
    const EdgeAdversary& over =
        injector_ != nullptr ? injector_->adversary(child_edge) : kNone;
    if (!adversarial_.enabled && !over.any()) return;

    const double corrupt_p = over.has_corrupt
                                 ? over.corrupt_prob
                                 : (adversarial_.enabled
                                        ? adversarial_.corrupt_prob
                                        : 0.0);
    const double delay_p =
        over.has_delay ? over.delay_prob
                       : (adversarial_.enabled ? adversarial_.delay_prob
                                               : 0.0);
    const double dup_p = over.has_duplicate
                             ? over.duplicate_prob
                             : (adversarial_.enabled
                                    ? adversarial_.duplicate_prob
                                    : 0.0);
    const bool corrupt = adv_rng_.Bernoulli(corrupt_p);
    const bool delay = adv_rng_.Bernoulli(delay_p);
    const bool duplicate = adv_rng_.Bernoulli(dup_p);
    if (corrupt) {
      out->corrupted = true;
      out->delivered_copies = 0;
      return;
    }
    if (delay) {
      const int d = over.has_delay ? over.delay_epochs
                                   : std::max(1, adversarial_.delay_epochs);
      out->delayed_until_epoch = epoch_ + d;
      out->delivered_copies = 0;
      return;
    }
    if (duplicate) {
      const int copies = over.has_duplicate
                             ? over.duplicate_copies
                             : std::max(1, adversarial_.duplicate_copies);
      *extra_copies = copies;
      out->delivered_copies = 1 + copies;
      // A duplicate is a re-transmission after a lost ACK: the sender
      // pays the base message cost once per extra copy, as for retries.
      out->energy_mj += base_cost * static_cast<double>(copies);
    }
  }

  const Topology* topology_;
  EnergyModel energy_;
  FailureModel failures_;
  Rng rng_;
  Rng adv_rng_;  ///< dedicated stream: the adversary never skews loss draws
  FaultInjector* injector_ = nullptr;  // not owned
  LossyTransport lossy_;
  AdversarialTransport adversarial_;
  TransmissionStats stats_;
  int epoch_ = 0;
  int fence_header_bytes_ = 0;
};

}  // namespace net
}  // namespace prospector

#endif  // PROSPECTOR_NET_SIMULATOR_H_
