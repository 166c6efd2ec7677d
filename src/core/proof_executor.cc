#include "src/core/proof_executor.h"

#include <algorithm>
#include <limits>

#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

// Strictly-between range predicate under the ranking order.
bool InRange(const Reading& r, const Reading& lo, const Reading& hi) {
  return ReadingRanksHigher(r, lo) && ReadingRanksHigher(hi, r);
}

// Bytes of a mop-up request payload: count + two range bounds.
constexpr int kMopUpRequestBytes = 12;

}  // namespace

Reading MinusInfinityReading() {
  return {std::numeric_limits<int>::max(),
          -std::numeric_limits<double>::infinity()};
}

Reading PlusInfinityReading() {
  return {-1, std::numeric_limits<double>::infinity()};
}

ExecutionResult ProofExecutor::ExecutePhase1(const std::vector<double>& truth,
                                             bool include_trigger) {
  PROSPECTOR_SPAN("exec.proof.phase1");
  const net::Topology& topo = sim_->topology();
  const int n = topo.num_nodes();
  [[maybe_unused]] const double ledger_before_mj =
      sim_->stats().total_energy_mj;
  ExecutionResult result;
  if (include_trigger) {
    result.trigger_energy_mj = ChargeTriggerCost(*plan_, sim_);
  }

  retrieved_.assign(n, {});
  proven_count_.assign(n, 0);
  sent_count_.assign(n, 0);
  sent_proven_.assign(n, 0);
  worst_proven_sent_.assign(n, Reading{});
  degraded_ = false;
  mopup_drops_ = 0;
  mopup_values_lost_ = 0;
  mopup_values_moved_ = 0;
  mopup_requests_ = 0;
  InitLinkEvidence(n, &result);
  std::vector<std::vector<Reading>> sent(n);   // what each node passed up
  // Stale payloads the naive protocol folds at the parent (deferred
  // messages landing this epoch); always empty under fencing.
  std::vector<std::vector<Reading>> stale_in(n);
  std::vector<int>& sent_proven = sent_proven_;

  double collection = 0.0;
  for (int u : topo.PostOrder()) {
    const bool is_root = u == topo.root();
    if (!is_root && guard_ != nullptr) {
      for (DelayedMessage& m :
           guard_->DrainArrivals(GuardChannel::kProof, u)) {
        for (const std::vector<Reading>& flow : m.flows) {
          stale_in[u].insert(stale_in[u].end(), flow.begin(), flow.end());
        }
      }
    }
    if (!is_root && !sim_->node_alive(u)) {
      // A dead node takes no reading and forwards nothing. Proof plans
      // visit every node (bandwidth >= 1), so its silence is watchdog
      // evidence. Its children's deliveries already failed at their own
      // TryUnicast (the shared edge endpoint is down).
      result.edge_expected[u] = 1;
      result.degraded = true;
      continue;
    }
    // Step 1+2: own reading plus children's lists, sorted best-first.
    std::vector<Reading>& mem = retrieved_[u];
    if (!is_root) collection += sim_->ChargeAcquisition(u);
    mem.push_back({u, truth[u]});
    for (int c : topo.children(u)) {
      mem.insert(mem.end(), sent[c].begin(), sent[c].end());
      // Naive protocol only: stale deferred payloads fold in as if fresh
      // (they carry no proven evidence, but they do pollute the answer).
      mem.insert(mem.end(), stale_in[c].begin(), stale_in[c].end());
    }
    SortReadings(&mem);

    const int budget =
        is_root ? static_cast<int>(mem.size()) : plan_->bandwidth[u];
    const int out_count = std::min<int>(budget, static_cast<int>(mem.size()));

    // Step 3: prove the longest prefix of the outgoing list. A value x is
    // proven iff every child c certifies it: (c.1) x is one of c's proven
    // values, (c.2) c proved some value ranking below x, or (c.3) c
    // returned its entire subtree.
    int proven = 0;
    for (; proven < out_count; ++proven) {
      const Reading& x = mem[proven];
      bool ok = true;
      for (int c : topo.children(u)) {
        const std::vector<Reading>& lc = sent[c];
        const int tc = sent_proven[c];
        if (static_cast<int>(lc.size()) == topo.subtree_size(c)) {
          continue;  // (c.3): everything below c is visible
        }
        if (topo.IsAncestorOf(c, x.node)) {
          // (c.1): x must be within c's proven prefix.
          bool found = false;
          for (int r = 0; r < tc; ++r) {
            if (lc[r].node == x.node) {
              found = true;
              break;
            }
          }
          if (!found) ok = false;
        } else {
          // (c.2): c's worst proven value must rank below x.
          if (tc == 0 || !ReadingRanksHigher(x, lc[tc - 1])) ok = false;
        }
        if (!ok) break;
      }
      if (!ok) break;
    }
    proven_count_[u] = proven;

    if (is_root) break;

    // Step 4: pass the top-bandwidth values up, with the proven count
    // appended when it is informative (Section 4.3's byte optimization).
    sent[u].assign(mem.begin(), mem.begin() + out_count);
    sent_proven[u] = proven;
    sent_count_[u] = out_count;
    if (proven > 0) worst_proven_sent_[u] = mem[proven - 1];
    const int extra = proven < out_count ? 1 : 0;
    result.edge_expected[u] = 1;
    const FencedHeader header =
        guard_ != nullptr ? guard_->Stamp(u) : FencedHeader{};
    const int hdr = guard_ != nullptr ? guard_->header_bytes() : 0;
    const net::DeliveryResult up = sim_->TryUnicast(u, out_count, extra + hdr);
    collection += up.energy_mj;
    int copies = up.arrived_now() ? 1 : 0;
    const bool deferred =
        up.delivered && !up.corrupted && up.delayed_until_epoch >= 0;
    if (guard_ != nullptr) {
      if (deferred) {
        DelayedMessage parked;
        parked.channel = GuardChannel::kProof;
        parked.child_edge = u;
        parked.arrival_epoch = up.delayed_until_epoch;
        parked.header = header;
        parked.flows.push_back(sent[u]);
        parked.aux = proven;
        guard_->Defer(std::move(parked));
        copies = 0;
      } else {
        copies = guard_->AdmitCopies(up, header, u);
      }
    }
    if (copies > 0) {
      result.edge_delivered[u] = 1;
      // Naive duplicates fold the list again: the parent's (c.3) check
      // (|list| == subtree size) can now falsely certify — exactly the
      // overclaimed proof the fence exists to prevent.
      if (copies > 1) {
        const std::vector<Reading> once(sent[u].begin(),
                                        sent[u].begin() + out_count);
        for (int rep = 1; rep < copies; ++rep) {
          sent[u].insert(sent[u].end(), once.begin(), once.end());
        }
      }
    } else {
      // The parent hears nothing: from its viewpoint this child sent an
      // empty list with zero proven values, so conditions (c.1)-(c.3)
      // under-claim above it. Local memory stays intact for mop-up.
      sent[u].clear();
      sent_proven[u] = 0;
      sent_count_[u] = 0;
      if (deferred) {
        ++result.messages_deferred;
      } else {
        ++result.messages_dropped;
      }
      result.values_lost += out_count;
      result.degraded = true;
    }
  }

  result.collection_energy_mj = collection;
  result.arrived = retrieved_[topo.root()];
  result.answer = result.arrived;
  if (static_cast<int>(result.answer.size()) > plan_->k) {
    result.answer.resize(plan_->k);
  }
  result.proven_count =
      std::min<int>(proven_count_[topo.root()],
                    static_cast<int>(result.answer.size()));
  degraded_ = degraded_ || result.degraded;
  phase1_done_ = true;
  PROSPECTOR_AUDIT_ENERGY("executor.proof_phase1", result.total_energy_mj(),
                          sim_->stats().total_energy_mj - ledger_before_mj);
  PROSPECTOR_COUNTER_ADD("exec.proof.phase1_runs", 1);
  return result;
}

bool ProofExecutor::SendMopUpReply(int c,
                                   const std::vector<Reading>& readings,
                                   std::vector<Reading>* fetched) {
  mopup_values_moved_ += static_cast<int>(readings.size());
  const FencedHeader header =
      guard_ != nullptr ? guard_->Stamp(c) : FencedHeader{};
  const int hdr = guard_ != nullptr ? guard_->header_bytes() : 0;
  const net::DeliveryResult up =
      sim_->TryUnicast(c, static_cast<int>(readings.size()), hdr);
  int copies = up.arrived_now() ? 1 : 0;
  if (guard_ != nullptr) {
    if (up.delivered && !up.corrupted && up.delayed_until_epoch >= 0) {
      DelayedMessage parked;
      parked.channel = GuardChannel::kProof;
      parked.child_edge = c;
      parked.arrival_epoch = up.delayed_until_epoch;
      parked.header = header;
      parked.flows.push_back(readings);
      guard_->Defer(std::move(parked));
      copies = 0;
    } else {
      copies = guard_->AdmitCopies(up, header, c);
    }
  }
  if (copies == 0) {
    ++mopup_drops_;
    mopup_values_lost_ += static_cast<int>(readings.size());
    degraded_ = true;
    return false;
  }
  // Naive duplicates append again; the caller's by-node-id merge absorbs
  // them (mop-up was already idempotent there).
  for (int rep = 0; rep < copies; ++rep) {
    fetched->insert(fetched->end(), readings.begin(), readings.end());
  }
  return true;
}

ProofExecutor::MopUpReply ProofExecutor::MopUpAtNode(int u, int t,
                                                     const Reading& lo,
                                                     const Reading& hi) {
  const net::Topology& topo = sim_->topology();
  std::vector<Reading>& mem = retrieved_[u];  // sorted best-first

  // Narrow the request: proven in-range values are already in memory.
  int served = 0;
  for (int r = 0; r < proven_count_[u]; ++r) {
    if (InRange(mem[r], lo, hi)) ++served;
  }
  const int t_prime = t - served;

  if (t_prime > 0 && !topo.children(u).empty()) {
    // lo': the t'-th best unproven retrieved reading in range — anything a
    // child could still contribute to the top t must outrank it.
    Reading lo_prime = lo;
    int unproven_in_range = 0;
    for (size_t r = proven_count_[u]; r < mem.size(); ++r) {
      if (InRange(mem[r], lo, hi)) {
        ++unproven_in_range;
        if (unproven_in_range == t_prime) {
          lo_prime = mem[r];
          break;
        }
      }
    }
    // hi': every subtree value outranking the worst proven one is already
    // proven and retrieved.
    Reading hi_prime = hi;
    if (proven_count_[u] > 0 &&
        ReadingRanksHigher(hi_prime, mem[proven_count_[u] - 1])) {
      hi_prime = mem[proven_count_[u] - 1];
    }

    if (ReadingRanksHigher(hi_prime, lo_prime)) {
      std::vector<Reading> fetched;
      if (mode_ == MopUpMode::kBroadcast) {
        sim_->BroadcastPayload(u, kMopUpRequestBytes);
        ++mopup_requests_;
        for (int c : topo.children(u)) {
          // A dead or partitioned child never hears the broadcast.
          if (!sim_->edge_usable(c)) {
            degraded_ = true;
            continue;
          }
          MopUpReply reply = MopUpAtNode(c, t_prime, lo_prime, hi_prime);
          SendMopUpReply(c, reply.readings, &fetched);
        }
      } else {
        for (int c : topo.children(u)) {
          if (!sim_->edge_usable(c)) {
            degraded_ = true;
            continue;
          }
          // A child that transmitted its whole subtree in phase 1 has
          // nothing left to reveal.
          if (sent_count_[c] == topo.subtree_size(c)) continue;
          // By Lemma 1, anything in c's subtree ranking above c's worst
          // proven transmitted value was itself proven and transmitted;
          // tighten this child's upper bound accordingly.
          Reading hi_c = hi_prime;
          if (sent_proven_[c] > 0 &&
              ReadingRanksHigher(hi_c, worst_proven_sent_[c])) {
            hi_c = worst_proven_sent_[c];
          }
          if (!ReadingRanksHigher(hi_c, lo_prime)) continue;  // empty range
          // Tailored request down; a lost, corrupted, or deferred request
          // means the child never answers this round (requests are not
          // parked — a stale request would be fenced at the child anyway).
          const FencedHeader req_header =
              guard_ != nullptr ? guard_->Stamp(c) : FencedHeader{};
          const int hdr = guard_ != nullptr ? guard_->header_bytes() : 0;
          const net::DeliveryResult req =
              sim_->TryUnicast(c, 0, kMopUpRequestBytes + hdr);
          ++mopup_requests_;
          const bool heard = guard_ != nullptr
                                 ? guard_->AdmitCopies(req, req_header, c) > 0
                                 : req.arrived_now();
          if (!heard) {
            ++mopup_drops_;
            degraded_ = true;
            continue;
          }
          MopUpReply reply = MopUpAtNode(c, t_prime, lo_prime, hi_c);
          SendMopUpReply(c, reply.readings, &fetched);
        }
      }
      // Merge, deduplicating by node id (proven values a child re-serves
      // from memory may already be here).
      std::vector<char> have(topo.num_nodes(), 0);
      for (const Reading& r : mem) have[r.node] = 1;
      for (const Reading& r : fetched) {
        if (!have[r.node]) {
          have[r.node] = 1;
          mem.push_back(r);
        }
      }
      SortReadings(&mem);
    }
  }

  MopUpReply reply;
  for (const Reading& r : mem) {
    if (static_cast<int>(reply.readings.size()) >= t) break;
    if (InRange(r, lo, hi)) reply.readings.push_back(r);
  }
  return reply;
}

ExecutionResult ProofExecutor::ExecuteMopUp() {
  PROSPECTOR_SPAN("exec.proof.mopup");
  ExecutionResult result;
  if (!phase1_done_) return result;
  mopup_values_moved_ = 0;
  mopup_requests_ = 0;
  const net::Topology& topo = sim_->topology();
  const double energy_before = sim_->stats().total_energy_mj;

  MopUpAtNode(topo.root(), plan_->k, MinusInfinityReading(),
              PlusInfinityReading());

  result.collection_energy_mj = sim_->stats().total_energy_mj - energy_before;
  result.arrived = retrieved_[topo.root()];
  result.answer = result.arrived;
  if (static_cast<int>(result.answer.size()) > plan_->k) {
    result.answer.resize(plan_->k);
  }
  result.messages_dropped = mopup_drops_;
  result.values_lost = mopup_values_lost_;
  result.degraded = degraded_;
  if (degraded_) {
    // Losses void the exactness claim; fall back to the phase-1 root
    // certificate, which mop-up merges can only extend, never invalidate
    // (a proven prefix is the true global top — nothing fetched later can
    // outrank it).
    result.proven_count =
        std::min<int>(proven_count_[topo.root()],
                      static_cast<int>(result.answer.size()));
  } else {
    result.proven_count = static_cast<int>(result.answer.size());
  }
  PROSPECTOR_COUNTER_ADD("exec.mopup.runs", 1);
  PROSPECTOR_COUNTER_ADD("exec.mopup.requests", mopup_requests_);
  PROSPECTOR_COUNTER_ADD("exec.mopup.values_moved", mopup_values_moved_);
  PROSPECTOR_COUNTER_ADD("exec.mopup.values_lost", mopup_values_lost_);
  if (degraded_) {
    PROSPECTOR_FLIGHT(kNote, "exec.proof.degraded", -1, mopup_values_lost_,
                      result.proven_count);
  }
  return result;
}

}  // namespace core
}  // namespace prospector
