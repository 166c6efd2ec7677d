#include "src/core/executor.h"

#include <algorithm>

#include "src/obs/obs.h"

namespace prospector {
namespace core {

void InitLinkEvidence(int num_nodes, ExecutionResult* result) {
  result->edge_expected.assign(num_nodes, 0);
  result->edge_delivered.assign(num_nodes, 0);
}

ExecutionResult CollectionExecutor::Execute(const QueryPlan& plan,
                                            const std::vector<double>& truth,
                                            net::NetworkSimulator* sim,
                                            bool include_trigger,
                                            TransportGuard* guard) {
  PROSPECTOR_SPAN("exec.collect");
  const net::Topology& topo = sim->topology();
  const int n = topo.num_nodes();
  // The audit oracle: everything this executor charges also lands on the
  // simulator's independent ledger, so the two deltas must agree exactly.
  [[maybe_unused]] const double ledger_before_mj =
      sim->stats().total_energy_mj;

  // Clamp effective bandwidth by the path to the root before spending any
  // energy: in an inconsistent plan (child bandwidth > 0 beneath an edge
  // that carries nothing) the children would otherwise pay acquisition and
  // Unicast energy for readings their ancestor must drop. Normalize() is
  // idempotent, so plans from the planners pass through unchanged.
  QueryPlan normalized = plan;
  normalized.Normalize(topo);
  const QueryPlan& p = normalized;

  ExecutionResult result;
  InitLinkEvidence(n, &result);
  if (include_trigger) {
    result.trigger_energy_mj = ChargeTriggerCost(p, sim);
  }

  std::vector<char> attempted(n, 0);
  std::vector<std::vector<Reading>> inbox(topo.num_nodes());
  double collection = 0.0;
  for (int u : topo.PostOrder()) {
    if (u == topo.root()) continue;
    if (guard != nullptr) {
      // Deferred messages from edge u landing this epoch. Fencing refuses
      // them inside DrainArrivals (always stale); only the naive protocol
      // gets payloads back and folds them — the silent-wrongness the
      // chaos soak's tamper-detection run demonstrates.
      for (DelayedMessage& m :
           guard->DrainArrivals(GuardChannel::kCollect, u)) {
        std::vector<Reading>& up = inbox[topo.parent(u)];
        for (const std::vector<Reading>& flow : m.flows) {
          up.insert(up.end(), flow.begin(), flow.end());
        }
      }
    }
    // "Expected" is what the watchdog may hold the node to: traffic the
    // plan says must *originate* at u. A pure relay (node-selection mode,
    // not chosen) whose chosen descendants went dark legitimately sends
    // nothing, so only its actual attempts count as evidence.
    const bool originates =
        p.kind == PlanKind::kBandwidth ? p.bandwidth[u] > 0 : p.chosen[u];
    std::vector<Reading>& mine = inbox[u];
    std::vector<Reading> outgoing;
    if (!sim->node_alive(u)) {
      // A dead node acquires nothing and forwards nothing; whatever its
      // children delivered to it is lost with it.
      result.edge_expected[u] = originates || !mine.empty();
      result.values_lost += static_cast<int>(mine.size());
      if (!mine.empty()) result.degraded = true;
      continue;
    }
    if (p.kind == PlanKind::kBandwidth) {
      if (p.bandwidth[u] <= 0) continue;
      // Local filtering: own reading plus children's lists, keep top-b.
      collection += sim->ChargeAcquisition(u);
      mine.push_back({u, truth[u]});
      SortReadings(&mine);
      if (static_cast<int>(mine.size()) > p.bandwidth[u]) {
        mine.resize(p.bandwidth[u]);
      }
      outgoing = std::move(mine);
    } else {
      // Node selection: forward everything; no filtering.
      if (p.chosen[u]) {
        collection += sim->ChargeAcquisition(u);
        mine.push_back({u, truth[u]});
      }
      if (mine.empty()) {
        result.edge_expected[u] = originates;
        continue;
      }
      outgoing = std::move(mine);
    }
    attempted[u] = 1;
    result.edge_expected[u] = 1;
    const FencedHeader header =
        guard != nullptr ? guard->Stamp(u) : FencedHeader{};
    const net::DeliveryResult sent =
        sim->TryUnicast(u, static_cast<int>(outgoing.size()),
                        guard != nullptr ? guard->header_bytes() : 0);
    collection += sent.energy_mj;
    int copies = sent.arrived_now() ? 1 : 0;
    if (guard != nullptr) {
      if (sent.delivered && !sent.corrupted && sent.delayed_until_epoch >= 0) {
        DelayedMessage parked;
        parked.channel = GuardChannel::kCollect;
        parked.child_edge = u;
        parked.arrival_epoch = sent.delayed_until_epoch;
        parked.header = header;
        parked.flows.push_back(outgoing);
        guard->Defer(std::move(parked));
        copies = 0;
      } else {
        copies = guard->AdmitCopies(sent, header, u);
      }
    }
    if (copies > 0) {
      result.edge_delivered[u] = 1;
      std::vector<Reading>& up = inbox[topo.parent(u)];
      for (int rep = 0; rep < copies; ++rep) {
        up.insert(up.end(), outgoing.begin(), outgoing.end());
      }
    } else {
      if (sent.delivered && !sent.corrupted &&
          sent.delayed_until_epoch >= 0) {
        ++result.messages_deferred;
      } else {
        ++result.messages_dropped;
      }
      result.values_lost += static_cast<int>(outgoing.size());
      result.degraded = true;
    }
  }
  result.collection_energy_mj = collection;

  result.arrived = std::move(inbox[topo.root()]);
  result.arrived.push_back({topo.root(), truth[topo.root()]});
  SortReadings(&result.arrived);
  result.answer = result.arrived;
  if (static_cast<int>(result.answer.size()) > p.k) {
    result.answer.resize(p.k);
  }

  PROSPECTOR_AUDIT_ENERGY("executor.collect", result.total_energy_mj(),
                          sim->stats().total_energy_mj - ledger_before_mj);
  PROSPECTOR_COUNTER_ADD("exec.collect.runs", 1);
  PROSPECTOR_COUNTER_ADD("exec.collect.values_lost", result.values_lost);
  PROSPECTOR_COUNTER_ADD("exec.collect.messages_dropped",
                         result.messages_dropped);
  if (result.degraded) {
    PROSPECTOR_FLIGHT(kNote, "exec.collect.degraded", -1, result.values_lost,
                      result.messages_dropped);
  }
  return result;
}

double TopKRecall(const ExecutionResult& result,
                  const std::vector<double>& truth, int k) {
  return TopKRecall(result.answer, truth, k);
}

double TopKRecall(const std::vector<Reading>& answer,
                  const std::vector<double>& truth, int k) {
  if (k <= 0) return 1.0;
  const std::vector<Reading> expected = TrueTopK(truth, k);
  std::vector<char> in_answer(truth.size(), 0);
  for (const Reading& r : answer) in_answer[r.node] = 1;
  int hit = 0;
  for (const Reading& r : expected) hit += in_answer[r.node];
  return static_cast<double>(hit) /
         static_cast<double>(std::min<size_t>(k, truth.size()));
}

}  // namespace core
}  // namespace prospector
