#include "src/core/plan_merge.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/obs/obs.h"

namespace prospector {
namespace core {
namespace {

bool PlanAcquiresAt(const QueryPlan& plan, int node) {
  if (plan.kind == PlanKind::kBandwidth) return plan.bandwidth[node] > 0;
  return node < static_cast<int>(plan.chosen.size()) && plan.chosen[node];
}

}  // namespace

Superplan MergePlans(std::vector<QueryPlan> plans,
                     const net::Topology& topology,
                     std::vector<int> query_ids) {
  const int n = topology.num_nodes();
  Superplan sp;
  if (query_ids.empty()) {
    query_ids.resize(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      query_ids[i] = static_cast<int>(i);
    }
  }
  if (query_ids.size() != plans.size()) {
    std::fprintf(stderr, "MergePlans: %zu ids for %zu plans\n",
                 query_ids.size(), plans.size());
    std::abort();
  }
  sp.query_ids = std::move(query_ids);
  sp.plans = std::move(plans);

  sp.merged.kind = PlanKind::kBandwidth;
  sp.merged.k = 0;
  sp.merged.bandwidth.assign(n, 0);
  for (QueryPlan& p : sp.plans) {
    p.Normalize(topology);
    sp.merged.k = std::max(sp.merged.k, p.k);
    for (int u = 0; u < n; ++u) {
      sp.merged.bandwidth[u] = std::max(sp.merged.bandwidth[u],
                                        p.bandwidth[u]);
    }
  }
  // Each constituent is normalized, so the pointwise max already is; this
  // is a cheap idempotent guard.
  sp.merged.Normalize(topology);
  return sp;
}

SuperplanResult SuperplanExecutor::Execute(const Superplan& superplan,
                                           const std::vector<double>& truth,
                                           net::NetworkSimulator* sim,
                                           bool include_trigger,
                                           TransportGuard* guard) {
  PROSPECTOR_SPAN("exec.superplan");
  const net::Topology& topo = sim->topology();
  const int n = topo.num_nodes();
  const int num_queries = superplan.num_queries();
  const net::EnergyModel& em = sim->energy_model();
  [[maybe_unused]] const double ledger_before_mj =
      sim->stats().total_energy_mj;

  SuperplanResult out;
  out.per_query.resize(num_queries);
  out.attributed_mj.assign(num_queries, 0.0);
  // Attribution accumulates in per-phase pools mirroring the audited
  // accumulators (trigger_energy_mj / collection_energy_mj), so a query
  // that rides alone sums the identical terms in the identical order and
  // its share equals the audited total bit-for-bit.
  std::vector<double> trigger_attr(num_queries, 0.0);
  std::vector<double> collect_attr(num_queries, 0.0);
  for (ExecutionResult& r : out.per_query) InitLinkEvidence(n, &r);
  out.edge_expected.assign(n, 0);
  out.edge_delivered.assign(n, 0);

  // One trigger wave serves everyone: broadcast where the *merged* plan
  // has a used child edge (same skip-dead semantics as ChargeTriggerCost),
  // splitting each broadcast among the queries triggered below it.
  if (include_trigger) {
    for (int u : topo.PreOrder()) {
      if (!sim->node_alive(u)) continue;
      bool merged_uses = false;
      for (int c : topo.children(u)) {
        if (superplan.merged.UsesEdge(c)) {
          merged_uses = true;
          break;
        }
      }
      if (!merged_uses) continue;
      const double cost = sim->Broadcast(u);
      out.trigger_energy_mj += cost;
      std::vector<int> sharers;
      for (int q = 0; q < num_queries; ++q) {
        for (int c : topo.children(u)) {
          if (superplan.plans[q].UsesEdge(c)) {
            sharers.push_back(q);
            break;
          }
        }
      }
      for (int q : sharers) {
        trigger_attr[q] += cost / static_cast<double>(sharers.size());
      }
    }
  }

  // Collection: every query's plan runs as a logical flow (its own
  // inbox/outbox per node, CollectionExecutor semantics), while each edge
  // carries the by-node-id union of the outboxes in one message.
  std::vector<std::vector<std::vector<Reading>>> inbox(
      num_queries, std::vector<std::vector<Reading>>(n));
  std::vector<char> seen(n, 0);
  double collection = 0.0;
  for (int u : topo.PostOrder()) {
    if (u == topo.root()) continue;

    if (guard != nullptr) {
      // Deferred union messages from edge u landing this epoch. Fencing
      // refuses them inside DrainArrivals; the naive protocol folds each
      // parked flow into its query's inbox at the parent, matched by
      // stable query id (queries retired since the send are dropped).
      for (DelayedMessage& m :
           guard->DrainArrivals(GuardChannel::kSuperplan, u)) {
        for (size_t f = 0; f < m.flows.size(); ++f) {
          for (int q = 0; q < num_queries; ++q) {
            if (superplan.query_ids[q] != m.flow_ids[f]) continue;
            std::vector<Reading>& up = inbox[q][topo.parent(u)];
            up.insert(up.end(), m.flows[f].begin(), m.flows[f].end());
            break;
          }
        }
      }
    }

    if (!sim->node_alive(u)) {
      // A dead node acquires nothing and forwards nothing; whatever any
      // query's flow had delivered to it is lost with it.
      int union_lost = 0;
      std::vector<int> lost_nodes;
      for (int q = 0; q < num_queries; ++q) {
        const QueryPlan& p = superplan.plans[q];
        ExecutionResult& r = out.per_query[q];
        std::vector<Reading>& mine = inbox[q][u];
        const bool originates = PlanAcquiresAt(p, u);
        r.edge_expected[u] = originates || !mine.empty();
        r.values_lost += static_cast<int>(mine.size());
        if (!mine.empty()) r.degraded = true;
        if (r.edge_expected[u]) out.edge_expected[u] = 1;
        for (const Reading& rd : mine) {
          if (!seen[rd.node]) {
            seen[rd.node] = 1;
            lost_nodes.push_back(rd.node);
            ++union_lost;
          }
        }
      }
      for (int v : lost_nodes) seen[v] = 0;
      out.values_lost += union_lost;
      if (union_lost > 0) out.degraded = true;
      continue;
    }

    // Acquisition: the node measures once however many queries ask.
    std::vector<int> acquirers;
    for (int q = 0; q < num_queries; ++q) {
      if (PlanAcquiresAt(superplan.plans[q], u)) acquirers.push_back(q);
    }
    if (!acquirers.empty()) {
      const double cost = sim->ChargeAcquisition(u);
      collection += cost;
      for (int q : acquirers) {
        collect_attr[q] += cost / static_cast<double>(acquirers.size());
      }
    }

    // Per-query outboxes under each query's own filtering rule.
    std::vector<std::vector<Reading>> outbox(num_queries);
    for (int q = 0; q < num_queries; ++q) {
      const QueryPlan& p = superplan.plans[q];
      std::vector<Reading>& mine = inbox[q][u];
      if (p.kind == PlanKind::kBandwidth) {
        if (p.bandwidth[u] <= 0) continue;
        mine.push_back({u, truth[u]});
        SortReadings(&mine);
        if (static_cast<int>(mine.size()) > p.bandwidth[u]) {
          mine.resize(p.bandwidth[u]);
        }
        outbox[q] = std::move(mine);
      } else {
        if (u < static_cast<int>(p.chosen.size()) && p.chosen[u]) {
          mine.push_back({u, truth[u]});
        }
        if (mine.empty()) continue;
        outbox[q] = std::move(mine);
      }
    }

    // Union transmission: one message carries each wanted reading once.
    std::vector<int> senders;
    std::vector<int> multiplicity(n, 0);
    int union_values = 0;
    int total_slots = 0;
    for (int q = 0; q < num_queries; ++q) {
      if (outbox[q].empty()) continue;
      senders.push_back(q);
      total_slots += static_cast<int>(outbox[q].size());
      for (const Reading& rd : outbox[q]) {
        if (multiplicity[rd.node] == 0) ++union_values;
        ++multiplicity[rd.node];
      }
    }
    if (senders.empty()) continue;

    out.edge_expected[u] = 1;
    for (int q : senders) out.per_query[q].edge_expected[u] = 1;
    out.shared_values += total_slots - union_values;
    if (senders.size() > 1) ++out.shared_messages;

    const FencedHeader header =
        guard != nullptr ? guard->Stamp(u) : FencedHeader{};
    const net::DeliveryResult sent =
        sim->TryUnicast(u, union_values,
                        guard != nullptr ? guard->header_bytes() : 0);
    collection += sent.energy_mj;
    int copies = sent.arrived_now() ? 1 : 0;
    const bool deferred =
        sent.delivered && !sent.corrupted && sent.delayed_until_epoch >= 0;
    if (guard != nullptr) {
      if (deferred) {
        DelayedMessage parked;
        parked.channel = GuardChannel::kSuperplan;
        parked.child_edge = u;
        parked.arrival_epoch = sent.delayed_until_epoch;
        parked.header = header;
        for (int q : senders) {
          parked.flow_ids.push_back(superplan.query_ids[q]);
          parked.flows.push_back(outbox[q]);
        }
        guard->Defer(std::move(parked));
        copies = 0;
      } else {
        copies = guard->AdmitCopies(sent, header, u);
      }
    }

    // Attribution: split the per-message overhead equally among the
    // queries aboard, and the value-proportional remainder by charging
    // each union value once, divided among the queries that wanted it.
    // Re-route / retry inflation scales both parts proportionally. A
    // sole sender owns the message outright (exactly, not just to
    // rounding — the single-query engine's ledger must equal the audited
    // total bit-for-bit).
    if (senders.size() == 1) {
      collect_attr[senders[0]] += sent.energy_mj;
    } else {
      const double frac_message =
          em.per_message_mj / em.MessageCost(union_values);
      const double message_pool = sent.energy_mj * frac_message;
      const double value_pool = sent.energy_mj - message_pool;
      for (int q : senders) {
        collect_attr[q] += message_pool / static_cast<double>(senders.size());
        if (value_pool > 0.0) {
          double weight = 0.0;
          for (const Reading& rd : outbox[q]) {
            weight += 1.0 / static_cast<double>(multiplicity[rd.node]);
          }
          collect_attr[q] +=
              value_pool * weight / static_cast<double>(union_values);
        }
      }
    }

    if (copies > 0) {
      out.edge_delivered[u] = 1;
      const int parent = topo.parent(u);
      for (int q : senders) {
        out.per_query[q].edge_delivered[u] = 1;
        std::vector<Reading>& up = inbox[q][parent];
        // copies > 1 only in naive mode: every query aboard receives its
        // flow that many times and the duplicates ride into the demux.
        for (int rep = 0; rep < copies; ++rep) {
          up.insert(up.end(), outbox[q].begin(), outbox[q].end());
        }
      }
    } else {
      if (deferred) {
        ++out.messages_deferred;
      } else {
        ++out.messages_dropped;
      }
      out.values_lost += union_values;
      out.degraded = true;
      for (int q : senders) {
        ExecutionResult& r = out.per_query[q];
        if (deferred) {
          ++r.messages_deferred;
        } else {
          ++r.messages_dropped;
        }
        r.values_lost += static_cast<int>(outbox[q].size());
        r.degraded = true;
      }
    }
  }
  out.collection_energy_mj = collection;
  for (int q = 0; q < num_queries; ++q) {
    out.attributed_mj[q] = trigger_attr[q] + collect_attr[q];
  }

  // Root demux: each query keeps exactly its own flow, sorted and trimmed
  // to its own k.
  for (int q = 0; q < num_queries; ++q) {
    ExecutionResult& r = out.per_query[q];
    r.arrived = std::move(inbox[q][topo.root()]);
    r.arrived.push_back({topo.root(), truth[topo.root()]});
    SortReadings(&r.arrived);
    r.answer = r.arrived;
    if (static_cast<int>(r.answer.size()) > superplan.plans[q].k) {
      r.answer.resize(superplan.plans[q].k);
    }
  }

  PROSPECTOR_AUDIT_ENERGY("executor.superplan", out.total_energy_mj(),
                          sim->stats().total_energy_mj - ledger_before_mj);
  PROSPECTOR_COUNTER_ADD("exec.superplan.runs", 1);
  PROSPECTOR_COUNTER_ADD("exec.superplan.shared_messages",
                         out.shared_messages);
  PROSPECTOR_COUNTER_ADD("exec.superplan.shared_values",
                         static_cast<int>(out.shared_values));
  PROSPECTOR_COUNTER_ADD("exec.superplan.values_lost", out.values_lost);
  if (out.degraded) {
    PROSPECTOR_FLIGHT(kNote, "exec.superplan.degraded", -1, out.values_lost,
                      out.shared_messages);
  }
  return out;
}

Subplan MergedSubplanFor(const Superplan& superplan,
                         const net::Topology& topology, int node) {
  Subplan sp = SubplanFor(superplan.merged, topology, node);
  for (int q = 0; q < superplan.num_queries(); ++q) {
    const QueryPlan& p = superplan.plans[q];
    if (node != topology.root() && p.bandwidth[node] <= 0) continue;
    SubplanQueryEntry entry;
    entry.query_id = superplan.query_ids[q];
    entry.k = p.k;
    entry.bandwidth = node == topology.root() ? 0 : p.bandwidth[node];
    sp.query_entries.push_back(entry);
  }
  return sp;
}

}  // namespace core
}  // namespace prospector
