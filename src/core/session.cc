#include "src/core/session.h"

#include <utility>

namespace prospector {
namespace core {
namespace {

QueryEngineOptions EngineOptionsFrom(const SessionOptions& options) {
  QueryEngineOptions eo;
  eo.sample_window = options.sample_window;
  eo.bootstrap_sweeps = options.bootstrap_sweeps;
  eo.use_workspace = options.use_workspace;
  eo.faults = options.faults;
  eo.lossy = options.lossy;
  eo.dead_after_epochs = options.dead_after_epochs;
  eo.rebuild_radio_range = options.rebuild_radio_range;
  return eo;
}

QuerySpec SpecFrom(const SessionOptions& options) {
  QuerySpec spec;
  spec.k = options.k;
  spec.energy_budget_mj = options.energy_budget_mj;
  spec.planner = options.planner;
  spec.lp = options.lp;
  spec.manager = options.manager;
  spec.audit_every = options.audit_every;
  spec.audit_budget_factor = options.audit_budget_factor;
  return spec;
}

TopKQuerySession::TickResult::Kind KindFrom(
    QueryEngine::QueryEpochKind kind) {
  switch (kind) {
    case QueryEngine::QueryEpochKind::kBootstrap:
      return TopKQuerySession::TickResult::Kind::kBootstrap;
    case QueryEngine::QueryEpochKind::kExplore:
      return TopKQuerySession::TickResult::Kind::kExplore;
    case QueryEngine::QueryEpochKind::kAudit:
      return TopKQuerySession::TickResult::Kind::kAudit;
    case QueryEngine::QueryEpochKind::kQuery:
      return TopKQuerySession::TickResult::Kind::kQuery;
  }
  return TopKQuerySession::TickResult::Kind::kQuery;
}

}  // namespace

TopKQuerySession::TopKQuerySession(const net::Topology* topology,
                                   net::EnergyModel energy,
                                   net::FailureModel failures,
                                   SessionOptions options, uint64_t seed)
    : engine_(topology, energy, failures, EngineOptionsFrom(options), seed),
      qid_(engine_.AddQuery(SpecFrom(options))) {}

Result<TopKQuerySession::TickResult> TopKQuerySession::Tick(
    const std::vector<double>& truth) {
  auto epoch = engine_.Tick(truth);
  if (!epoch.ok()) return epoch.status();
  TickResult out;
  // The session registered exactly one query, so the epoch result carries
  // exactly one per-query entry — this session's.
  QueryEngine::QueryTickResult& qr = epoch->per_query.front();
  out.kind = KindFrom(qr.kind);
  out.answer = std::move(qr.answer);
  out.energy_mj = qr.energy_mj;
  out.replanned = qr.replanned;
  out.proven = qr.proven;
  out.recall = qr.recall;
  out.replan_latency_ms = qr.replan_latency_ms;
  out.degraded = qr.degraded;
  out.values_lost = qr.values_lost;
  out.removed_nodes = std::move(epoch->removed_nodes);
  out.rebuilt = epoch->rebuilt;
  return out;
}

}  // namespace core
}  // namespace prospector
