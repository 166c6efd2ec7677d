#include "src/core/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/core/executor.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"

namespace prospector {
namespace core {

QueryEngine::QueryEngine(const net::Topology* topology,
                         net::EnergyModel energy, net::FailureModel failures,
                         QueryEngineOptions options, uint64_t seed)
    : topology_(topology),
      options_(options),
      ctx_{topology, energy, failures},
      sim_(topology, energy, failures, seed),
      rng_(seed ^ 0x5e551011),
      seed_(seed),
      original_num_nodes_(topology->num_nodes()) {
  if (options_.use_workspace) ctx_.workspace = &workspace_;
  if (!options_.faults.empty()) {
    injecting_ = true;
    injector_ = net::FaultInjector(topology->num_nodes(), options_.faults,
                                   topology->root());
    sim_.set_fault_injector(&injector_);
  }
  sim_.set_lossy_transport(options_.lossy);
  sim_.set_adversarial_transport(options_.adversarial);
  // The protocol layer fences exactly when the adversary can strike
  // (config rates, scripted adversarial events, or forced on): otherwise
  // the engine runs the seed protocol verbatim — no guard, no header
  // bytes, bit-identical draws.
  guarding_ = options_.adversarial.enabled ||
              options_.faults.has_adversarial() ||
              options_.fencing == TransportFencing::kFenced;
  guard_ = TransportGuard(options_.fencing != TransportFencing::kNaive);
  if (guarding_) sim_.set_fence_header_bytes(guard_.header_bytes());
  orig_of_.resize(topology->num_nodes());
  for (int i = 0; i < topology->num_nodes(); ++i) orig_of_[i] = i;
  silent_.assign(topology->num_nodes(), 0);
}

const QueryState& QueryEngine::At(int id) const {
  const QueryState* q = registry_.Find(id);
  if (q == nullptr) {
    std::fprintf(stderr, "QueryEngine: unknown query id %d\n", id);
    std::abort();
  }
  return *q;
}

void QueryEngine::HydrateNewQuery(QueryState* q) {
  // Hydrate the newcomer's window from the sweeps already collected, so
  // it plans from the same evidence the incumbents have.
  for (const std::vector<double>& collected : history_) {
    q->samples.Add(collected);
  }
  PROSPECTOR_COUNTER_ADD("engine.queries_admitted", 1);
  PROSPECTOR_FLIGHT(kNote, "engine.admit", q->id, q->spec.k,
                    q->spec.energy_budget_mj);
}

int QueryEngine::AddQuery(const QuerySpec& spec) {
  const int id = registry_.Add(spec, topology_->num_nodes(),
                               options_.sample_window);
  HydrateNewQuery(registry_.Find(id));
  return id;
}

Result<int> QueryEngine::AddQueryWithId(int id, const QuerySpec& spec) {
  auto added = registry_.AddWithId(id, spec, topology_->num_nodes(),
                                   options_.sample_window);
  if (!added.ok()) return added.status();
  HydrateNewQuery(registry_.Find(id));
  return id;
}

bool QueryEngine::RemoveQuery(int id) {
  const bool removed = registry_.Remove(id);
  if (removed) {
    workspace_.DropLps(id);  // leases are keyed by query id
    PROSPECTOR_COUNTER_ADD("engine.queries_retired", 1);
    PROSPECTOR_FLIGHT(kNote, "engine.retire", id, registry_.size(), 0);
  }
  return removed;
}

PlannerContext QueryEngine::CtxFor(int lease) const {
  PlannerContext ctx = ctx_;
  ctx.workspace_lease = lease;
  return ctx;
}

net::TransmissionStats QueryEngine::TakeRadioStats() {
  net::TransmissionStats stats = sim_.TakeStats();
  radio_totals_.Accumulate(stats);
  return stats;
}

Result<bool> QueryEngine::ReplanQuery(QueryState* q) {
  PROSPECTOR_SPAN("session.replan");
  const int64_t start_us = obs::MonotonicNowUs();
  const PlannerContext ctx = CtxFor(q->id);
  auto changed = q->manager.MaybeReplan(ctx, q->samples, &sim_);
  q->last_replan_latency_ms =
      static_cast<double>(obs::MonotonicNowUs() - start_us) / 1000.0;
  if (changed.ok() && *changed) {
    const double spent = TakeRadioStats().total_energy_mj;
    install_energy_ += spent;
    q->install_energy_mj += spent;
    // Messages stamped under the previous plan are now stale; the fence
    // refuses them at arrival.
    if (guarding_) guard_.BumpPlanEpoch();
    PROSPECTOR_COUNTER_ADD("session.replans", 1);
    PROSPECTOR_HISTOGRAM_RECORD("session.replan_latency_us",
                                q->last_replan_latency_ms * 1000.0);
    // No wall-clock in the black box (latency would break replay
    // byte-identity): record what the replan installed, not how long it
    // took.
    PROSPECTOR_FLIGHT(kReplan, "engine.replan", q->id, spent,
                      q->manager.predicted_recall());
  } else {
    TakeRadioStats();
  }
  return changed;
}

void QueryEngine::ObserveEdges(const std::vector<char>& expected,
                               const std::vector<char>& delivered) {
  if (options_.dead_after_epochs <= 0) return;
  if (expected.size() != silent_.size() ||
      delivered.size() != silent_.size()) {
    return;
  }
  for (size_t u = 0; u < expected.size(); ++u) {
    if (!expected[u]) continue;  // no evidence either way this epoch
    silent_[u] = delivered[u] ? 0 : silent_[u] + 1;
  }
}

void QueryEngine::TranslateAnswer(std::vector<Reading>* answer) const {
  if (owned_topology_ == nullptr) return;  // ids are still original
  for (Reading& r : *answer) r.node = orig_of_[r.node];
}

Result<bool> QueryEngine::MaybeHeal(TickResult* result) {
  if (options_.dead_after_epochs <= 0) return false;
  const int n = topology_->num_nodes();
  std::vector<char> suspect(n, 0);
  bool any = false;
  for (int u = 0; u < n; ++u) {
    if (u == topology_->root()) continue;
    if (silent_[u] >= options_.dead_after_epochs) {
      suspect[u] = 1;
      any = true;
    }
  }
  if (!any) return false;

  // Only topmost suspects are declared dead: everything beneath a dead
  // node is equally silent, but the break sits at the topmost dark edge —
  // killing the descendants too would throw away live hardware.
  std::vector<int> dead;
  for (int u = 0; u < n; ++u) {
    if (!suspect[u]) continue;
    bool shadowed = false;
    for (int a = topology_->parent(u); a != net::Topology::kNoParent;
         a = topology_->parent(a)) {
      if (suspect[a]) {
        shadowed = true;
        break;
      }
    }
    if (!shadowed) dead.push_back(u);
  }
  PROSPECTOR_SPAN("session.heal");
  PROSPECTOR_COUNTER_ADD("session.watchdog.declared_dead",
                         static_cast<int64_t>(dead.size()));
  PROSPECTOR_FLIGHT(kHeal, "engine.heal", -1, dead.size(),
                    topology_->num_nodes());

  auto rebuilt = net::RebuildWithoutNodes(*topology_, dead,
                                          options_.rebuild_radio_range);
  if (!rebuilt.ok()) return rebuilt.status();
  const std::vector<int>& new_id = rebuilt->new_id;
  const int new_n = rebuilt->topology.num_nodes();

  for (int i = 0; i < n; ++i) {
    if (new_id[i] < 0) result->removed_nodes.push_back(orig_of_[i]);
  }
  std::sort(result->removed_nodes.begin(), result->removed_nodes.end());

  // Re-index everything that outlives the old tree: the id translation,
  // the silence counters, every query's sample window, the shared sweep
  // history, the failure model, and pending fault events.
  std::vector<int> new_orig(new_n, -1);
  for (int i = 0; i < n; ++i) {
    if (new_id[i] >= 0) new_orig[new_id[i]] = orig_of_[i];
  }
  orig_of_ = std::move(new_orig);
  silent_.assign(new_n, 0);
  for (QueryState* q : registry_.ordered()) {
    q->samples = q->samples.Remapped(new_id, new_n);
  }
  for (std::vector<double>& collected : history_) {
    std::vector<double> remapped(new_n, 0.0);
    for (int i = 0; i < n; ++i) {
      if (new_id[i] >= 0) remapped[new_id[i]] = collected[i];
    }
    collected = std::move(remapped);
  }
  net::FailureModel failures = ctx_.failures;
  if (failures.edge_failure_prob.size() > 1) {
    std::vector<double> remapped(new_n, 0.0);
    const int covered =
        std::min<int>(n, static_cast<int>(failures.edge_failure_prob.size()));
    for (int i = 0; i < covered; ++i) {
      if (new_id[i] >= 0) remapped[new_id[i]] = failures.edge_failure_prob[i];
    }
    failures.edge_failure_prob = std::move(remapped);
  }
  if (injecting_) injector_.Remap(new_id, new_n);

  // Drain the old simulator's ledger while the topology it references is
  // still alive: replacing owned_topology_ below frees the tree a
  // previous rebuild installed, and TakeStats resizes per-node ledgers
  // off topology_->num_nodes().
  TakeRadioStats();
  owned_topology_ =
      std::make_unique<net::Topology>(std::move(rebuilt->topology));
  topology_ = owned_topology_.get();
  ctx_ = PlannerContext{topology_, ctx_.energy, failures};
  if (options_.use_workspace) {
    // The rebuilt tree is a new epoch and the remapped windows a new
    // lineage — every cache would miss; Clear releases the memory now.
    workspace_.Clear();
    ctx_.workspace = &workspace_;
  }
  ++rebuilds_;
  sim_ = net::NetworkSimulator(
      topology_, ctx_.energy, failures,
      seed_ ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(rebuilds_)));
  if (injecting_) sim_.set_fault_injector(&injector_);
  sim_.set_lossy_transport(options_.lossy);
  sim_.set_adversarial_transport(options_.adversarial);
  sim_.set_epoch(epoch_ - 1);  // MaybeHeal runs inside the current tick
  if (guarding_) {
    sim_.set_fence_header_bytes(guard_.header_bytes());
    // In-flight messages die with the old tree: their edge ids and
    // sequence state mean nothing on the rebuilt topology.
    guard_.Clear();
  }

  // Installed plans index nodes that no longer exist; replace every one
  // unconditionally on the surviving topology.
  for (QueryState* q : registry_.ordered()) {
    q->manager.InvalidatePlan();
    auto changed = ReplanQuery(q);
    if (!changed.ok()) return changed.status();
    for (QueryTickResult& qr : result->per_query) {
      if (qr.query_id == q->id && *changed) qr.replanned = true;
    }
  }
  result->rebuilt = true;
  PROSPECTOR_COUNTER_ADD("session.watchdog.rebuilds", 1);
  PROSPECTOR_COUNTER_ADD("session.watchdog.removed_nodes",
                         static_cast<int64_t>(result->removed_nodes.size()));
  return true;
}

std::vector<QueryHealth> QueryEngine::HealthReport() const {
  std::vector<QueryHealth> out;
  out.reserve(registry_.ordered().size());
  for (const QueryState* q : registry_.ordered()) {
    QueryHealth h = q->health.health();
    h.query_id = q->id;
    h.tenant_id = q->spec.tenant_id;
    h.deployment_id = options_.deployment_id;
    out.push_back(std::move(h));
  }
  return out;
}

QueryHealth QueryEngine::query_health(int id) const {
  const QueryState& q = At(id);
  QueryHealth h = q.health.health();
  h.query_id = id;
  h.tenant_id = q.spec.tenant_id;
  h.deployment_id = options_.deployment_id;
  return h;
}

void QueryEngine::UpdateHealth(TickResult* result) {
  // Guard rejections are engine-wide (a rejected arrival cannot be
  // attributed to one query on a shared radio), so every co-resident
  // query is scored against the same per-epoch delta.
  long long rejects = 0;
  if (guarding_) {
    const TransportGuard::Counters& c = guard_.counters();
    rejects = c.stale_fenced + c.corrupt_rejected;
  }
  const double guard_delta =
      static_cast<double>(rejects - guard_rejects_prev_);
  guard_rejects_prev_ = rejects;

  const std::vector<QueryState*>& queries = registry_.ordered();
  for (size_t i = 0; i < queries.size() && i < result->per_query.size();
       ++i) {
    QueryState* q = queries[i];
    QueryTickResult& qr = result->per_query[i];
    QueryHealthTracker::EpochSignals sig;
    sig.recall = qr.recall;
    sig.energy_mj = qr.energy_mj;
    sig.replan_latency_ms = qr.replanned ? q->last_replan_latency_ms : -1.0;
    sig.guard_rejects = guard_delta;
    sig.predicted_recall = q->manager.predicted_recall();
    const HealthStatus before = q->health.status();
    q->health.Observe(sig);
    qr.health = q->health.status();
    if (qr.health != before) {
      PROSPECTOR_FLIGHT(kNote, "engine.health", q->id,
                        static_cast<int>(before),
                        static_cast<int>(qr.health));
    }
  }
}

void QueryEngine::FinishTick(
    [[maybe_unused]] const TickResult& result) const {
  PROSPECTOR_COUNTER_ADD("session.values_lost",
                         static_cast<int64_t>(result.values_lost));
  if (result.degraded) {
    PROSPECTOR_COUNTER_ADD("session.degraded_epochs", 1);
  }
  PROSPECTOR_GAUGE_SET("session.degraded", result.degraded ? 1.0 : 0.0);
  PROSPECTOR_GAUGE_SET("engine.active_queries",
                       static_cast<double>(registry_.size()));
  bool any_audit = false;
  bool any_query = false;
  for (const QueryTickResult& qr : result.per_query) {
    if (qr.recall >= 0.0) {
      PROSPECTOR_HISTOGRAM_RECORD("session.recall", qr.recall);
    }
    any_audit = any_audit || qr.kind == QueryEpochKind::kAudit;
    any_query = any_query || qr.kind == QueryEpochKind::kQuery;
  }
  switch (result.kind) {
    case EpochKind::kBootstrap:
      PROSPECTOR_COUNTER_ADD("session.bootstrap_epochs", 1);
      break;
    case EpochKind::kExplore:
      PROSPECTOR_COUNTER_ADD("session.explore_epochs", 1);
      break;
    case EpochKind::kQuery:
      if (any_audit) PROSPECTOR_COUNTER_ADD("session.audit_epochs", 1);
      if (any_query) PROSPECTOR_COUNTER_ADD("session.query_epochs", 1);
      break;
    case EpochKind::kIdle:
      break;
  }
  if (result.shared_messages > 0) {
    PROSPECTOR_COUNTER_ADD("engine.shared_messages",
                           static_cast<int64_t>(result.shared_messages));
  }
  if (result.shared_values > 0) {
    PROSPECTOR_COUNTER_ADD("engine.shared_values",
                           static_cast<int64_t>(result.shared_values));
  }
}

Result<QueryEngine::TickResult> QueryEngine::Tick(
    const std::vector<double>& truth) {
  if (static_cast<int>(truth.size()) != original_num_nodes_) {
    return Status::InvalidArgument("truth vector does not match network size");
  }
  TickResult result;
  PROSPECTOR_SPAN("session.tick");
  PROSPECTOR_COUNTER_ADD("session.epochs", 1);
  const int this_epoch = epoch_++;
  PROSPECTOR_FLIGHT_EPOCH(this_epoch);
  sim_.set_epoch(this_epoch);
  if (guarding_) guard_.StartEpoch(this_epoch);
  if (injecting_) injector_.AdvanceTo(this_epoch);

  const std::vector<QueryState*>& queries = registry_.ordered();
  if (queries.empty()) {
    result.kind = EpochKind::kIdle;
    FinishTick(result);
    return result;
  }
  result.per_query.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    result.per_query[i].query_id = queries[i]->id;
  }

  // Project the caller's original-indexed readings onto the current tree.
  std::vector<double> projected;
  const std::vector<double>* cur_truth = &truth;
  if (owned_topology_ != nullptr) {
    projected.resize(topology_->num_nodes());
    for (int i = 0; i < topology_->num_nodes(); ++i) {
      projected[i] = truth[orig_of_[i]];
    }
    cur_truth = &projected;
  }

  // Bootstrap and exploration epochs: ONE full sweep feeds every query's
  // window; then every query reconsiders its plan.
  const bool bootstrap = this_epoch < options_.bootstrap_sweeps;
  double explore_probability = 0.0;
  for (const auto& q : queries) {
    explore_probability =
        std::max(explore_probability, q->manager.explore_probability());
  }
  const bool explore = bootstrap || rng_.Bernoulli(explore_probability);
  if (explore) {
    result.kind = bootstrap ? EpochKind::kBootstrap : EpochKind::kExplore;
    const std::vector<double>* fallback =
        history_.empty() ? nullptr : &history_.back();
    std::vector<double> collected;
    const sampling::SweepReport sweep =
        collector_.CollectSweep(*cur_truth, &sim_, fallback, &collected);
    for (auto& q : queries) q->samples.Add(collected);
    history_.push_back(std::move(collected));
    while (options_.sample_window > 0 &&
           history_.size() > options_.sample_window) {
      history_.pop_front();
    }
    sampling_energy_ += sweep.energy_mj;
    const double share =
        sweep.energy_mj / static_cast<double>(queries.size());
    PROSPECTOR_AUDIT_ENERGY("session.explore", sweep.energy_mj,
                            sim_.stats().total_energy_mj);
    TakeRadioStats();
    result.degraded = sweep.degraded;
    result.values_lost = sweep.values_lost;
    result.energy_mj = sweep.energy_mj;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryTickResult& qr = result.per_query[i];
      qr.kind = bootstrap ? QueryEpochKind::kBootstrap
                          : QueryEpochKind::kExplore;
      qr.energy_mj = share;
      qr.degraded = sweep.degraded;
      qr.values_lost = sweep.values_lost;
      queries[i]->sampling_energy_mj += share;
    }
    ObserveEdges(sweep.edge_expected, sweep.edge_delivered);
    auto healed = MaybeHeal(&result);
    if (!healed.ok()) return healed.status();
    // Reconsider plans once the window is primed (the heal path has
    // already replanned on the new tree).
    if (!result.rebuilt && this_epoch + 1 >= options_.bootstrap_sweeps) {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto changed = ReplanQuery(queries[i]);
        if (!changed.ok()) return changed.status();
        result.per_query[i].replanned = *changed;
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (result.per_query[i].replanned) {
        result.per_query[i].replan_latency_ms =
            queries[i]->last_replan_latency_ms;
      }
    }
    UpdateHealth(&result);
    FinishTick(result);
    return result;
  }

  result.kind = EpochKind::kQuery;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!queries[i]->manager.has_plan()) {
      auto changed = ReplanQuery(queries[i]);
      if (!changed.ok()) return changed.status();
      result.per_query[i].replanned = *changed;
    }
  }

  // Audit pass: due queries run their own proof-backed exact query (a
  // proof plan visits every node and cannot merge); the rest share the
  // superplan below.
  std::vector<size_t> sharers;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryState* q = queries[i];
    QueryTickResult& qr = result.per_query[i];
    if (q->spec.audit_every > 0 &&
        ++q->queries_since_audit >= q->spec.audit_every) {
      q->queries_since_audit = 0;
      qr.kind = QueryEpochKind::kAudit;
      auto exact = RunProspectorExact(
          CtxFor(q->id), q->samples, q->spec.k,
          ProofPlanner::MinimumCost(ctx_) * q->spec.audit_budget_factor,
          *cur_truth, &sim_, q->spec.lp, guard());
      [[maybe_unused]] const double audit_ledger_mj =
          TakeRadioStats().total_energy_mj;
      if (!exact.ok()) return exact.status();
      PROSPECTOR_AUDIT_ENERGY("session.audit", exact->total_energy_mj(),
                              audit_ledger_mj);
      audit_energy_ += exact->total_energy_mj();
      q->audit_energy_mj += exact->total_energy_mj();
      qr.answer = exact->answer;
      TranslateAnswer(&qr.answer);
      qr.proven = exact->phase1_proven;
      qr.recall = TopKRecall(qr.answer, truth, q->spec.k);
      qr.energy_mj = exact->total_energy_mj();
      qr.degraded = exact->degraded;
      qr.values_lost = exact->values_lost;
      q->manager.ObserveAccuracy(
          static_cast<double>(exact->phase1_proven) / q->spec.k);
      result.energy_mj += exact->total_energy_mj();
      result.values_lost += exact->values_lost;
      result.degraded = result.degraded || exact->degraded;
      ObserveEdges(exact->edge_expected, exact->edge_delivered);
    } else {
      sharers.push_back(i);
    }
  }

  // Merged query epoch: one superplan, one trigger wave, one collection
  // wave; demux back into per-query answers and energy shares.
  if (!sharers.empty()) {
    std::vector<QueryPlan> plans;
    std::vector<int> ids;
    plans.reserve(sharers.size());
    ids.reserve(sharers.size());
    for (size_t i : sharers) {
      plans.push_back(queries[i]->manager.plan());
      ids.push_back(queries[i]->id);
    }
    superplan_ = MergePlans(std::move(plans), *topology_, std::move(ids));
    SuperplanResult sr = SuperplanExecutor::Execute(
        superplan_, *cur_truth, &sim_, /*include_trigger=*/true, guard());
    PROSPECTOR_AUDIT_ENERGY("session.query", sr.total_energy_mj(),
                            sim_.stats().total_energy_mj);
    TakeRadioStats();
    double attributed_sum = 0.0;
    for (double a : sr.attributed_mj) attributed_sum += a;
    PROSPECTOR_AUDIT_ENERGY("engine.superplan.attribution", attributed_sum,
                            sr.total_energy_mj());
    query_energy_ += sr.total_energy_mj();
    for (size_t s = 0; s < sharers.size(); ++s) {
      const size_t i = sharers[s];
      QueryState* q = queries[i];
      QueryTickResult& qr = result.per_query[i];
      qr.kind = QueryEpochKind::kQuery;
      qr.answer = std::move(sr.per_query[s].answer);
      TranslateAnswer(&qr.answer);
      qr.recall = TopKRecall(qr.answer, truth, q->spec.k);
      qr.energy_mj = sr.attributed_mj[s];
      qr.degraded = sr.per_query[s].degraded;
      qr.values_lost = sr.per_query[s].values_lost;
      q->query_energy_mj += sr.attributed_mj[s];
    }
    result.energy_mj += sr.total_energy_mj();
    result.values_lost += sr.values_lost;
    result.degraded = result.degraded || sr.degraded;
    result.shared_messages = sr.shared_messages;
    result.shared_values = sr.shared_values;
    ObserveEdges(sr.edge_expected, sr.edge_delivered);
  }

  auto healed = MaybeHeal(&result);
  if (!healed.ok()) return healed.status();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (result.per_query[i].replanned) {
      result.per_query[i].replan_latency_ms =
          queries[i]->last_replan_latency_ms;
    }
  }
  UpdateHealth(&result);
  FinishTick(result);
  return result;
}

}  // namespace core
}  // namespace prospector
