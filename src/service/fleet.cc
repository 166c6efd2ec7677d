#include "src/service/fleet.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/obs/obs.h"

namespace prospector {
namespace service {
namespace {

/// Splitmix-style finalizer: decorrelates a deployment's truth stream
/// from its engine stream without asking callers for two seeds.
uint64_t TruthSeed(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FleetService::FleetService(FleetOptions options)
    : options_(options),
      pool_(std::max(1, options.scheduler_threads)),
      quota_(options.default_quota) {}

void FleetService::SetTenantQuota(int tenant_id, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  quota_.SetQuota(tenant_id, quota);
}

int FleetService::AddDeployment(const net::Topology* topology,
                                net::EnergyModel energy,
                                net::FailureModel failures,
                                core::QueryEngineOptions options, TruthFn truth,
                                uint64_t seed) {
  const int id = static_cast<int>(deployments_.size());
  options.deployment_id = id;
  auto engine = std::make_unique<core::QueryEngine>(topology, energy, failures,
                                                    options, seed);
  deployments_.push_back(std::make_unique<Deployment>(
      id, std::move(engine), std::move(truth), TruthSeed(seed)));
  PROSPECTOR_COUNTER_ADD("service.deployments", 1);
  return id;
}

void FleetService::CountReject(int tenant_id, AdmitReject reject) {
  ++rejects_by_kind_[static_cast<size_t>(reject)];
  switch (reject) {
    case AdmitReject::kNone:
      break;
    case AdmitReject::kUnknownDeployment:
      PROSPECTOR_COUNTER_ADD("service.rejects.unknown_deployment", 1);
      break;
    case AdmitReject::kInvalidSpec:
      PROSPECTOR_COUNTER_ADD("service.rejects.invalid_spec", 1);
      break;
    case AdmitReject::kTenantQueryQuota:
      PROSPECTOR_COUNTER_ADD("service.rejects.tenant_query_quota", 1);
      break;
    case AdmitReject::kTenantEnergyQuota:
      PROSPECTOR_COUNTER_ADD("service.rejects.tenant_energy_quota", 1);
      break;
    case AdmitReject::kQueueFull:
      PROSPECTOR_COUNTER_ADD("service.rejects.queue_full", 1);
      break;
  }
  PROSPECTOR_FLIGHT(kNote, "service.reject", -1, tenant_id,
                    static_cast<int>(reject));
}

AdmitQueryResponse FleetService::Admit(const AdmitQueryRequest& request) {
  AdmitQueryResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  if (request.deployment_id < 0 ||
      request.deployment_id >= num_deployments()) {
    resp.reject = AdmitReject::kUnknownDeployment;
    resp.message = "no deployment with id " +
                   std::to_string(request.deployment_id) + " (fleet has " +
                   std::to_string(num_deployments()) + ")";
    CountReject(request.tenant_id, resp.reject);
    return resp;
  }
  // A NaN budget passes `<= 0.0`; a NaN or infinite one would disarm the
  // tenant's energy cap and make every LP the deployment solves invalid.
  const double budget = request.spec.energy_budget_mj;
  if (request.spec.k <= 0 || !(std::isfinite(budget) && budget > 0.0)) {
    resp.reject = AdmitReject::kInvalidSpec;
    resp.message = "spec needs k >= 1 and a finite positive energy budget";
    CountReject(request.tenant_id, resp.reject);
    return resp;
  }
  // An audit's phase-1 budget is audit_budget_factor times the proof
  // floor. Below 1 (or NaN, or infinite) no proof plan exists, and the
  // failing audit would fail every later epoch of the whole fleet.
  const double audit_factor = request.spec.audit_budget_factor;
  if (request.spec.audit_every > 0 &&
      !(std::isfinite(audit_factor) && audit_factor >= 1.0)) {
    resp.reject = AdmitReject::kInvalidSpec;
    resp.message = "an audited spec needs a finite audit_budget_factor >= 1";
    CountReject(request.tenant_id, resp.reject);
    return resp;
  }

  // Reserve quota before allocating an id: a rejected admission must
  // leave no trace beyond its reject counters.
  const AdmitReject reserved = quota_.Reserve(
      request.tenant_id, request.spec.energy_budget_mj, &resp.message);
  if (reserved != AdmitReject::kNone) {
    resp.reject = reserved;
    CountReject(request.tenant_id, reserved);
    return resp;
  }

  if (options_.max_pending_requests > 0 &&
      queue_.size() >= options_.max_pending_requests) {
    quota_.Release(request.tenant_id, request.spec.energy_budget_mj);
    resp.reject = AdmitReject::kQueueFull;
    resp.message = "admission queue at capacity (" +
                   std::to_string(options_.max_pending_requests) +
                   " pending requests)";
    CountReject(request.tenant_id, resp.reject);
    return resp;
  }

  resp.query_id = static_cast<int>(records_.size());
  QueryRecord& record = records_.emplace_back();
  record.deployment_id = request.deployment_id;
  record.tenant_id = request.tenant_id;
  record.budget_mj = request.spec.energy_budget_mj;
  PendingRequest& pending = queue_.emplace_back();
  pending.query_id = resp.query_id;
  pending.spec = request.spec;
  pending.spec.tenant_id = request.tenant_id;
  PROSPECTOR_GAUGE_SET("service.pending_requests",
                       static_cast<double>(queue_.size()));

  ++admits_;
  PROSPECTOR_COUNTER_ADD("service.admits", 1);
  PROSPECTOR_FLIGHT(kNote, "service.admit", resp.query_id,
                    request.deployment_id, request.tenant_id);
  resp.admitted = true;
  return resp;
}

RetireQueryResponse FleetService::Retire(const RetireQueryRequest& request) {
  RetireQueryResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  if (request.query_id < 0 ||
      static_cast<size_t>(request.query_id) >= records_.size()) {
    resp.message = "unknown query id " + std::to_string(request.query_id);
    return resp;
  }
  QueryRecord& record = records_[static_cast<size_t>(request.query_id)];
  if (request.tenant_id >= 0 && request.tenant_id != record.tenant_id) {
    resp.message = "query " + std::to_string(request.query_id) +
                   " belongs to tenant " + std::to_string(record.tenant_id);
    return resp;
  }
  if (record.phase == QueryPhase::kRetireQueued ||
      record.phase == QueryPhase::kRetired) {
    resp.message =
        "query " + std::to_string(request.query_id) + " already retired";
    return resp;
  }
  record.phase = QueryPhase::kRetireQueued;
  // Retirements bypass the admission cap — they shrink the fleet.
  PendingRequest& pending = queue_.emplace_back();
  pending.kind = PendingRequest::kRetire;
  pending.query_id = request.query_id;
  PROSPECTOR_COUNTER_ADD("service.retire_requests", 1);
  PROSPECTOR_FLIGHT(kNote, "service.retire", request.query_id,
                    record.deployment_id, record.tenant_id);
  resp.retired = true;
  resp.message = "retires at the next epoch boundary";
  return resp;
}

PollAnswersResponse FleetService::Poll(const PollAnswersRequest& request) {
  PollAnswersResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  if (request.query_id < 0 ||
      static_cast<size_t>(request.query_id) >= records_.size()) {
    return resp;
  }
  QueryRecord& record = records_[static_cast<size_t>(request.query_id)];
  resp.known_query = true;
  resp.active = record.phase != QueryPhase::kRetired;
  resp.dropped = record.dropped;
  record.dropped = 0;
  if (request.max_answers <= 0 ||
      static_cast<size_t>(request.max_answers) >= record.ring.size()) {
    resp.answers.swap(record.ring);  // drain all: the record keeps no heap
    return resp;
  }
  const auto end = record.ring.begin() + request.max_answers;
  resp.answers.assign(std::make_move_iterator(record.ring.begin()),
                      std::make_move_iterator(end));
  record.ring.erase(record.ring.begin(), end);
  return resp;
}

void FleetService::ApplyPending(FleetEpochReport* report) {
  PROSPECTOR_GAUGE_SET("service.pending_requests", 0.0);
  for (const PendingRequest& req : queue_) {
    QueryRecord& record = records_[static_cast<size_t>(req.query_id)];
    Deployment& dep = *deployments_[static_cast<size_t>(record.deployment_id)];
    if (req.kind == PendingRequest::kAdmit) {
      auto added = dep.engine->AddQueryWithId(req.query_id, req.spec);
      if (!added.ok()) {
        // Cannot happen (fleet ids are unique), but fail the query loudly
        // rather than strand its reservation.
        record.phase = QueryPhase::kRetired;
        quota_.Release(record.tenant_id, record.budget_mj);
        PROSPECTOR_COUNTER_ADD("service.admit_apply_failures", 1);
        continue;
      }
      // A retire queued behind this admit keeps the kRetireQueued phase;
      // it applies later in this same batch.
      if (record.phase == QueryPhase::kPending) {
        record.phase = QueryPhase::kActive;
      }
      ++report->applied_admits;
    } else {
      if (record.phase != QueryPhase::kRetireQueued) continue;
      dep.engine->RemoveQuery(req.query_id);
      record.phase = QueryPhase::kRetired;
      quota_.Release(record.tenant_id, record.budget_mj);
      ++retires_;
      PROSPECTOR_COUNTER_ADD("service.retires", 1);
      ++report->applied_retires;
    }
  }
  queue_.clear();
}

Result<FleetEpochReport> FleetService::RunEpoch() {
  FleetEpochReport report;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.epoch = epoch_++;
    ApplyPending(&report);
  }
  const long long epoch = report.epoch;

  using TickResult = core::QueryEngine::TickResult;
  const int n = num_deployments();
  std::vector<Result<TickResult>> ticks(
      static_cast<size_t>(n),
      Result<TickResult>(Status::Internal("not ticked")));
  // Deployments share no mutable state, so batching them across the pool
  // is bit-identical to the serial loop (see DESIGN.md, "Fleet service").
  pool_.ParallelFor(n, [&](int i) {
    Deployment& dep = *deployments_[static_cast<size_t>(i)];
    ticks[static_cast<size_t>(i)] = dep.engine->Tick(dep.truth(&dep.truth_rng));
  });

  // Serial demux in deployment order: answers into poll rings, realized
  // energy onto tenant meters.
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < n; ++i) {
    Result<TickResult>& tick = ticks[static_cast<size_t>(i)];
    if (!tick.ok()) {
      return Status::Internal("deployment " + std::to_string(i) +
                              " failed at fleet epoch " +
                              std::to_string(epoch) + ": " +
                              tick.status().ToString());
    }
    TickResult& result = tick.value();
    report.energy_mj += result.energy_mj;
    if (result.degraded) ++report.degraded_deployments;
    if (result.rebuilt) ++report.rebuilt_deployments;
    // Every query an engine ticks was admitted here, so its id indexes
    // records_.
    for (auto& qr : result.per_query) {
      QueryRecord& record = records_[static_cast<size_t>(qr.query_id)];
      quota_.MeterEnergy(record.tenant_id, qr.energy_mj);
      if (qr.kind != core::QueryEngine::QueryEpochKind::kQuery &&
          qr.kind != core::QueryEngine::QueryEpochKind::kAudit) {
        continue;  // bootstrap/explore epochs carry no answer
      }
      if (options_.answer_ring_capacity > 0 &&
          record.ring.size() >= options_.answer_ring_capacity) {
        record.ring.erase(record.ring.begin());
        ++record.dropped;
      }
      AnswerRecord& answer = record.ring.emplace_back();
      answer.epoch = epoch;
      answer.kind = qr.kind;
      answer.answer = std::move(qr.answer);
      answer.recall = qr.recall;
      answer.energy_mj = qr.energy_mj;
      answer.health = qr.health;
    }
  }

  PROSPECTOR_COUNTER_ADD("service.epochs", 1);
  PROSPECTOR_FLIGHT(kNote, "service.epoch", -1,
                    report.applied_admits + report.applied_retires,
                    report.energy_mj);
  return report;
}

Result<FleetEpochReport> FleetService::RunEpochs(int n) {
  if (n <= 0) return Status::InvalidArgument("RunEpochs needs n >= 1");
  FleetEpochReport last;
  for (int i = 0; i < n; ++i) {
    auto report = RunEpoch();
    if (!report.ok()) return report.status();
    last = *report;
  }
  return last;
}

FleetStatus FleetService::Snapshot() const {
  FleetStatus s;
  std::lock_guard<std::mutex> lock(mu_);
  s.epoch = epoch_;
  s.deployments = num_deployments();
  s.admits = admits_;
  s.retires = retires_;
  s.rejects_by_kind = rejects_by_kind_;
  for (int i = 0; i < kAdmitRejectKinds; ++i) {
    if (i != static_cast<int>(AdmitReject::kNone)) {
      s.rejects += rejects_by_kind_[static_cast<size_t>(i)];
    }
  }
  s.pending_requests = static_cast<int>(queue_.size());
  s.per_deployment.reserve(deployments_.size());
  for (const auto& dep : deployments_) {
    DeploymentStatus d;
    d.deployment_id = dep->id;
    d.num_nodes = dep->engine->topology().num_nodes();
    d.standing_queries = dep->engine->num_queries();
    d.epoch = dep->engine->epoch();
    d.rebuilds = dep->engine->rebuilds();
    d.total_energy_mj = dep->engine->total_energy_mj();
    s.standing_queries += d.standing_queries;
    s.total_energy_mj += d.total_energy_mj;
    s.per_deployment.push_back(d);
  }
  for (const auto& [tenant_id, usage] : quota_.AllUsage()) {
    TenantStatus t;
    t.tenant_id = tenant_id;
    t.standing_queries = usage.standing;
    t.admitted_budget_mj = usage.budget_mj;
    t.admits = usage.admits;
    t.rejects = usage.rejects;
    t.attributed_energy_mj = usage.energy_mj;
    s.per_tenant.push_back(t);
  }
  return s;
}

std::vector<core::QueryHealth> FleetService::HealthReport() const {
  std::vector<core::QueryHealth> out;
  for (const auto& dep : deployments_) {
    std::vector<core::QueryHealth> report = dep->engine->HealthReport();
    out.insert(out.end(), report.begin(), report.end());
  }
  return out;
}

const core::QueryEngine& FleetService::deployment(int deployment_id) const {
  return *deployments_.at(static_cast<size_t>(deployment_id))->engine;
}

}  // namespace service
}  // namespace prospector
