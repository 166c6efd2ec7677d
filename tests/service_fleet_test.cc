// FleetService: request/response lifecycle, typed quota rejections,
// deterministic epoch scheduling (parallel == serial, bit-identical, with
// audited queries planning and reusing proof plans inside the parallel
// batch), concurrent callers beside RunEpoch, and tagged health rollups.
// Every case runs under TSan in the tsan CI job (its -R matches Fleet).
#include "src/service/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/health.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace service {
namespace {

/// Shared deterministic world: `deployments` small connected networks and
/// a Gaussian field per deployment. Both fleets of a comparison test use
/// the same topologies, so any divergence is the scheduler's.
struct FleetWorld {
  std::vector<net::Topology> topologies;
  std::vector<data::GaussianField> fields;

  FleetWorld(uint64_t seed, int deployments, int nodes) {
    Rng rng(seed);
    topologies.reserve(static_cast<size_t>(deployments));
    fields.reserve(static_cast<size_t>(deployments));
    for (int d = 0; d < deployments; ++d) {
      net::GeometricNetworkOptions geo;
      geo.num_nodes = nodes;
      geo.radio_range = 40.0;
      topologies.push_back(
          net::BuildConnectedGeometricNetwork(geo, &rng).value());
      fields.push_back(
          data::GaussianField::Random(nodes, 40, 60, 1, 9, &rng));
    }
  }

  std::unique_ptr<FleetService> MakeFleet(FleetOptions options) {
    auto fleet = std::make_unique<FleetService>(options);
    for (size_t d = 0; d < topologies.size(); ++d) {
      core::QueryEngineOptions engine_options;
      engine_options.bootstrap_sweeps = 4;
      const data::GaussianField& field = fields[d];
      fleet->AddDeployment(
          &topologies[d], {}, {}, engine_options,
          [&field](Rng* rng) { return field.Sample(rng); },
          /*seed=*/100 + static_cast<uint64_t>(d));
    }
    return fleet;
  }
};

AdmitQueryRequest MakeAdmit(int deployment, int tenant, int k = 3,
                            double budget_mj = 8.0) {
  AdmitQueryRequest req;
  req.deployment_id = deployment;
  req.tenant_id = tenant;
  req.spec.k = k;
  req.spec.energy_budget_mj = budget_mj;
  req.spec.planner = core::PlannerChoice::kGreedy;
  return req;
}

TEST(FleetServiceTest, AdmitActivatesAtEpochBoundary) {
  FleetWorld world(1, /*deployments=*/1, /*nodes=*/20);
  auto fleet = world.MakeFleet({});
  const AdmitQueryResponse admit = fleet->Admit(MakeAdmit(0, 0));
  ASSERT_TRUE(admit.admitted) << admit.message;
  EXPECT_EQ(admit.reject, AdmitReject::kNone);
  EXPECT_GE(admit.query_id, 0);

  // Pending until the boundary: the engine does not see the query yet.
  FleetStatus before = fleet->Snapshot();
  EXPECT_EQ(before.pending_requests, 1);
  EXPECT_EQ(before.standing_queries, 0);
  PollAnswersResponse poll = fleet->Poll({admit.query_id, 0});
  EXPECT_TRUE(poll.known_query);
  EXPECT_TRUE(poll.active);

  auto report = fleet->RunEpoch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->applied_admits, 1);
  FleetStatus after = fleet->Snapshot();
  EXPECT_EQ(after.pending_requests, 0);
  EXPECT_EQ(after.standing_queries, 1);
  EXPECT_EQ(fleet->deployment(0).num_queries(), 1);
}

TEST(FleetServiceTest, TypedRejectionsAndMetrics) {
  obs::MetricsRegistry::Global().ResetAll();
  FleetWorld world(2, 1, 20);
  FleetOptions options;
  options.max_pending_requests = 2;
  auto fleet = world.MakeFleet(options);

  EXPECT_EQ(fleet->Admit(MakeAdmit(9, 0)).reject,
            AdmitReject::kUnknownDeployment);
  EXPECT_EQ(fleet->Admit(MakeAdmit(0, 0, /*k=*/0)).reject,
            AdmitReject::kInvalidSpec);
  EXPECT_EQ(fleet->Admit(MakeAdmit(0, 0, 3, /*budget_mj=*/-1.0)).reject,
            AdmitReject::kInvalidSpec);

  TenantQuota quota;
  quota.max_standing_queries = 1;
  fleet->SetTenantQuota(7, quota);
  ASSERT_TRUE(fleet->Admit(MakeAdmit(0, 7)).admitted);
  const AdmitQueryResponse over_count = fleet->Admit(MakeAdmit(0, 7));
  EXPECT_EQ(over_count.reject, AdmitReject::kTenantQueryQuota);
  EXPECT_FALSE(over_count.message.empty());

  TenantQuota energy;
  energy.max_energy_mj_per_epoch = 10.0;
  fleet->SetTenantQuota(8, energy);
  ASSERT_TRUE(fleet->Admit(MakeAdmit(0, 8, 3, 8.0)).admitted);
  const AdmitQueryResponse over_energy = fleet->Admit(MakeAdmit(0, 8, 3, 8.0));
  EXPECT_EQ(over_energy.reject, AdmitReject::kTenantEnergyQuota);

  // Two standing admits fill the queue; backpressure turns the third away.
  EXPECT_EQ(fleet->Admit(MakeAdmit(0, 9)).reject, AdmitReject::kQueueFull);

  const FleetStatus status = fleet->Snapshot();
  EXPECT_EQ(status.rejects, 6);
  auto kind = [&](AdmitReject r) {
    return status.rejects_by_kind[static_cast<size_t>(r)];
  };
  EXPECT_EQ(kind(AdmitReject::kUnknownDeployment), 1);
  EXPECT_EQ(kind(AdmitReject::kInvalidSpec), 2);
  EXPECT_EQ(kind(AdmitReject::kTenantQueryQuota), 1);
  EXPECT_EQ(kind(AdmitReject::kTenantEnergyQuota), 1);
  EXPECT_EQ(kind(AdmitReject::kQueueFull), 1);

  // Every rejection kind is metered through obs.
#ifndef PROSPECTOR_OBS_DISABLED
  auto& metrics = obs::MetricsRegistry::Global();
  EXPECT_EQ(metrics.counter("service.rejects.unknown_deployment")->value(), 1);
  EXPECT_EQ(metrics.counter("service.rejects.invalid_spec")->value(), 2);
  EXPECT_EQ(metrics.counter("service.rejects.tenant_query_quota")->value(), 1);
  EXPECT_EQ(metrics.counter("service.rejects.tenant_energy_quota")->value(),
            1);
  EXPECT_EQ(metrics.counter("service.rejects.queue_full")->value(), 1);
#endif

  // The queue drains at the boundary; admission resumes.
  ASSERT_TRUE(fleet->RunEpoch().ok());
  EXPECT_TRUE(fleet->Admit(MakeAdmit(0, 9)).admitted);
}

TEST(FleetServiceTest, NonFiniteBudgetsAreInvalidSpecs) {
  FleetWorld world(4, 1, 20);
  auto fleet = world.MakeFleet({});
  TenantQuota capped;
  capped.max_energy_mj_per_epoch = 20.0;
  fleet->SetTenantQuota(5, capped);

  const double inf = std::numeric_limits<double>::infinity();
  for (double budget : {std::nan(""), inf, -inf}) {
    for (int tenant : {5, 6}) {  // with and without an energy cap
      AdmitQueryRequest req = MakeAdmit(0, tenant, 3, budget);
      req.spec.planner = core::PlannerChoice::kLpNoFilter;
      const AdmitQueryResponse resp = fleet->Admit(req);
      EXPECT_FALSE(resp.admitted) << budget;
      EXPECT_EQ(resp.reject, AdmitReject::kInvalidSpec) << budget;
    }
  }
  // Nothing was reserved or queued.
  const FleetStatus status = fleet->Snapshot();
  EXPECT_EQ(status.pending_requests, 0);
  for (const TenantStatus& t : status.per_tenant) {
    EXPECT_EQ(t.standing_queries, 0) << "tenant " << t.tenant_id;
    EXPECT_EQ(t.admitted_budget_mj, 0.0) << "tenant " << t.tenant_id;
  }

  // The cap still binds, and the deployment keeps planning and serving.
  AdmitQueryRequest within = MakeAdmit(0, 5, 3, 15.0);
  within.spec.planner = core::PlannerChoice::kLpNoFilter;
  ASSERT_TRUE(fleet->Admit(within).admitted);
  EXPECT_EQ(fleet->Admit(MakeAdmit(0, 5, 3, 1000.0)).reject,
            AdmitReject::kTenantEnergyQuota);
  for (int e = 0; e < 8; ++e) {
    auto report = fleet->RunEpoch();
    ASSERT_TRUE(report.ok()) << "epoch " << e << ": "
                             << report.status().ToString();
  }
  EXPECT_EQ(fleet->deployment(0).num_queries(), 1);
}

TEST(FleetServiceTest, UnplannableAuditSpecsAreInvalidSpecs) {
  FleetWorld world(4, 1, 20);
  auto fleet = world.MakeFleet({});
  const auto audited = [](double factor) {
    AdmitQueryRequest req = MakeAdmit(0, 5);
    req.spec.audit_every = 2;
    req.spec.audit_budget_factor = factor;
    return req;
  };

  // Below the proof floor, NaN or infinite: no proof plan can exist.
  const double inf = std::numeric_limits<double>::infinity();
  for (double factor : {0.5, 0.999, 0.0, -1.0, std::nan(""), inf, -inf}) {
    const AdmitQueryResponse resp = fleet->Admit(audited(factor));
    EXPECT_FALSE(resp.admitted) << factor;
    EXPECT_EQ(resp.reject, AdmitReject::kInvalidSpec) << factor;
  }
  // Nothing was reserved or queued.
  const FleetStatus status = fleet->Snapshot();
  EXPECT_EQ(status.pending_requests, 0);
  for (const TenantStatus& t : status.per_tenant) {
    EXPECT_EQ(t.standing_queries, 0) << "tenant " << t.tenant_id;
    EXPECT_EQ(t.admitted_budget_mj, 0.0) << "tenant " << t.tenant_id;
  }

  // The factor means nothing without audits, and exactly the floor (1.0)
  // is plannable: both admit, and every epoch, audits included, succeeds.
  AdmitQueryRequest unaudited = audited(std::nan(""));
  unaudited.spec.audit_every = 0;
  ASSERT_TRUE(fleet->Admit(unaudited).admitted);
  const AdmitQueryResponse at_floor = fleet->Admit(audited(1.0));
  ASSERT_TRUE(at_floor.admitted);
  for (int e = 0; e < 12; ++e) {
    auto report = fleet->RunEpoch();
    ASSERT_TRUE(report.ok()) << "epoch " << e << ": "
                             << report.status().ToString();
  }
  EXPECT_EQ(fleet->deployment(0).num_queries(), 2);
  int audits = 0;
  for (const AnswerRecord& a : fleet->Poll({at_floor.query_id, 0}).answers) {
    if (a.kind == core::QueryEngine::QueryEpochKind::kAudit) ++audits;
  }
  EXPECT_GT(audits, 0);
}

TEST(FleetServiceTest, RetireOwnershipLifecycleAndQuotaRelease) {
  FleetWorld world(3, 1, 20);
  auto fleet = world.MakeFleet({});
  TenantQuota quota;
  quota.max_standing_queries = 1;
  fleet->SetTenantQuota(1, quota);

  const AdmitQueryResponse admit = fleet->Admit(MakeAdmit(0, 1));
  ASSERT_TRUE(admit.admitted);
  ASSERT_TRUE(fleet->RunEpoch().ok());

  // Tenants cannot retire each other's queries.
  EXPECT_FALSE(fleet->Retire({admit.query_id, 2}).retired);
  RetireQueryResponse retire = fleet->Retire({admit.query_id, 1});
  EXPECT_TRUE(retire.retired);
  // Idempotence: a second retire of the same query is refused.
  EXPECT_FALSE(fleet->Retire({admit.query_id, 1}).retired);

  // Still active until the boundary; quota stays reserved.
  EXPECT_TRUE(fleet->Poll({admit.query_id, 0}).active);
  EXPECT_EQ(fleet->Admit(MakeAdmit(0, 1)).reject,
            AdmitReject::kTenantQueryQuota);

  auto report = fleet->RunEpoch();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied_retires, 1);
  EXPECT_FALSE(fleet->Poll({admit.query_id, 0}).active);
  EXPECT_EQ(fleet->deployment(0).num_queries(), 0);

  // Quota released; the replacement gets a fresh id — never the old one.
  const AdmitQueryResponse readmit = fleet->Admit(MakeAdmit(0, 1));
  ASSERT_TRUE(readmit.admitted);
  EXPECT_NE(readmit.query_id, admit.query_id);
}

TEST(FleetServiceTest, RetireBeforeActivationAppliesInOrder) {
  FleetWorld world(4, 1, 20);
  auto fleet = world.MakeFleet({});
  const AdmitQueryResponse admit = fleet->Admit(MakeAdmit(0, 0));
  ASSERT_TRUE(admit.admitted);
  // Retire while the admit is still queued: both apply, in order, at the
  // same boundary.
  EXPECT_TRUE(fleet->Retire({admit.query_id, 0}).retired);
  auto report = fleet->RunEpoch();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied_admits, 1);
  EXPECT_EQ(report->applied_retires, 1);
  EXPECT_EQ(fleet->deployment(0).num_queries(), 0);
  const PollAnswersResponse poll = fleet->Poll({admit.query_id, 0});
  EXPECT_TRUE(poll.known_query);
  EXPECT_FALSE(poll.active);
}

TEST(FleetServiceTest, ParallelSchedulerBitIdenticalToSerial) {
  constexpr int kDeployments = 6;
  constexpr int kEpochs = 18;
  FleetWorld world(5, kDeployments, 20);

  FleetOptions serial_options;
  serial_options.scheduler_threads = 1;
  serial_options.answer_ring_capacity = kEpochs;
  FleetOptions parallel_options = serial_options;
  parallel_options.scheduler_threads = 4;

  auto serial = world.MakeFleet(serial_options);
  auto parallel = world.MakeFleet(parallel_options);
  // Per deployment: two Greedy queries, and two audited LP-LF queries
  // with one audit spec, so every engine's audit-plan memo is planned,
  // reused and cleared inside the 4-thread batch.
  std::vector<AdmitQueryRequest> requests;
  for (int d = 0; d < kDeployments; ++d) {
    for (int q = 0; q < 4; ++q) {
      AdmitQueryRequest req = MakeAdmit(d, q, q < 2 ? 3 + q : 3);
      if (q >= 2) {
        req.spec.planner = core::PlannerChoice::kLpNoFilter;
        req.spec.audit_every = 2;
      }
      requests.push_back(req);
    }
  }
  std::vector<int> ids;
  for (const AdmitQueryRequest& req : requests) {
    const auto a = serial->Admit(req);
    const auto b = parallel->Admit(req);
    ASSERT_TRUE(a.admitted && b.admitted);
    ASSERT_EQ(a.query_id, b.query_id);
    ids.push_back(a.query_id);
  }
  for (int e = 0; e < kEpochs; ++e) {
    auto ra = serial->RunEpoch();
    auto rb = parallel->RunEpoch();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->energy_mj, rb->energy_mj) << "epoch " << e;
  }

  // Scheduler output — every buffered answer — must match bit for bit.
  int audits = 0;
  for (const int id : ids) {
    PollAnswersResponse a = serial->Poll({id, 0});
    PollAnswersResponse b = parallel->Poll({id, 0});
    ASSERT_EQ(a.answers.size(), b.answers.size()) << "query " << id;
    EXPECT_GT(a.answers.size(), 0u) << "query " << id;
    for (size_t i = 0; i < a.answers.size(); ++i) {
      const AnswerRecord& x = a.answers[i];
      const AnswerRecord& y = b.answers[i];
      if (x.kind == core::QueryEngine::QueryEpochKind::kAudit) ++audits;
      EXPECT_EQ(x.epoch, y.epoch);
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.recall, y.recall);
      EXPECT_EQ(x.energy_mj, y.energy_mj);
      EXPECT_EQ(x.health, y.health);
      ASSERT_EQ(x.answer.size(), y.answer.size());
      for (size_t j = 0; j < x.answer.size(); ++j) {
        EXPECT_EQ(x.answer[j].node, y.answer[j].node);
        EXPECT_EQ(x.answer[j].value, y.answer[j].value);
      }
    }
  }
  EXPECT_GT(audits, 0);
  const FleetStatus sa = serial->Snapshot();
  const FleetStatus sb = parallel->Snapshot();
  EXPECT_EQ(sa.total_energy_mj, sb.total_energy_mj);
  for (int d = 0; d < kDeployments; ++d) {
    EXPECT_EQ(sa.per_deployment[static_cast<size_t>(d)].total_energy_mj,
              sb.per_deployment[static_cast<size_t>(d)].total_energy_mj);
  }
}

TEST(FleetServiceTest, FleetParallelAdmissionIsThreadSafe) {
  constexpr int kAdmits = 64;
  FleetWorld world(6, 4, 20);
  auto fleet = world.MakeFleet({});
  util::ThreadPool pool(4);
  std::vector<int> got(kAdmits, -1);
  pool.ParallelFor(kAdmits, [&](int i) {
    const AdmitQueryResponse resp =
        fleet->Admit(MakeAdmit(i % 4, i % 3, 2 + i % 4));
    got[i] = resp.admitted ? resp.query_id : -1;
  });
  std::vector<int> ids;
  for (int id : got) {
    ASSERT_GE(id, 0);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());  // all distinct
  ASSERT_TRUE(fleet->RunEpoch().ok());
  EXPECT_EQ(fleet->Snapshot().standing_queries, kAdmits);
}

TEST(FleetServiceTest, FleetCallersRaceEpochsAtTheServiceLock) {
  // Three pool threads admit, poll and retire on their own tenants while
  // the calling thread runs epochs, so Poll and Retire overlap the queue
  // apply and the answer demux.
  constexpr int kCallers = 3;
  constexpr int kEpochs = 20;
  constexpr size_t kStandingPerCaller = 3;
  FleetWorld world(10, /*deployments=*/2, /*nodes=*/16);
  FleetOptions options;
  options.scheduler_threads = 2;
  auto fleet = world.MakeFleet(options);

  struct CallerLog {
    std::vector<int> admitted;
    int retired = 0;
    bool all_known = true;
  };
  std::vector<CallerLog> logs(kCallers);
  std::array<std::atomic<int>, kCallers> iterations{};
  std::atomic<bool> stop{false};
  util::ThreadPool pool(1 + kCallers);
  pool.ParallelFor(1 + kCallers, [&](int part) {
    if (part == 0) {  // the calling thread
      std::array<int, kCallers> seen{};
      for (int e = 0; e < kEpochs; ++e) {
        // Every caller finishes at least one more iteration before each
        // epoch, so the epochs overlap live callers on any schedule.
        for (int c = 0; c < kCallers; ++c) {
          while (iterations[c].load() <= seen[c]) std::this_thread::yield();
          seen[c] = iterations[c].load();
        }
        auto report = fleet->RunEpoch();
        EXPECT_TRUE(report.ok()) << report.status().ToString();
      }
      stop = true;
      return;
    }
    CallerLog& log = logs[static_cast<size_t>(part - 1)];
    const int tenant = part;
    std::deque<int> standing;
    for (int i = 0; !stop.load(); ++i) {
      if (standing.size() < kStandingPerCaller) {
        const AdmitQueryResponse admit =
            fleet->Admit(MakeAdmit(i % 2, tenant));
        if (admit.admitted) {
          log.admitted.push_back(admit.query_id);
          standing.push_back(admit.query_id);
        }
      } else {
        const int id = standing.front();
        standing.pop_front();
        if (fleet->Retire({id, tenant}).retired) ++log.retired;
        log.all_known &= fleet->Poll({id, 0}).known_query;
      }
      for (const int id : standing) {
        log.all_known &= fleet->Poll({id, 0}).known_query;
      }
      ++iterations[static_cast<size_t>(part - 1)];
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // One more boundary applies whatever the callers queued last.
  ASSERT_TRUE(fleet->RunEpoch().ok());

  std::vector<int> ids;
  long long admitted = 0;
  long long retired = 0;
  for (const CallerLog& log : logs) {
    EXPECT_TRUE(log.all_known);
    EXPECT_GT(log.retired, 0);
    ids.insert(ids.end(), log.admitted.begin(), log.admitted.end());
    admitted += static_cast<long long>(log.admitted.size());
    retired += log.retired;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());  // all distinct

  const FleetStatus status = fleet->Snapshot();
  EXPECT_EQ(status.pending_requests, 0);
  EXPECT_EQ(status.admits, admitted);
  EXPECT_EQ(status.retires, retired);
  EXPECT_EQ(status.standing_queries, admitted - retired);
  ASSERT_EQ(status.per_tenant.size(), static_cast<size_t>(kCallers));
  for (const TenantStatus& t : status.per_tenant) {
    const CallerLog& log = logs[static_cast<size_t>(t.tenant_id - 1)];
    EXPECT_EQ(t.standing_queries,
              static_cast<int>(log.admitted.size()) - log.retired)
        << "tenant " << t.tenant_id;
  }
}

TEST(FleetServiceTest, UnissuedIdsPollAndRetireAsUnknown) {
  FleetWorld world(11, 1, 20);
  auto fleet = world.MakeFleet({});
  const AdmitQueryResponse admit = fleet->Admit(MakeAdmit(0, 0));
  ASSERT_TRUE(admit.admitted);
  const int next = admit.query_id + 1;  // the next id the fleet will issue
  for (const int id : {-1, next}) {
    const PollAnswersResponse poll = fleet->Poll({id, 0});
    EXPECT_FALSE(poll.known_query) << id;
    EXPECT_FALSE(poll.active) << id;
    EXPECT_TRUE(poll.answers.empty()) << id;
    const RetireQueryResponse retire = fleet->Retire({id, -1});
    EXPECT_FALSE(retire.retired) << id;
    EXPECT_EQ(retire.message, "unknown query id " + std::to_string(id));
  }
  // Neither queued anything, and the next admission issues `next`.
  EXPECT_EQ(fleet->Snapshot().pending_requests, 1);
  const AdmitQueryResponse second = fleet->Admit(MakeAdmit(0, 0));
  ASSERT_TRUE(second.admitted);
  EXPECT_EQ(second.query_id, next);
  EXPECT_TRUE(fleet->Poll({next, 0}).known_query);
}

TEST(FleetServiceTest, AnswerRingOverflowReportsDrops) {
  FleetWorld world(7, 1, 20);
  FleetOptions options;
  options.answer_ring_capacity = 2;
  auto fleet = world.MakeFleet(options);
  const AdmitQueryResponse admit = fleet->Admit(MakeAdmit(0, 0));
  ASSERT_TRUE(admit.admitted);
  ASSERT_TRUE(fleet->RunEpochs(30).ok());
  PollAnswersResponse poll = fleet->Poll({admit.query_id, 0});
  EXPECT_LE(poll.answers.size(), 2u);
  EXPECT_GT(poll.dropped, 0);
  // Drop accounting is consumed by the poll.
  EXPECT_EQ(fleet->Poll({admit.query_id, 0}).dropped, 0);
}

TEST(FleetServiceTest, HealthReportIsTaggedAndRollsUp) {
  FleetWorld world(8, 2, 20);
  auto fleet = world.MakeFleet({});
  ASSERT_TRUE(fleet->Admit(MakeAdmit(0, 0)).admitted);
  ASSERT_TRUE(fleet->Admit(MakeAdmit(0, 1)).admitted);
  ASSERT_TRUE(fleet->Admit(MakeAdmit(1, 1)).admitted);
  ASSERT_TRUE(fleet->RunEpochs(12).ok());

  const std::vector<core::QueryHealth> report = fleet->HealthReport();
  ASSERT_EQ(report.size(), 3u);
  for (const core::QueryHealth& h : report) {
    EXPECT_GE(h.deployment_id, 0);
    EXPECT_GE(h.tenant_id, 0);
  }
  const auto tenants = core::RollupByTenant(report);
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].id, 0);
  EXPECT_EQ(tenants[0].queries, 1);
  EXPECT_EQ(tenants[1].id, 1);
  EXPECT_EQ(tenants[1].queries, 2);
  const auto deployments = core::RollupByDeployment(report);
  ASSERT_EQ(deployments.size(), 2u);
  EXPECT_EQ(deployments[0].queries, 2);
  EXPECT_EQ(deployments[1].queries, 1);

  // The scrapes parse back to the structs they render, numbers exactly.
  auto health = util::Json::Parse(core::FleetHealthJson(report));
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  ASSERT_EQ(health->members().size(), 3u);
  EXPECT_EQ(health->members()[0].first, "queries");
  EXPECT_EQ(health->members()[1].first, "tenants");
  EXPECT_EQ(health->members()[2].first, "deployments");
  const util::Json& queries = health->at("queries");
  ASSERT_EQ(queries.size(), report.size());
  for (size_t i = 0; i < report.size(); ++i) {
    EXPECT_EQ(queries[i].at("query").number(), report[i].query_id);
    EXPECT_EQ(queries[i].at("deployment").number(), report[i].deployment_id);
    EXPECT_EQ(queries[i].at("tenant").number(), report[i].tenant_id);
    EXPECT_EQ(queries[i].at("mean_energy_mj").number(),
              report[i].mean_energy_mj);
  }
  const auto expect_rollups = [](const util::Json& json,
                                 const std::vector<core::HealthRollup>& want) {
    ASSERT_EQ(json.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(json[i].at("id").number(), want[i].id);
      EXPECT_EQ(json[i].at("queries").number(), want[i].queries);
      EXPECT_EQ(json[i].at("mean_recall").number(), want[i].mean_recall);
      EXPECT_EQ(json[i].at("energy_mj").number(), want[i].energy_mj);
    }
  };
  expect_rollups(health->at("tenants"), tenants);
  expect_rollups(health->at("deployments"), deployments);

  const FleetStatus status = fleet->Snapshot();
  auto status_json = util::Json::Parse(FleetStatusJson(status));
  ASSERT_TRUE(status_json.ok()) << status_json.status().ToString();
  EXPECT_EQ(status_json->at("deployments").number(), 2);
  EXPECT_EQ(status_json->at("standing_queries").number(), 3);
  EXPECT_EQ(status_json->at("total_energy_mj").number(),
            status.total_energy_mj);
  EXPECT_EQ(status_json->at("rejects_by_kind").size(),
            static_cast<size_t>(kAdmitRejectKinds - 1));
  const util::Json& per_tenant = status_json->at("per_tenant");
  ASSERT_EQ(per_tenant.size(), status.per_tenant.size());
  for (size_t i = 0; i < status.per_tenant.size(); ++i) {
    EXPECT_EQ(per_tenant[i].at("tenant").number(),
              status.per_tenant[i].tenant_id);
    EXPECT_EQ(per_tenant[i].at("attributed_energy_mj").number(),
              status.per_tenant[i].attributed_energy_mj);
  }
  const util::Json& per_deployment = status_json->at("per_deployment");
  ASSERT_EQ(per_deployment.size(), status.per_deployment.size());
  for (size_t i = 0; i < status.per_deployment.size(); ++i) {
    EXPECT_EQ(per_deployment[i].at("deployment").number(),
              status.per_deployment[i].deployment_id);
    EXPECT_EQ(per_deployment[i].at("total_energy_mj").number(),
              status.per_deployment[i].total_energy_mj);
  }
}

}  // namespace
}  // namespace service
}  // namespace prospector
