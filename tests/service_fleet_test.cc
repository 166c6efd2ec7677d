// FleetService: request/response lifecycle, typed quota rejections,
// deterministic epoch scheduling (parallel == serial, bit-identical), and
// tagged health rollups. The Parallel*/Fleet* cases run under TSan in the
// sanitize CI arm.
#include "src/service/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/health.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
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
  std::vector<int> ids;
  for (int d = 0; d < kDeployments; ++d) {
    for (int q = 0; q < 2; ++q) {
      const auto a = serial->Admit(MakeAdmit(d, q, 3 + q));
      const auto b = parallel->Admit(MakeAdmit(d, q, 3 + q));
      ASSERT_TRUE(a.admitted && b.admitted);
      ASSERT_EQ(a.query_id, b.query_id);
      ids.push_back(a.query_id);
    }
  }
  for (int e = 0; e < kEpochs; ++e) {
    auto ra = serial->RunEpoch();
    auto rb = parallel->RunEpoch();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->energy_mj, rb->energy_mj) << "epoch " << e;
  }

  // Scheduler output — every buffered answer — must match bit for bit.
  for (const int id : ids) {
    PollAnswersResponse a = serial->Poll({id, 0});
    PollAnswersResponse b = parallel->Poll({id, 0});
    ASSERT_EQ(a.answers.size(), b.answers.size()) << "query " << id;
    EXPECT_GT(a.answers.size(), 0u) << "query " << id;
    for (size_t i = 0; i < a.answers.size(); ++i) {
      const AnswerRecord& x = a.answers[i];
      const AnswerRecord& y = b.answers[i];
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
  pool.ParallelFor(kAdmits, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const AdmitQueryResponse resp =
          fleet->Admit(MakeAdmit(i % 4, i % 3, 2 + i % 4));
      got[i] = resp.admitted ? resp.query_id : -1;
    }
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

  const std::string json = core::FleetHealthJson(report);
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"deployments\""), std::string::npos);
  EXPECT_NE(FleetStatusJson(fleet->Snapshot()).find("\"per_tenant\""),
            std::string::npos);
}

}  // namespace
}  // namespace service
}  // namespace prospector
