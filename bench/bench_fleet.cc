// Fleet serving-layer bench: one service::FleetService carrying 128
// deployments and 1024 standing queries across 8 tenants. Headline
// numbers are admission throughput (queries admitted per second through
// the request/response API, from concurrent callers) and scheduler
// throughput (fleet epochs per second with the deployment ticks batched
// over the worker pool).
//
// Hard gates:
//   * every well-formed admission lands; quota-capped tenants bounce with
//     the exact typed rejection counts;
//   * the parallel scheduler's output — every buffered answer and every
//     energy ledger — is bit-identical to ticking the same fleet
//     sequentially at the same seeds.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/trace.h"
#include "src/service/fleet.h"
#include "src/util/thread_pool.h"

namespace prospector {
namespace {

constexpr int kDeployments = 128;
constexpr int kNodes = 16;
constexpr int kQueriesPerDeployment = 8;  // 1024 standing queries
constexpr int kTenants = 8;
constexpr uint64_t kSeed = 20060403;

struct FleetWorld {
  std::vector<net::Topology> topologies;
  std::vector<data::GaussianField> fields;
};

FleetWorld BuildWorld() {
  FleetWorld world;
  Rng rng(kSeed);
  world.topologies.reserve(kDeployments);
  world.fields.reserve(kDeployments);
  for (int d = 0; d < kDeployments; ++d) {
    net::GeometricNetworkOptions geo;
    geo.num_nodes = kNodes;
    geo.radio_range = 50.0;
    world.topologies.push_back(
        net::BuildConnectedGeometricNetwork(geo, &rng).value());
    world.fields.push_back(
        data::GaussianField::Random(kNodes, 40.0, 60.0, 1.0, 9.0, &rng));
  }
  return world;
}

std::unique_ptr<service::FleetService> MakeFleet(FleetWorld* world,
                                                 int threads,
                                                 size_t ring_capacity) {
  service::FleetOptions options;
  options.scheduler_threads = threads;
  options.answer_ring_capacity = ring_capacity;
  options.max_pending_requests = 0;  // unbounded: the bench ingests in bulk
  auto fleet = std::make_unique<service::FleetService>(options);
  for (int d = 0; d < kDeployments; ++d) {
    core::QueryEngineOptions engine_options;
    engine_options.bootstrap_sweeps = 3;
    const data::GaussianField& field = world->fields[static_cast<size_t>(d)];
    fleet->AddDeployment(
        &world->topologies[static_cast<size_t>(d)], {}, {}, engine_options,
        [&field](Rng* rng) { return field.Sample(rng); },
        kSeed + static_cast<uint64_t>(d));
  }
  return fleet;
}

service::AdmitQueryRequest RequestFor(int i) {
  service::AdmitQueryRequest req;
  req.deployment_id = i % kDeployments;
  req.tenant_id = i % kTenants;
  req.spec.k = 2 + i % 3;
  req.spec.energy_budget_mj = 6.0;
  req.spec.planner = core::PlannerChoice::kGreedy;
  return req;
}

int Run() {
  // The first bootstrap_sweeps epochs emit no query answers, so anything
  // below 5 (CI smoke sets PROSPECTOR_BENCH_EPOCHS=1) would leave the
  // answer rings empty and trip the bit-identity gate vacuously.
  const int epochs = std::max(bench::QueryEpochs(12), 5);
  const int hw = util::ThreadPool::HardwareThreads();
  const int total_queries = kDeployments * kQueriesPerDeployment;
  std::printf("Fleet serving layer: %d deployments x %d nodes, %d queries, "
              "%d tenants, %d epochs, %d scheduler threads\n",
              kDeployments, kNodes, total_queries, kTenants, epochs, hw);
  FleetWorld world = BuildWorld();

  // ---- Arm 1: admission throughput from concurrent callers. ----
  auto ingest = MakeFleet(&world, hw, /*ring_capacity=*/4);
  util::ThreadPool callers(hw);
  std::vector<int> admitted(static_cast<size_t>(total_queries), 0);
  const int64_t admit_start_us = obs::MonotonicNowUs();
  callers.ParallelFor(total_queries, [&](int i) {
    admitted[static_cast<size_t>(i)] =
        ingest->Admit(RequestFor(i)).admitted ? 1 : 0;
  });
  const double admit_secs =
      static_cast<double>(obs::MonotonicNowUs() - admit_start_us) / 1e6;
  int admit_ok = 0;
  for (int a : admitted) admit_ok += a;
  const double admits_per_sec =
      admit_secs > 0 ? static_cast<double>(admit_ok) / admit_secs : 0.0;

  // Quota-capped tenants: attempts past the cap must bounce, typed.
  service::TenantQuota count_quota;
  count_quota.max_standing_queries = 4;
  ingest->SetTenantQuota(99, count_quota);
  service::TenantQuota energy_quota;
  energy_quota.max_energy_mj_per_epoch = 20.0;  // fits 3 x 6 mJ
  ingest->SetTenantQuota(98, energy_quota);
  int count_rejects = 0;
  int energy_rejects = 0;
  for (int i = 0; i < 12; ++i) {
    service::AdmitQueryRequest req = RequestFor(i);
    req.tenant_id = 99;
    if (ingest->Admit(req).reject == service::AdmitReject::kTenantQueryQuota) {
      ++count_rejects;
    }
    if (i < 6) {
      req.tenant_id = 98;
      if (ingest->Admit(req).reject ==
          service::AdmitReject::kTenantEnergyQuota) {
        ++energy_rejects;
      }
    }
  }
  if (auto r = ingest->RunEpoch(); !r.ok()) {
    std::fprintf(stderr, "ingest epoch failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const service::FleetStatus ingest_status = ingest->Snapshot();

  // ---- Arm 2: scheduler throughput + bit-identity vs sequential. ----
  auto parallel = MakeFleet(&world, hw, static_cast<size_t>(epochs) + 4);
  auto serial = MakeFleet(&world, 1, static_cast<size_t>(epochs) + 4);
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(total_queries));
  for (int i = 0; i < total_queries; ++i) {
    const auto a = parallel->Admit(RequestFor(i));
    const auto b = serial->Admit(RequestFor(i));
    if (!a.admitted || !b.admitted || a.query_id != b.query_id) {
      std::fprintf(stderr, "FAIL: admission diverged at request %d\n", i);
      return 1;
    }
    ids.push_back(a.query_id);
  }
  const int64_t epoch_start_us = obs::MonotonicNowUs();
  if (auto r = parallel->RunEpochs(epochs); !r.ok()) {
    std::fprintf(stderr, "parallel fleet failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const double epoch_secs =
      static_cast<double>(obs::MonotonicNowUs() - epoch_start_us) / 1e6;
  const double epochs_per_sec =
      epoch_secs > 0 ? static_cast<double>(epochs) / epoch_secs : 0.0;
  if (auto r = serial->RunEpochs(epochs); !r.ok()) {
    std::fprintf(stderr, "serial fleet failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }

  // Bit-identity: fleet totals, every deployment ledger, every answer.
  const service::FleetStatus ps = parallel->Snapshot();
  const service::FleetStatus ss = serial->Snapshot();
  bool identical = ps.total_energy_mj == ss.total_energy_mj;
  for (int d = 0; d < kDeployments && identical; ++d) {
    identical = ps.per_deployment[static_cast<size_t>(d)].total_energy_mj ==
                ss.per_deployment[static_cast<size_t>(d)].total_energy_mj;
  }
  long long answers_compared = 0;
  for (const int id : ids) {
    if (!identical) break;
    service::PollAnswersResponse a = parallel->Poll({id, 0});
    service::PollAnswersResponse b = serial->Poll({id, 0});
    if (a.answers.size() != b.answers.size()) {
      identical = false;
      break;
    }
    for (size_t i = 0; i < a.answers.size() && identical; ++i) {
      const service::AnswerRecord& x = a.answers[i];
      const service::AnswerRecord& y = b.answers[i];
      identical = x.epoch == y.epoch && x.kind == y.kind &&
                  x.recall == y.recall && x.energy_mj == y.energy_mj &&
                  x.answer.size() == y.answer.size();
      for (size_t j = 0; j < x.answer.size() && identical; ++j) {
        identical = x.answer[j].node == y.answer[j].node &&
                    x.answer[j].value == y.answer[j].value;
      }
      ++answers_compared;
    }
  }

  bench::BenchJson json("fleet");
  json.Seed(kSeed)
      .Meta("deployments", kDeployments)
      .Meta("nodes_per_deployment", kNodes)
      .Meta("queries", total_queries)
      .Meta("tenants", kTenants)
      .Meta("epochs", epochs)
      .HostFact("scheduler_threads", hw);

  const double query_epochs_per_sec =
      epochs_per_sec * static_cast<double>(total_queries);
  bench::TableHeader(&json, "Throughput",
                     {"queries", "admit_s", "admits_per_s", "epoch_s",
                      "epochs_per_s", "query_epochs_per_s"});
  json.WallClock({"admit_s", "admits_per_s", "epoch_s", "epochs_per_s",
                  "query_epochs_per_s"});
  bench::TableRow(&json, {static_cast<double>(total_queries), admit_secs,
                          admits_per_sec, epoch_secs, epochs_per_sec,
                          query_epochs_per_sec});
  bench::TableHeader(&json, "BitIdentity",
                     {"identical", "answers_compared", "parallel_mJ",
                      "serial_mJ"});
  bench::TableRow(&json, {identical ? 1.0 : 0.0,
                          static_cast<double>(answers_compared),
                          ps.total_energy_mj, ss.total_energy_mj});
  bench::TableHeader(&json, "Rejections",
                     {"tenant_query_quota", "tenant_energy_quota", "total"});
  bench::TableRow(&json, {static_cast<double>(count_rejects),
                          static_cast<double>(energy_rejects),
                          static_cast<double>(ingest_status.rejects)});

  std::printf("\nadmitted %d/%d queries in %.3f s (%.0f/s); %d epochs in "
              "%.3f s (%.2f/s, %.0f query-epochs/s)\n",
              admit_ok, total_queries, admit_secs, admits_per_sec, epochs,
              epoch_secs, epochs_per_sec, query_epochs_per_sec);
  std::printf("bit-identity: %s (%lld answers compared); quota rejects: "
              "%d by count, %d by energy\n",
              identical ? "parallel == serial" : "DIVERGED", answers_compared,
              count_rejects, energy_rejects);

  if (!json.Write()) return 1;

  // ---- Hard acceptance gates. ----
  if (admit_ok != total_queries) {
    std::fprintf(stderr, "FAIL: only %d/%d admissions landed\n", admit_ok,
                 total_queries);
    return 1;
  }
  if (ingest_status.standing_queries !=
      total_queries + count_quota.max_standing_queries + 3) {
    std::fprintf(stderr, "FAIL: ingest fleet stands %d queries, expected %d\n",
                 ingest_status.standing_queries,
                 total_queries + count_quota.max_standing_queries + 3);
    return 1;
  }
  if (count_rejects != 12 - count_quota.max_standing_queries ||
      energy_rejects != 3) {
    std::fprintf(stderr,
                 "FAIL: quota rejections off (count %d, energy %d)\n",
                 count_rejects, energy_rejects);
    return 1;
  }
  const auto kind = [&](service::AdmitReject r) {
    return ingest_status.rejects_by_kind[static_cast<size_t>(r)];
  };
  if (kind(service::AdmitReject::kTenantQueryQuota) != count_rejects ||
      kind(service::AdmitReject::kTenantEnergyQuota) != energy_rejects) {
    std::fprintf(stderr, "FAIL: typed rejection counters disagree\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: parallel scheduler diverged from sequential ticking\n");
    return 1;
  }
  if (answers_compared == 0) {
    std::fprintf(stderr, "FAIL: no answers reached the poll rings\n");
    return 1;
  }
  std::printf("all fleet gates passed\n");
  return 0;
}

}  // namespace
}  // namespace prospector

int main() { return prospector::Run(); }
