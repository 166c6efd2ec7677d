// Renders observability state — flight-recorder timelines, per-query
// health, OpenMetrics expositions — for humans and CI.
//
//   prospector_obsdump --demo [seed] [outdir]
//       Runs one seeded chaos soak with full instrumentation and writes
//       <outdir>/obsdump_metrics.om   OpenMetrics exposition (+ health)
//       <outdir>/obsdump_health.json  per-query health report
//       <outdir>/obsdump_flight.json  merged flight-recorder timeline
//       (outdir defaults to ".").
//
//   prospector_obsdump --fleet-demo [seed] [outdir]
//       Runs a small multi-tenant fleet (several deployments behind one
//       service::FleetService, with a deliberately tight quota so a typed
//       rejection shows up) and writes
//       <outdir>/obsdump_fleet_metrics.om  exposition incl. per-tenant and
//                                          per-deployment health rollups
//       <outdir>/obsdump_fleet_health.json FleetHealthJson (queries +
//                                          tenant/deployment rollups)
//       <outdir>/obsdump_fleet_status.json FleetStatusJson snapshot
//
//   prospector_obsdump <artifact.json>
//       Pretty-prints the config, violations, and embedded flight
//       timeline of a chaos violation artifact (or any vector file with
//       chaos_replay cases) without re-running anything.
//
// Exits non-zero on I/O or parse errors; rendering a violation artifact
// is itself not a failure (use testvec_replay for the repro run).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "src/core/health.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/obs/openmetrics.h"
#include "src/service/fleet.h"
#include "src/testvec/chaos.h"
#include "src/testvec/testvec.h"
#include "src/util/json.h"
#include "src/util/status.h"

#include <vector>

namespace {

using prospector::Status;
using prospector::testvec::ChaosConfig;
using prospector::testvec::ChaosReport;
using prospector::util::Json;

int Fail(const Status& st) {
  std::fprintf(stderr, "prospector_obsdump: %s\n", st.ToString().c_str());
  return 1;
}

int RunDemo(uint64_t seed, const std::string& outdir) {
  // Start from a clean slate so the exposition describes this run only.
  prospector::obs::MetricsRegistry::Global().ResetAll();

  ChaosConfig config;
  config.seed = seed;
  const ChaosReport report = prospector::testvec::RunChaos(config);

  const std::string exposition =
      prospector::obs::ToOpenMetricsBody(
          prospector::obs::MetricsRegistry::Global().Snapshot()) +
      prospector::core::HealthOpenMetricsBody(report.health) + "# EOF\n";
  const std::string health =
      prospector::core::HealthReportJson(report.health) + "\n";
  const std::string flight =
      prospector::obs::FlightTimelineJson(report.flight).Dump(2) + "\n";

  const std::string prefix = outdir.empty() ? "." : outdir;
  std::error_code ec;
  std::filesystem::create_directories(prefix, ec);
  if (ec) {
    return Fail(Status::Internal("cannot create output directory " + prefix +
                                 ": " + ec.message()));
  }
  struct {
    const char* name;
    const std::string* body;
  } files[] = {
      {"obsdump_metrics.om", &exposition},
      {"obsdump_health.json", &health},
      {"obsdump_flight.json", &flight},
  };
  for (const auto& f : files) {
    const std::string path = prefix + "/" + f.name;
    if (const Status st = prospector::util::WriteFile(path, *f.body);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), f.body->size());
  }
  std::printf(
      "demo: seed=%llu ticks=%d replans=%d rebuilds=%d mean_recall=%.3f "
      "flight_events=%zu violations=%zu\n",
      static_cast<unsigned long long>(config.seed), report.ticks,
      report.replans, report.rebuilds, report.mean_recall(),
      report.flight.size(), report.violations.size());
  for (const prospector::core::QueryHealth& h : report.health) {
    std::printf("  query %d: %s (scored=%d mean_recall=%.3f%s%s)\n",
                h.query_id, prospector::core::HealthStatusName(h.status),
                h.scored_epochs, h.mean_recall,
                h.breached.empty() ? "" : " breached=",
                h.breached.c_str());
  }
  return report.ok() ? 0 : 2;
}

int RunFleetDemo(uint64_t seed, const std::string& outdir) {
  namespace svc = prospector::service;
  prospector::obs::MetricsRegistry::Global().ResetAll();

  constexpr int kDeployments = 4;
  constexpr int kNodes = 24;
  svc::FleetOptions fleet_options;
  fleet_options.scheduler_threads = 2;
  svc::FleetService fleet(fleet_options);
  // Tenant 2 runs under a deliberately tight quota so the demo exposition
  // always carries a typed rejection.
  svc::TenantQuota tight;
  tight.max_standing_queries = 2;
  fleet.SetTenantQuota(2, tight);

  prospector::Rng rng(seed);
  std::vector<prospector::net::Topology> topologies;
  std::vector<prospector::data::GaussianField> fields;
  topologies.reserve(kDeployments);
  fields.reserve(kDeployments);
  for (int d = 0; d < kDeployments; ++d) {
    prospector::net::GeometricNetworkOptions geo;
    geo.num_nodes = kNodes;
    geo.radio_range = 40.0;
    auto topo = prospector::net::BuildConnectedGeometricNetwork(geo, &rng);
    if (!topo.ok()) return Fail(topo.status());
    topologies.push_back(std::move(topo.value()));
    fields.push_back(prospector::data::GaussianField::Random(
        kNodes, 40.0, 60.0, 1.0, 9.0, &rng));
  }
  for (int d = 0; d < kDeployments; ++d) {
    prospector::core::QueryEngineOptions engine_options;
    engine_options.bootstrap_sweeps = 4;
    const prospector::data::GaussianField& field = fields[d];
    fleet.AddDeployment(
        &topologies[d], {}, {}, engine_options,
        [&field](prospector::Rng* r) { return field.Sample(r); },
        seed + static_cast<uint64_t>(d));
  }

  // Three tenants spread queries across the fleet; tenant 2's third
  // admission bounces off its quota.
  for (int i = 0; i < 9; ++i) {
    svc::AdmitQueryRequest req;
    req.deployment_id = i % kDeployments;
    req.tenant_id = i % 3;
    req.spec.k = 3 + (i % 3);
    req.spec.energy_budget_mj = 8.0;
    req.spec.planner = prospector::core::PlannerChoice::kGreedy;
    const svc::AdmitQueryResponse resp = fleet.Admit(req);
    if (!resp.admitted) {
      std::printf("admit rejected (%s): %s\n",
                  svc::AdmitRejectName(resp.reject), resp.message.c_str());
    }
  }
  if (auto run = fleet.RunEpochs(40); !run.ok()) return Fail(run.status());

  const std::vector<prospector::core::QueryHealth> health =
      fleet.HealthReport();
  const std::string exposition =
      prospector::obs::ToOpenMetricsBody(
          prospector::obs::MetricsRegistry::Global().Snapshot()) +
      prospector::core::HealthOpenMetricsBody(health) +
      prospector::core::HealthRollupOpenMetricsBody(
          "tenant", prospector::core::RollupByTenant(health)) +
      prospector::core::HealthRollupOpenMetricsBody(
          "deployment", prospector::core::RollupByDeployment(health)) +
      "# EOF\n";
  const std::string health_json =
      prospector::core::FleetHealthJson(health) + "\n";
  const std::string status_json =
      svc::FleetStatusJson(fleet.Snapshot()) + "\n";

  const std::string prefix = outdir.empty() ? "." : outdir;
  std::error_code ec;
  std::filesystem::create_directories(prefix, ec);
  if (ec) {
    return Fail(Status::Internal("cannot create output directory " + prefix +
                                 ": " + ec.message()));
  }
  struct {
    const char* name;
    const std::string* body;
  } files[] = {
      {"obsdump_fleet_metrics.om", &exposition},
      {"obsdump_fleet_health.json", &health_json},
      {"obsdump_fleet_status.json", &status_json},
  };
  for (const auto& f : files) {
    const std::string path = prefix + "/" + f.name;
    if (const Status st = prospector::util::WriteFile(path, *f.body);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), f.body->size());
  }
  const svc::FleetStatus status = fleet.Snapshot();
  std::printf(
      "fleet demo: seed=%llu deployments=%d epochs=%lld standing=%d "
      "admits=%lld rejects=%lld energy=%.1f mJ\n",
      static_cast<unsigned long long>(seed), status.deployments, status.epoch,
      status.standing_queries, status.admits, status.rejects,
      status.total_energy_mj);
  return 0;
}

void PrintFlightTable(const Json& flight) {
  const Json& events = flight.at("events");
  if (!events.is_array()) return;
  std::printf("  flight timeline (%zu events):\n", events.size());
  std::printf("  %6s  %-28s %-12s %5s %12s %12s\n", "epoch", "site", "kind",
              "query", "a", "b");
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& row = events[i];
    if (!row.is_array() || row.size() != 7) continue;
    std::printf("  %6d  %-28s %-12s %5d %12.6g %12.6g\n", row[0].AsInt(),
                row[1].str().c_str(), row[2].str().c_str(), row[4].AsInt(),
                row[5].number(), row[6].number());
  }
}

int RenderArtifact(const std::string& path) {
  auto doc = prospector::testvec::LoadVectorFile(path);
  if (!doc.ok()) return Fail(doc.status());
  const Json& cases = doc->at("cases");
  if (!cases.is_array()) {
    return Fail(Status::InvalidArgument(path + ": no cases array"));
  }
  int rendered = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Json& c = cases[i];
    const Json* kind = c.Find("kind");
    if (kind == nullptr || !kind->is_string() ||
        kind->str() != "chaos_replay") {
      continue;
    }
    ++rendered;
    std::printf("case '%s':\n", c.at("name").str().c_str());
    std::printf("  config: %s\n", c.at("config").Dump(-1).c_str());
    const Json& violations = c.at("violations");
    if (violations.is_array() && violations.size() > 0) {
      std::printf("  violations (%zu):\n", violations.size());
      for (size_t v = 0; v < violations.size(); ++v) {
        std::printf("    %s\n", violations[v].str().c_str());
      }
    } else {
      std::printf("  violations: none\n");
    }
    const Json* flight = c.Find("flight_recorder");
    if (flight != nullptr && flight->is_object()) {
      PrintFlightTable(*flight);
    } else {
      std::printf(
          "  flight timeline: absent (pre-recorder artifact or "
          "obs-disabled build)\n");
    }
  }
  if (rendered == 0) {
    return Fail(Status::InvalidArgument(path + ": no chaos_replay cases"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
    const uint64_t seed =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 1ULL;
    const std::string outdir = argc >= 4 ? argv[3] : ".";
    return RunDemo(seed, outdir);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--fleet-demo") == 0) {
    const uint64_t seed =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 1ULL;
    const std::string outdir = argc >= 4 ? argv[3] : ".";
    return RunFleetDemo(seed, outdir);
  }
  if (argc == 2) return RenderArtifact(argv[1]);
  std::fprintf(stderr,
               "usage: prospector_obsdump --demo [seed] [outdir]\n"
               "       prospector_obsdump --fleet-demo [seed] [outdir]\n"
               "       prospector_obsdump <artifact.json>\n");
  return 64;
}
