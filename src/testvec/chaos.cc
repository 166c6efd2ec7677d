#include "src/testvec/chaos.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/testvec/testvec.h"
#include "src/util/rng.h"

namespace prospector {
namespace testvec {

using util::Json;

namespace {

/// Engine bootstrap length used by every chaos run. Scripted events all
/// land at or after this epoch, so adversarial effects strike the guarded
/// query/audit executors, not just the window-priming sweeps.
constexpr int kChaosBootstrapSweeps = 6;

const char* KindName(net::FaultEvent::Kind kind) {
  switch (kind) {
    case net::FaultEvent::Kind::kKillNode:
      return "kill_node";
    case net::FaultEvent::Kind::kReviveNode:
      return "revive_node";
    case net::FaultEvent::Kind::kDegradeEdge:
      return "degrade_edge";
    case net::FaultEvent::Kind::kRestoreEdge:
      return "restore_edge";
    case net::FaultEvent::Kind::kPartitionSubtree:
      return "partition_subtree";
    case net::FaultEvent::Kind::kHealSubtree:
      return "heal_subtree";
    case net::FaultEvent::Kind::kDuplicateEdge:
      return "duplicate_edge";
    case net::FaultEvent::Kind::kCorruptEdge:
      return "corrupt_edge";
    case net::FaultEvent::Kind::kDelayEdge:
      return "delay_edge";
  }
  return "unknown";
}

Result<net::FaultEvent::Kind> KindFromName(const std::string& name) {
  using Kind = net::FaultEvent::Kind;
  if (name == "kill_node") return Kind::kKillNode;
  if (name == "revive_node") return Kind::kReviveNode;
  if (name == "degrade_edge") return Kind::kDegradeEdge;
  if (name == "restore_edge") return Kind::kRestoreEdge;
  if (name == "partition_subtree") return Kind::kPartitionSubtree;
  if (name == "heal_subtree") return Kind::kHealSubtree;
  if (name == "duplicate_edge") return Kind::kDuplicateEdge;
  if (name == "corrupt_edge") return Kind::kCorruptEdge;
  if (name == "delay_edge") return Kind::kDelayEdge;
  return Status::InvalidArgument("unknown fault kind '" + name + "'");
}

}  // namespace

Json FaultEventToJson(const net::FaultEvent& e) {
  Json j = Json::Object();
  j.Set("epoch", e.epoch);
  j.Set("kind", KindName(e.kind));
  j.Set("node", e.node);
  j.Set("probability", e.probability);
  j.Set("param", e.param);
  return j;
}

Result<net::FaultEvent> FaultEventFromJson(const Json& j) {
  if (!j.is_object() || !j.at("kind").is_string()) {
    return Status::InvalidArgument("fault event must be an object with kind");
  }
  auto kind = KindFromName(j.at("kind").str());
  if (!kind.ok()) return kind.status();
  net::FaultEvent e;
  e.epoch = j.at("epoch").AsInt();
  e.kind = *kind;
  e.node = j.at("node").AsInt();
  e.probability = j.at("probability").number();
  e.param = j.contains("param") ? j.at("param").AsInt() : 1;
  return e;
}

Json FaultScheduleToJson(const net::FaultSchedule& s) {
  Json arr = Json::Array();
  for (const net::FaultEvent& e : s.events) arr.Append(FaultEventToJson(e));
  return arr;
}

Result<net::FaultSchedule> FaultScheduleFromJson(const Json& j) {
  if (!j.is_array()) {
    return Status::InvalidArgument("fault schedule must be an array");
  }
  net::FaultSchedule s;
  for (size_t i = 0; i < j.size(); ++i) {
    auto e = FaultEventFromJson(j[i]);
    if (!e.ok()) return e.status();
    s.events.push_back(*e);
  }
  return s;
}

Json InjectorStateToJson(const net::FaultInjector& injector) {
  Json dead = Json::Array();
  Json cut = Json::Array();
  Json overrides = Json::Array();
  Json adversaries = Json::Array();
  // -1 is an impossible base probability, so it doubles as the "no
  // override installed" sentinel.
  constexpr double kNoBase = -1.0;
  for (int u = 0; u < injector.num_nodes(); ++u) {
    if (!injector.node_alive(u)) dead.Append(u);
    if (injector.edge_cut(u)) cut.Append(u);
    const double p = injector.EdgeProbability(u, kNoBase);
    if (p != kNoBase) {
      Json pair = Json::Array();
      pair.Append(u);
      pair.Append(p);
      overrides.Append(std::move(pair));
    }
    const net::EdgeAdversary& a = injector.adversary(u);
    if (a.any()) {
      Json adv = Json::Object();
      adv.Set("node", u);
      if (a.has_duplicate) {
        adv.Set("duplicate_prob", a.duplicate_prob);
        adv.Set("duplicate_copies", a.duplicate_copies);
      }
      if (a.has_corrupt) adv.Set("corrupt_prob", a.corrupt_prob);
      if (a.has_delay) {
        adv.Set("delay_prob", a.delay_prob);
        adv.Set("delay_epochs", a.delay_epochs);
      }
      adversaries.Append(std::move(adv));
    }
  }
  Json j = Json::Object();
  j.Set("dead", std::move(dead));
  j.Set("cut", std::move(cut));
  j.Set("overrides", std::move(overrides));
  j.Set("adversaries", std::move(adversaries));
  j.Set("num_dead", injector.num_dead());
  j.Set("any_adversary", injector.any_adversary());
  return j;
}

Json ChaosConfigToJson(const ChaosConfig& c) {
  Json j = Json::Object();
  j.Set("seed", static_cast<int64_t>(c.seed));
  j.Set("num_nodes", c.num_nodes);
  j.Set("epochs", c.epochs);
  j.Set("num_queries", c.num_queries);
  j.Set("naive", c.naive);
  j.Set("strip_duplicates", c.strip_duplicates);
  return j;
}

Result<ChaosConfig> ChaosConfigFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("chaos config must be an object");
  }
  ChaosConfig c;
  c.seed = static_cast<uint64_t>(j.at("seed").number());
  c.num_nodes = j.at("num_nodes").AsInt();
  c.epochs = j.at("epochs").AsInt();
  c.num_queries = j.at("num_queries").AsInt();
  c.naive = j.at("naive").boolean();
  c.strip_duplicates = j.at("strip_duplicates").boolean();
  if (c.num_nodes < 2 || c.epochs < 1 || c.num_queries < 1) {
    return Status::InvalidArgument("chaos config sizes must be positive");
  }
  return c;
}

net::FaultSchedule GenerateChaosSchedule(const ChaosConfig& config,
                                         int num_nodes) {
  // The generator's draws depend only on seed and sizes — never on the
  // naive / strip_duplicates arms — so every arm of one seed injects the
  // same event list (strip_duplicates zeroes probabilities afterwards).
  Rng rng(config.seed ^ 0xc4a05c4ed01eULL);
  net::FaultSchedule s;
  const int first = kChaosBootstrapSweeps;
  const int last = std::max(first + 1, config.epochs - 2);
  const auto pick_epoch = [&]() {
    return first + static_cast<int>(rng.UniformInt(
                       static_cast<uint64_t>(std::max(1, last - first))));
  };
  const auto pick_node = [&]() {
    return 1 + static_cast<int>(rng.UniformInt(
                   static_cast<uint64_t>(std::max(1, num_nodes - 1))));
  };
  const auto later = [&](int e, int spread) {
    return std::min(last, e + 1 + static_cast<int>(rng.UniformInt(
                              static_cast<uint64_t>(spread))));
  };

  // Every schedule carries at least one of each adversarial kind, so the
  // engine always guards and the naive arm always has something to fold.
  {
    const int e = pick_epoch();
    const int v = pick_node();
    s.DuplicateEdge(e, v, rng.Uniform(0.5, 1.0),
                    1 + static_cast<int>(rng.UniformInt(2)));
    if (rng.Bernoulli(0.5)) s.DuplicateEdge(later(e, 6), v, 0.0);
  }
  {
    const int e = pick_epoch();
    const int v = pick_node();
    s.CorruptEdge(e, v, rng.Uniform(0.2, 0.6));
    if (rng.Bernoulli(0.5)) s.CorruptEdge(later(e, 6), v, 0.0);
  }
  {
    const int e = pick_epoch();
    const int v = pick_node();
    s.DelayEdge(e, v, rng.Uniform(0.2, 0.6),
                1 + static_cast<int>(rng.UniformInt(2)));
    if (rng.Bernoulli(0.5)) s.DelayEdge(later(e, 6), v, 0.0);
  }

  // A random mix of every fault tier on top.
  const int extra =
      4 + static_cast<int>(rng.UniformInt(
              static_cast<uint64_t>(1 + config.epochs / 6)));
  for (int i = 0; i < extra; ++i) {
    const int e = pick_epoch();
    const int v = pick_node();
    switch (rng.UniformInt(7)) {
      case 0:
        s.KillNode(e, v);
        if (rng.Bernoulli(0.5)) s.ReviveNode(later(e, 4), v);
        break;
      case 1:
        s.DegradeEdge(e, v, rng.Uniform(0.3, 0.9));
        if (rng.Bernoulli(0.6)) s.RestoreEdge(later(e, 5), v);
        break;
      case 2:
        s.PartitionSubtree(e, v);
        s.HealSubtree(later(e, 3), v);
        break;
      case 3:
        s.DuplicateEdge(e, v, rng.Uniform(0.4, 1.0),
                        1 + static_cast<int>(rng.UniformInt(2)));
        if (rng.Bernoulli(0.5)) s.DuplicateEdge(later(e, 5), v, 0.0);
        break;
      case 4:
        s.CorruptEdge(e, v, rng.Uniform(0.1, 0.5));
        if (rng.Bernoulli(0.5)) s.CorruptEdge(later(e, 5), v, 0.0);
        break;
      case 5:
        s.DelayEdge(e, v, rng.Uniform(0.1, 0.5),
                    1 + static_cast<int>(rng.UniformInt(2)));
        if (rng.Bernoulli(0.5)) s.DelayEdge(later(e, 5), v, 0.0);
        break;
      case 6:
        // A kill with no revive: watchdog-rebuild fodder.
        s.KillNode(e, v);
        break;
    }
  }

  if (config.strip_duplicates) {
    for (net::FaultEvent& e : s.events) {
      if (e.kind == net::FaultEvent::Kind::kDuplicateEdge) {
        e.probability = 0.0;
      }
    }
  }
  return s;
}

ChaosReport RunChaos(const ChaosConfig& config) {
  ChaosReport report;
  report.config = config;
  report.schedule = GenerateChaosSchedule(config, config.num_nodes);

  // A chaos run owns the flight recorder for its duration: clearing
  // here resets per-thread sequence counters so a replay of the same
  // config in the same process yields a byte-identical timeline.
  obs::FlightRecorder::Global().Clear();

  // Topology: geometric placement at roughly the density of the fault
  // recovery experiments, so watchdog rebuilds have reconnection slack.
  Rng topo_rng(config.seed ^ 0x70b0a5eedULL);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = config.num_nodes;
  const double side =
      std::sqrt(static_cast<double>(config.num_nodes) / 0.004);
  geo.width = side;
  geo.height = side;
  geo.radio_range = 25.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &topo_rng);
  if (!topo.ok()) {
    report.violations.push_back("topology: " + topo.status().ToString());
    return report;
  }

  // Transport knobs: one stream, drawn in a fixed order so every arm of
  // one seed sees the same tier-1/2 world. The adversary is always
  // enabled — the simulator then consumes its three draws per delivered
  // message on every edge, which is what makes the strip_duplicates arm
  // bit-identical in everything but duplication.
  Rng knob_rng(config.seed ^ 0x6b0b5ULL);
  core::QueryEngineOptions opts;
  opts.sample_window = 16;
  opts.bootstrap_sweeps = kChaosBootstrapSweeps;
  opts.faults = report.schedule;
  opts.dead_after_epochs = 4;
  opts.rebuild_radio_range = geo.radio_range;
  const net::FailureModel failures =
      net::FailureModel::Uniform(knob_rng.Uniform(0.0, 0.12));
  if (knob_rng.Bernoulli(0.5)) {
    opts.lossy.enabled = true;
    opts.lossy.max_retries = 1 + static_cast<int>(knob_rng.UniformInt(3));
    opts.lossy.backoff_cost_growth = knob_rng.Uniform(1.0, 1.8);
  }
  opts.adversarial.enabled = true;
  opts.adversarial.duplicate_prob = knob_rng.Uniform(0.0, 0.10);
  opts.adversarial.duplicate_copies =
      1 + static_cast<int>(knob_rng.UniformInt(2));
  opts.adversarial.corrupt_prob = knob_rng.Uniform(0.0, 0.08);
  opts.adversarial.delay_prob = knob_rng.Uniform(0.0, 0.10);
  opts.adversarial.delay_epochs =
      1 + static_cast<int>(knob_rng.UniformInt(2));
  if (config.strip_duplicates) opts.adversarial.duplicate_prob = 0.0;
  opts.fencing = config.naive ? core::TransportFencing::kNaive
                              : core::TransportFencing::kFenced;

  core::QueryEngine engine(&*topo, net::EnergyModel{}, failures, opts,
                           config.seed);

  // Query mix: planners rotate, the first query audits periodically
  // (driving the proof executor through the chaos), exploration is
  // scripted off so adversarial epochs hit the guarded executors.
  const auto add_query = [&engine](int idx) {
    core::QuerySpec spec;
    spec.k = 3 + 2 * (idx % 3);
    spec.planner = idx % 3 == 0   ? core::PlannerChoice::kLpFilter
                   : idx % 3 == 1 ? core::PlannerChoice::kGreedy
                                  : core::PlannerChoice::kLpNoFilter;
    spec.audit_every = idx == 0 ? 9 : 0;
    spec.manager.base_explore_probability = 0.0;
    spec.manager.boosted_explore_probability = 0.0;
    engine.AddQuery(spec);
  };
  const int initial_queries = std::max(1, config.num_queries);
  for (int q = 0; q < initial_queries; ++q) add_query(q);
  const int late_epoch = config.num_queries >= 2 ? config.epochs / 2 : -1;

  obs::Counter* audit_failures =
      obs::MetricsRegistry::Global().counter("audit.energy.failures");
  const int64_t audit_failures_before = audit_failures->value();

  Rng truth_rng(config.seed ^ 0x7271ULL);
  std::vector<double> truth(config.num_nodes);
  for (double& v : truth) v = truth_rng.Uniform(0.0, 100.0);

  int prev_values_lost_hi = 0;  // radio values_lost watermark for I2
  int64_t prev_corrupt_rejected = 0;
  for (int e = 0; e < config.epochs; ++e) {
    if (e == late_epoch) add_query(initial_queries);
    for (double& v : truth) {
      v = std::clamp(v + truth_rng.Uniform(-3.0, 3.0), 0.0, 100.0);
    }
    auto tick = engine.Tick(truth);
    if (!tick.ok()) {
      report.violations.push_back("tick " + std::to_string(e) +
                                  " failed: " + tick.status().ToString());
      break;
    }
    ++report.ticks;
    std::vector<std::vector<core::Reading>> row;
    row.reserve(tick->per_query.size());
    for (const auto& qr : tick->per_query) {
      row.push_back(qr.answer);
      if (qr.recall >= 0.0) {
        report.recall_sum += qr.recall;
        ++report.recall_count;
      }
      if (qr.replanned) ++report.replans;
    }
    report.answers.push_back(std::move(row));

    // I2 — flag honesty: an epoch that lost in-flight readings (drops,
    // corruption, or deferral; value-free control messages exempt) must
    // say so. Radio totals are cumulative, so deltas index the epoch.
    const net::TransmissionStats& radio = engine.radio_totals();
    const int lost_now =
        static_cast<int>(radio.values_lost) - prev_values_lost_hi;
    prev_values_lost_hi = static_cast<int>(radio.values_lost);
    if (lost_now > 0 && !tick->degraded) {
      report.violations.push_back(
          "I2: epoch " + std::to_string(e) + " lost " +
          std::to_string(lost_now) +
          " in-flight readings but did not report degraded");
    }
    const core::TransportGuard* guard = engine.transport_guard();
    if (guard != nullptr) {
      const int64_t rejected_now =
          guard->counters().corrupt_rejected - prev_corrupt_rejected;
      prev_corrupt_rejected = guard->counters().corrupt_rejected;
      if (rejected_now > 0 && !tick->degraded) {
        report.violations.push_back(
            "I2: epoch " + std::to_string(e) +
            " rejected a corrupt protocol message but did not report "
            "degraded");
      }
    }
  }

  report.rebuilds = engine.rebuilds();
  report.radio = engine.radio_totals();
  report.engine_energy_mj = engine.total_energy_mj();
  if (engine.transport_guard() != nullptr) {
    report.guard = engine.transport_guard()->counters();
  }

  // I1 — fencing is structural: a fenced protocol never folds stale or
  // duplicate traffic into an answer, whatever the schedule does.
  if (!config.naive) {
    if (report.guard.stale_folded != 0) {
      report.violations.push_back(
          "I1: fenced run folded " +
          std::to_string(report.guard.stale_folded) + " stale messages");
    }
    if (report.guard.duplicates_folded != 0) {
      report.violations.push_back(
          "I1: fenced run folded " +
          std::to_string(report.guard.duplicates_folded) +
          " duplicate copies");
    }
  }

  // I3 — the guard can only reject what the radio actually did. Sweeps
  // and plan installs bypass the guard, so these are inequalities.
  if (report.guard.corrupt_rejected > report.radio.corrupted) {
    report.violations.push_back(
        "I3: guard rejected more corrupt messages (" +
        std::to_string(report.guard.corrupt_rejected) +
        ") than the radio corrupted (" +
        std::to_string(report.radio.corrupted) + ")");
  }
  if (report.guard.deferred > report.radio.delayed) {
    report.violations.push_back(
        "I3: guard deferred more messages (" +
        std::to_string(report.guard.deferred) + ") than the radio delayed (" +
        std::to_string(report.radio.delayed) + ")");
  }
  if (report.guard.duplicates_dropped + report.guard.duplicates_folded >
      report.radio.duplicates) {
    report.violations.push_back(
        "I3: guard saw more duplicate copies (" +
        std::to_string(report.guard.duplicates_dropped +
                       report.guard.duplicates_folded) +
        ") than the radio duplicated (" +
        std::to_string(report.radio.duplicates) + ")");
  }

  // I4 — the energy audit reconciles: phase-claimed totals equal the
  // cumulative radio ledger, and no obs audit tripped mid-run.
  const double scale = std::max(1.0, report.radio.total_energy_mj);
  if (std::abs(report.engine_energy_mj - report.radio.total_energy_mj) >
      1e-6 * scale) {
    report.violations.push_back(
        "I4: engine ledger " + std::to_string(report.engine_energy_mj) +
        " mJ != radio ledger " +
        std::to_string(report.radio.total_energy_mj) + " mJ");
  }
  double attributed = 0.0;
  for (const int id : engine.query_ids()) {
    attributed += engine.total_energy_mj(id);
  }
  if (std::abs(attributed - report.engine_energy_mj) > 1e-6 * scale) {
    report.violations.push_back(
        "I4: per-query attribution " + std::to_string(attributed) +
        " mJ != engine ledger " + std::to_string(report.engine_energy_mj) +
        " mJ");
  }
  const int64_t audit_tripped =
      audit_failures->value() - audit_failures_before;
  if (audit_tripped > 0) {
    report.violations.push_back("I4: " + std::to_string(audit_tripped) +
                                " obs energy-audit checks failed");
  }

  report.health = engine.HealthReport();
  report.flight = obs::FlightRecorder::Global().Snapshot();
  return report;
}

Json ChaosArtifact(const ChaosReport& report) {
  Json c = Json::Object();
  std::string name = "chaos-seed-" + std::to_string(report.config.seed);
  if (report.config.naive) name += "-naive";
  if (report.config.strip_duplicates) name += "-nodup";
  c.Set("name", name);
  c.Set("kind", "chaos_replay");
  c.Set("config", ChaosConfigToJson(report.config));
  c.Set("schedule", FaultScheduleToJson(report.schedule));
  Json violations = Json::Array();
  for (const std::string& v : report.violations) violations.Append(v);
  c.Set("violations", std::move(violations));
#ifndef PROSPECTOR_OBS_DISABLED
  // The merged flight timeline rides along so a violation artifact tells
  // the whole story; replay compares it byte-for-byte (the key is absent
  // from artifacts written by obs-disabled builds, and replay skips the
  // check when either side lacks it).
  c.Set("flight_recorder", obs::FlightTimelineJson(report.flight));
#endif

  Json doc = Json::Object();
  doc.Set("module", "fault_schedule");
  Json cases = Json::Array();
  cases.Append(std::move(c));
  doc.Set("cases", std::move(cases));
  return doc;
}

Status WriteChaosArtifact(const std::string& path, const ChaosReport& report) {
  return util::WriteFile(path, ChaosArtifact(report).Dump(2) + "\n");
}

}  // namespace testvec
}  // namespace prospector
