// Fault-recovery timeline (DESIGN.md, "Failure semantics"): a standing
// top-k query loses an interior node mid-run. The recall series shows
// the three acts — steady state, the dark window while the watchdog
// accumulates evidence, and recovery once the engine rebuilds the tree
// without the dead subtree and replans on the survivors. A second run
// layers lossy transport on top to show graceful degradation instead of
// protocol collapse.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/query_engine.h"
#include "src/data/gaussian_field.h"
#include "src/obs/trace.h"

namespace prospector {
namespace {

constexpr int kNodes = 60;
constexpr int kTop = 5;
constexpr int kKillEpoch = 24;
constexpr int kDeadAfter = 3;
constexpr int kBootstrap = 8;
constexpr double kRange = 24.0;

double Recall(const std::vector<core::Reading>& answer,
              const std::vector<double>& truth,
              const std::vector<int>& eligible, int k) {
  std::vector<core::Reading> pool;
  for (int id : eligible) pool.push_back({id, truth[id]});
  core::SortReadings(&pool);
  if (static_cast<int>(pool.size()) > k) pool.resize(k);
  std::vector<char> in_ans(truth.size(), 0);
  for (const core::Reading& r : answer) in_ans[r.node] = 1;
  int hit = 0;
  for (const core::Reading& r : pool) hit += in_ans[r.node];
  return static_cast<double>(hit) / static_cast<double>(k);
}

void RunTimeline(const char* title, net::LossyTransport lossy,
                 net::FailureModel failures, bench::BenchJson* json,
                 double scenario_id, int epochs) {
  Rng rng(211);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = kNodes;
  geo.radio_range = kRange;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(kNodes, 40, 60, 1, 9, &rng);

  // The scripted casualty: an interior node with children, so its death
  // darkens a whole subtree rather than one leaf.
  int victim = -1;
  for (int u = 0; u < kNodes && victim < 0; ++u) {
    if (u != topo.root() && topo.children(u).size() >= 2) victim = u;
  }
  // Put two of the top readings inside the doomed subtree so the dark
  // window visibly costs recall — exactly the adversarial placement the
  // watchdog exists for.
  field.set_node(topo.children(victim)[0], 90.0, 1.0);
  field.set_node(topo.children(victim)[1], 85.0, 1.0);

  core::QueryEngineOptions opt;
  opt.sample_window = 20;
  opt.bootstrap_sweeps = kBootstrap;
  opt.dead_after_epochs = kDeadAfter;
  opt.rebuild_radio_range = kRange;
  opt.lossy = lossy;
  opt.faults.KillNode(kKillEpoch, victim);
  core::QuerySpec spec;
  spec.k = kTop;
  spec.energy_budget_mj = 60.0;
  spec.manager.base_explore_probability = 0.05;

  core::QueryEngine engine(&topo, net::EnergyModel{}, failures, opt,
                           /*seed=*/17);
  engine.AddQuery(spec);
  std::vector<int> all(kNodes);
  for (int i = 0; i < kNodes; ++i) all[i] = i;

  std::printf("\n-- %s (victim=%d killed at epoch %d) --\n", title, victim,
              kKillEpoch);
  bench::PrintHeader(title, {"epoch", "recall_full", "recall_surv", "mJ",
                             "lost", "degraded", "rebuilt"});
  Rng truth_rng(212);
  int rebuild_epoch = -1;
  RunningStats pre, dark, post;
  for (int e = 0; e < epochs; ++e) {
    const std::vector<double> truth = field.Sample(&truth_rng);
    auto tick = engine.Tick(truth);
    if (!tick.ok()) {
      std::fprintf(stderr, "tick %d: %s\n", e, tick.status().ToString().c_str());
      return;
    }
    if (tick->rebuilt && rebuild_epoch < 0) rebuild_epoch = e;
    const core::QueryEngine::QueryTickResult& q = tick->per_query[0];
    const bool answered =
        q.kind != core::QueryEngine::QueryEpochKind::kBootstrap &&
        q.kind != core::QueryEngine::QueryEpochKind::kExplore;
    const double rf = answered ? Recall(q.answer, truth, all, kTop) : -1.0;
    const double rs =
        answered ? Recall(q.answer, truth, engine.original_ids(), kTop) : -1.0;
    if (answered) {
      if (e < kKillEpoch) {
        pre.Add(rf);
      } else if (rebuild_epoch < 0 || e <= rebuild_epoch) {
        dark.Add(rf);
      } else {
        post.Add(rs);
      }
    }
    bench::PrintRow({static_cast<double>(e), rf, rs, q.energy_mj,
                     static_cast<double>(q.values_lost),
                     q.degraded ? 1.0 : 0.0, tick->rebuilt ? 1.0 : 0.0});
    json->Row({scenario_id, static_cast<double>(e), rf, rs, q.energy_mj,
               static_cast<double>(q.values_lost), q.degraded ? 1.0 : 0.0,
               tick->rebuilt ? 1.0 : 0.0});
  }
  std::printf(
      "\nsteady recall %.3f -> dark-window recall %.3f -> post-rebuild "
      "recall (vs survivors) %.3f; rebuild at epoch %d (%d rebuild%s)\n",
      pre.mean(), dark.mean(), post.mean(), rebuild_epoch,
      engine.rebuilds(), engine.rebuilds() == 1 ? "" : "s");
}

void Run() {
  const int epochs = bench::QueryEpochs(60);
  std::printf("Fault recovery timeline (n=%d, k=%d, kill@%d, watchdog=%d)\n",
              kNodes, kTop, kKillEpoch, kDeadAfter);
  // Every span the engines open below lands in TRACE_fault_recovery.json,
  // loadable in chrome://tracing (or ui.perfetto.dev).
  obs::Tracer::Global().Enable();
  bench::BenchJson json("fault_recovery");
  json.Meta("nodes", kNodes)
      .Meta("k", kTop)
      .Meta("epochs", epochs)
      .Meta("kill_epoch", kKillEpoch)
      .Meta("dead_after_epochs", kDeadAfter)
      .Columns({"scenario", "epoch", "recall_full", "recall_survivors",
                "energy_mj", "values_lost", "degraded", "rebuilt"});

  // Scenario 0: clean transport; the only fault is the scripted death.
  RunTimeline("clean transport + node death", net::LossyTransport{},
              net::FailureModel{}, &json, 0.0, epochs);

  // Scenario 1: the same death under lossy transport (p=0.3, 2 retries) —
  // answers degrade gracefully instead of the protocol collapsing.
  net::LossyTransport lossy;
  lossy.enabled = true;
  lossy.max_retries = 2;
  lossy.backoff_cost_growth = 1.5;
  RunTimeline("lossy transport (p=0.3) + node death", lossy,
              net::FailureModel::Uniform(0.3), &json, 1.0, epochs);

  json.Write();
  obs::Tracer::Global().Disable();
  if (obs::Tracer::Global().WriteChromeTrace("TRACE_fault_recovery.json")) {
    std::printf("wrote TRACE_fault_recovery.json\n");
  }
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
