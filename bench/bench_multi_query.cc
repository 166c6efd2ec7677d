// Multi-query engine bench: four co-resident top-k queries on one
// core::QueryEngine (merged superplan, one trigger wave, one sweep feeding
// every sample window) versus the same four queries each alone on its own
// engine, on the Figure-3 deployment with identical truth sequences.
//
// Expected shape: the shared engine's total energy lands well below the
// independent sum (the bench fails unless the saving is >= 25%), while
// each query's recall matches its standalone run — the merged execution
// is demultiplexed bit-identically, which the bench asserts directly on
// the final superplan.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/plan_merge.h"
#include "src/core/query_engine.h"
#include "src/data/gaussian_field.h"
#include "src/net/topology.h"
#include "src/obs/audit.h"

namespace prospector {
namespace {

constexpr int kNodes = 100;
constexpr uint64_t kSeed = 5;
constexpr int kBootstrap = 8;

struct QueryConfig {
  int k;
  double budget_mj;
  core::PlannerChoice planner;
};

core::QuerySpec SpecFor(const QueryConfig& cfg) {
  core::QuerySpec spec;
  spec.k = cfg.k;
  spec.energy_budget_mj = cfg.budget_mj;
  spec.planner = cfg.planner;
  return spec;
}

struct RecallStats {
  RunningStats recall;
};

// Demux fidelity: executing the engine's final superplan must be
// bit-identical, query by query, to executing each constituent plan alone
// (loss-free), and the per-query attribution must reconcile against the
// audited total.
bool CheckSuperplanFidelity(const core::Superplan& sp,
                            const net::Topology& topo,
                            const std::vector<double>& truth) {
  net::NetworkSimulator merged_sim(&topo, {}, {}, 99);
  const core::SuperplanResult merged =
      core::SuperplanExecutor::Execute(sp, truth, &merged_sim);
  double attributed = 0.0;
  for (double a : merged.attributed_mj) attributed += a;
  if (!obs::CheckEnergyLedger(attributed, merged.total_energy_mj()).ok) {
    std::fprintf(stderr,
                 "FAIL: attribution %.9f mJ != superplan total %.9f mJ\n",
                 attributed, merged.total_energy_mj());
    return false;
  }
  for (int q = 0; q < sp.num_queries(); ++q) {
    net::NetworkSimulator solo_sim(&topo, {}, {}, 99);
    const core::ExecutionResult alone =
        core::CollectionExecutor::Execute(sp.plans[q], truth, &solo_sim);
    if (merged.per_query[q].answer != alone.answer ||
        merged.per_query[q].arrived != alone.arrived) {
      std::fprintf(stderr, "FAIL: demux of query %d not bit-identical\n",
                   sp.query_ids[q]);
      return false;
    }
  }
  return true;
}

int Run() {
  const int query_epochs = bench::QueryEpochs(60);
  Rng rng(20060403);
  net::GeometricNetworkOptions geo;
  geo.num_nodes = kNodes;
  geo.radio_range = 22.0;
  auto topo = net::BuildConnectedGeometricNetwork(geo, &rng).value();
  data::GaussianField field =
      data::GaussianField::Random(kNodes, 40.0, 60.0, 1.0, 16.0, &rng);

  const std::vector<QueryConfig> configs = {
      {10, 12.0, core::PlannerChoice::kLpFilter},
      {5, 8.0, core::PlannerChoice::kLpNoFilter},
      {20, 16.0, core::PlannerChoice::kLpFilter},
      {4, 6.0, core::PlannerChoice::kGreedy},
  };
  const int num_queries = static_cast<int>(configs.size());

  std::printf("Multi-query engine: %d co-resident queries vs independent "
              "sessions (n=%d, %d query epochs)\n",
              num_queries, kNodes, query_epochs);

  // ---- Shared arm: one engine, one radio, four queries. ----
  core::QueryEngineOptions eopts;
  eopts.bootstrap_sweeps = kBootstrap;
  core::QueryEngine engine(&topo, {}, {}, eopts, kSeed);
  std::vector<int> ids;
  for (const QueryConfig& cfg : configs) {
    ids.push_back(engine.AddQuery(SpecFor(cfg)));
  }

  // The truth sequence is generated once and replayed for both arms.
  std::vector<std::vector<double>> truths;
  Rng truth_rng(777);
  std::vector<RecallStats> shared(num_queries);
  int shared_query_epochs = 0;
  const int max_ticks = kBootstrap + query_epochs + 50;
  while (static_cast<int>(truths.size()) < max_ticks &&
         shared_query_epochs < query_epochs) {
    truths.push_back(field.Sample(&truth_rng));
    auto r = engine.Tick(truths.back());
    if (!r.ok()) {
      std::fprintf(stderr, "engine tick failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (r->kind == core::QueryEngine::EpochKind::kQuery) {
      ++shared_query_epochs;
      for (int q = 0; q < num_queries; ++q) {
        if (r->per_query[q].recall >= 0) {
          shared[q].recall.Add(r->per_query[q].recall);
        }
      }
    }
  }
  if (shared_query_epochs == 0) {
    std::fprintf(stderr, "FAIL: shared arm never reached a query epoch\n");
    return 1;
  }

  // ---- Independent arm: four one-query engines, same truths. ----
  std::vector<RecallStats> solo(num_queries);
  double independent_total_mj = 0.0;
  std::vector<double> solo_total_mj(num_queries, 0.0);
  for (int q = 0; q < num_queries; ++q) {
    core::QueryEngine alone(&topo, {}, {}, eopts, kSeed);
    alone.AddQuery(SpecFor(configs[q]));
    for (const std::vector<double>& truth : truths) {
      auto r = alone.Tick(truth);
      if (!r.ok()) {
        std::fprintf(stderr, "one-query engine tick failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (r->per_query[0].recall >= 0) {
        solo[q].recall.Add(r->per_query[0].recall);
      }
    }
    solo_total_mj[q] = alone.total_energy_mj();
    independent_total_mj += alone.total_energy_mj();
  }

  const double shared_total_mj = engine.total_energy_mj();
  const double savings =
      1.0 - shared_total_mj / independent_total_mj;

  bench::BenchJson json("multi_query");
  json.Seed(20060403).Meta("nodes", kNodes)
      .Meta("queries", num_queries)
      .Meta("query_epochs", shared_query_epochs)
      .Meta("ticks", static_cast<double>(truths.size()));

  bench::TableHeader(&json, "Arms",
                     {"shared", "total_mJ", "sampling_mJ", "query_mJ"});
  bench::TableRow(&json, {1.0, shared_total_mj, engine.sampling_energy_mj(),
                          engine.query_energy_mj()});
  bench::TableRow(&json, {0.0, independent_total_mj, -1.0, -1.0});

  bench::TableHeader(&json, "Savings",
                     {"shared_total_mJ", "independent_total_mJ",
                      "savings_pct"});
  bench::TableRow(&json, {shared_total_mj, independent_total_mj,
                          100.0 * savings});

  bench::TableHeader(&json, "PerQuery",
                     {"query", "k", "budget_mJ", "recall_shared",
                      "recall_solo", "shared_attr_mJ", "solo_total_mJ"});
  for (int q = 0; q < num_queries; ++q) {
    bench::TableRow(&json, {static_cast<double>(ids[q]),
                            static_cast<double>(configs[q].k),
                            configs[q].budget_mj, shared[q].recall.mean(),
                            solo[q].recall.mean(),
                            engine.total_energy_mj(ids[q]),
                            solo_total_mj[q]});
  }

  std::printf("\nshared %.2f mJ vs independent %.2f mJ (savings %.1f%%)\n",
              shared_total_mj, independent_total_mj, 100.0 * savings);

  if (!json.Write()) return 1;

  // ---- Hard acceptance gates. ----
  if (savings < 0.25) {
    std::fprintf(stderr,
                 "FAIL: shared engine saved only %.1f%% (< 25%%) vs "
                 "independent engines\n",
                 100.0 * savings);
    return 1;
  }
  const core::Superplan& sp = engine.superplan();
  if (sp.num_queries() != num_queries) {
    std::fprintf(stderr, "FAIL: engine never merged all %d queries\n",
                 num_queries);
    return 1;
  }
  if (!CheckSuperplanFidelity(sp, engine.topology(), truths.back())) {
    return 1;
  }
  // Loss-free demux means recall per epoch equals what the very same plan
  // would score standalone; across arms the plans can differ only through
  // the exploration schedule, so mean recall must stay comparable.
  for (int q = 0; q < num_queries; ++q) {
    if (shared[q].recall.mean() + 0.15 < solo[q].recall.mean()) {
      std::fprintf(stderr,
                   "FAIL: query %d recall dropped under sharing "
                   "(%.3f vs %.3f standalone)\n",
                   ids[q], shared[q].recall.mean(), solo[q].recall.mean());
      return 1;
    }
  }
  std::printf("all multi-query gates passed\n");
  return 0;
}

}  // namespace
}  // namespace prospector

int main() { return prospector::Run(); }
