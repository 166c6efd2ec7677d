// Ablation: the routing-tree construction the plans run over. The paper
// builds min-hop (BFS) trees for its experiments and cites GHS [5] for
// distributed construction/maintenance; this bench compares the two tree
// shapes on identical placements: construction cost, depth, link weight,
// and what each does to NAIVE-k cost and LP+LF accuracy.
//
// Expected: BFS is shallow (cheaper value paths, better plans); the MST
// minimizes link lengths but grows deep chains that inflate per-value
// transport. A BFS beacon flood is also far cheaper to build than the
// fragment-merging MST protocol.

#include <cstdio>
#include <deque>

#include "bench/bench_util.h"
#include "src/core/lp_filter_planner.h"
#include "src/core/naive.h"
#include "src/data/gaussian_field.h"
#include "src/net/mst.h"

namespace prospector {
namespace {

constexpr int kTop = 10;
constexpr double kBudgetMj = 12.0;

net::Topology BfsTree(const std::vector<net::Point>& pos, double range) {
  const int n = static_cast<int>(pos.size());
  std::vector<int> parents(n, net::Topology::kNoParent);
  std::vector<int> depth(n, -1);
  depth[0] = 0;
  std::deque<int> queue{0};
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v = 1; v < n; ++v) {
      if (depth[v] >= 0) continue;
      if (net::Distance(pos[u], pos[v]) <= range) {
        depth[v] = depth[u] + 1;
        parents[v] = u;
        queue.push_back(v);
      }
    }
  }
  auto t = net::Topology::FromParents(std::move(parents)).value();
  if (!t.set_positions(pos).ok()) std::abort();  // one position per node
  return t;
}

void Evaluate(bench::BenchJson* json, const char* name,
              const net::Topology& topo, const data::GaussianField& field,
              int64_t build_messages) {
  Rng rng(161);
  sampling::SampleSet samples =
      sampling::SampleSet::ForTopK(topo.num_nodes(), kTop);
  for (int s = 0; s < 20; ++s) samples.Add(field.Sample(&rng));
  core::PlannerContext ctx;
  ctx.topology = &topo;

  net::NetworkSimulator sim(&topo, ctx.energy);
  const double naive_cost =
      core::ExpectedCollectionCost(core::MakeNaiveKPlan(topo, kTop), sim);

  core::LpFilterPlanner planner;
  bench::TruthFn truth_fn = [&field](Rng* r) { return field.Sample(r); };
  bench::EvalResult lp;
  const bool ok = bench::PlanAndEvaluate(&planner, ctx, samples, kTop,
                                         kBudgetMj, truth_fn,
                                         bench::QueryEpochs(40), 162, &lp);
  double weight = 0.0;
  for (int v = 1; v < topo.num_nodes(); ++v) {
    weight += net::Distance(topo.positions()[v],
                            topo.positions()[topo.parent(v)]);
  }
  std::printf("%10s %8d %8d %10.1f %12lld %12.2f %14.1f\n", name,
              topo.height(), topo.num_nodes(), weight,
              static_cast<long long>(build_messages), naive_cost,
              ok ? 100.0 * lp.avg_accuracy : -1.0);
  json->Section(name, {"height", "nodes", "weight_m", "build_msgs",
                       "naivek_mJ", "lp_lf_acc_pct"});
  json->Row({double(topo.height()), double(topo.num_nodes()), weight,
             double(build_messages), naive_cost,
             ok ? 100.0 * lp.avg_accuracy : -1.0});
}

void Run() {
  Rng rng(160);
  const int n = 100;
  const double range = 24.0;
  std::vector<net::Point> pos(n);
  pos[0] = {50.0, 50.0};
  for (int i = 1; i < n; ++i) {
    pos[i] = {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
  }
  auto mst = net::BuildDistributedMst(pos, range);
  if (!mst.ok()) {
    std::fprintf(stderr, "%s\n", mst.status().ToString().c_str());
    return;
  }
  data::GaussianField field =
      data::GaussianField::Random(n, 40, 60, 1, 16, &rng);

  std::printf("Routing-tree construction ablation (n=%d, k=%d, LP+LF at "
              "%.0f mJ)\n\n",
              n, kTop, kBudgetMj);
  std::printf("%10s %8s %8s %10s %12s %12s %14s\n", "tree", "height", "nodes",
              "weight_m", "build_msgs", "naivek_mJ", "lp_lf_acc_pct");
  bench::BenchJson json("tree_construction");
  json.Meta("nodes", n).Meta("k", kTop).Meta("budget_mj", kBudgetMj);
  // A BFS beacon flood costs one broadcast per node.
  Evaluate(&json, "bfs", BfsTree(pos, range), field, n);
  Evaluate(&json, "ghs-mst", mst->topology, field, mst->messages);
  json.Write();
  std::printf("\n(MST rounds: %d; the shallow BFS tree keeps per-value "
              "paths short, which the planners prefer.)\n",
              mst->rounds);
}

}  // namespace
}  // namespace prospector

int main() {
  prospector::Run();
  return 0;
}
