#include "src/core/greedy_planner.h"

#include <algorithm>
#include <vector>

#include "src/obs/obs.h"

namespace prospector {
namespace core {

Result<QueryPlan> GreedyPlanner::Plan(const PlannerContext& ctx,
                                      const sampling::SampleSet& samples,
                                      const PlanRequest& request) {
  PROSPECTOR_SPAN("planner.greedy.plan");
  last_stats_ = PlannerStats{};
  const net::Topology& topo = *ctx.topology;
  const int n = topo.num_nodes();
  const int root = topo.root();
  if (samples.num_nodes() != n) {
    return Status::InvalidArgument("sample set does not match topology size");
  }

  // Candidate order: descending column sum, then node id (deterministic).
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    if (i != root) order.push_back(i);
  }
  const std::vector<int>& colsum = samples.column_sums();
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (colsum[a] != colsum[b]) return colsum[a] > colsum[b];
    return a < b;
  });

  std::vector<char> chosen(n, 0);
  std::vector<char> edge_used(n, 0);
  double cost = 0.0;
  for (int i : order) {
    if (colsum[i] == 0) break;  // remaining nodes never contributed
    double added = ctx.NodeAcquisitionCost();
    for (int e : topo.PathEdges(i)) {
      added += ctx.EdgePerValueCost(e);
      if (!edge_used[e]) added += ctx.EdgeFixedCost(e);
    }
    if (cost + added > request.energy_budget_mj) break;
    cost += added;
    chosen[i] = 1;
    for (int e : topo.PathEdges(i)) edge_used[e] = 1;
  }

  QueryPlan plan = QueryPlan::NodeSelection(request.k, std::move(chosen), topo);
  plan.Normalize(topo);
  return plan;
}

}  // namespace core
}  // namespace prospector
