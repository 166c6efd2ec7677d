#include "src/core/oracle.h"

#include <algorithm>

#include "src/core/reading.h"

namespace prospector {
namespace core {

QueryPlan MakeOraclePlan(const net::Topology& topology,
                         const std::vector<double>& truth, int k) {
  std::vector<char> chosen(topology.num_nodes(), 0);
  for (const Reading& r : TrueTopK(truth, k)) chosen[r.node] = 1;
  QueryPlan plan = QueryPlan::NodeSelection(k, std::move(chosen), topology);
  plan.Normalize(topology);
  return plan;
}

QueryPlan MakeOracleProofPlan(const net::Topology& topology,
                              const std::vector<double>& truth, int k) {
  std::vector<char> in_topk(topology.num_nodes(), 0);
  for (const Reading& r : TrueTopK(truth, k)) in_topk[r.node] = 1;

  // Count top-k members per subtree bottom-up.
  std::vector<int> members(topology.num_nodes(), 0);
  for (int u : topology.PostOrder()) {
    members[u] = in_topk[u] ? 1 : 0;
    for (int c : topology.children(u)) members[u] += members[c];
  }

  std::vector<int> bw(topology.num_nodes(), 0);
  for (int u = 0; u < topology.num_nodes(); ++u) {
    if (u == topology.root()) continue;
    bw[u] = std::min(topology.subtree_size(u), members[u] + 1);
  }
  QueryPlan plan = QueryPlan::Bandwidth(k, std::move(bw), /*proof_carrying=*/true);
  plan.Normalize(topology);
  return plan;
}

}  // namespace core
}  // namespace prospector
