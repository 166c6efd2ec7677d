#include "src/net/rebuild.h"

#include <algorithm>
#include <deque>

namespace prospector {
namespace net {

Result<RebuiltTopology> RebuildWithoutNodes(const Topology& topology,
                                            const std::vector<int>& dead_nodes,
                                            double radio_range) {
  const int n = topology.num_nodes();
  if (topology.positions().empty()) {
    return Status::FailedPrecondition(
        "rebuild needs a geometric topology (node positions)");
  }
  std::vector<char> dead(n, 0);
  for (int d : dead_nodes) {
    if (d < 0 || d >= n) {
      return Status::InvalidArgument("dead node id out of range: " +
                                     std::to_string(d));
    }
    if (d == topology.root()) {
      return Status::InvalidArgument("the root (base station) cannot die");
    }
    dead[d] = 1;
  }
  const std::vector<Point>& pos = topology.positions();

  // BFS over surviving nodes' radio graph, from the actual root (which is
  // not necessarily node 0 — Topology supports arbitrary root ids).
  const int root = topology.root();
  std::vector<int> old_parent(n, Topology::kNoParent);
  std::vector<int> depth(n, -1);
  depth[root] = 0;
  std::deque<int> queue{root};
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v = 0; v < n; ++v) {
      if (dead[v] || depth[v] >= 0) continue;
      if (Distance(pos[u], pos[v]) <= radio_range) {
        depth[v] = depth[u] + 1;
        old_parent[v] = u;
        queue.push_back(v);
      }
    }
  }

  RebuiltTopology out;
  out.new_id.assign(n, -1);
  int next = 0;
  for (int i = 0; i < n; ++i) {
    if (depth[i] >= 0) {
      out.new_id[i] = next++;
    } else if (!dead[i]) {
      out.orphaned.push_back(i);
    }
  }

  std::vector<int> parents(next, Topology::kNoParent);
  std::vector<Point> new_pos(next);
  for (int i = 0; i < n; ++i) {
    if (out.new_id[i] < 0) continue;
    new_pos[out.new_id[i]] = pos[i];
    if (i != root) parents[out.new_id[i]] = out.new_id[old_parent[i]];
  }
  auto topo = Topology::FromParents(std::move(parents));
  if (!topo.ok()) return topo.status();
  PROSPECTOR_RETURN_IF_ERROR(topo.value().set_positions(std::move(new_pos)));
  out.topology = std::move(topo.value());
  return out;
}

}  // namespace net
}  // namespace prospector
