#include "src/net/mst.h"

#include <algorithm>
#include <deque>
#include <tuple>

namespace prospector {
namespace net {
namespace {

struct Edge {
  int a, b;        // a < b
  double weight;   // distance

  // Unique total order: (distance, a, b).
  std::tuple<double, int, int> Key() const { return {weight, a, b}; }
};

std::vector<Edge> RadioEdges(const std::vector<Point>& pos, double range) {
  std::vector<Edge> edges;
  const int n = static_cast<int>(pos.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double d = Distance(pos[a], pos[b]);
      if (d <= range) edges.push_back({a, b, d});
    }
  }
  return edges;
}

// Union-find with path halving.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent[b] = a;
    return true;
  }
};

}  // namespace

Result<std::vector<std::pair<int, int>>> KruskalReference(
    const std::vector<Point>& positions, double radio_range) {
  const int n = static_cast<int>(positions.size());
  std::vector<Edge> edges = RadioEdges(positions, radio_range);
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.Key() < y.Key(); });
  UnionFind uf(n);
  std::vector<std::pair<int, int>> mst;
  for (const Edge& e : edges) {
    if (uf.Union(e.a, e.b)) mst.emplace_back(e.a, e.b);
  }
  if (static_cast<int>(mst.size()) != n - 1) {
    return Status::FailedPrecondition("radio graph is disconnected");
  }
  std::sort(mst.begin(), mst.end());
  return mst;
}

Result<DistributedMstResult> BuildDistributedMst(
    const std::vector<Point>& positions, double radio_range) {
  const int n = static_cast<int>(positions.size());
  if (n == 0) return Status::InvalidArgument("no nodes");
  std::vector<Edge> edges = RadioEdges(positions, radio_range);

  // Incident edge lists for the per-node probing cost.
  std::vector<std::vector<int>> incident(n);
  for (size_t i = 0; i < edges.size(); ++i) {
    incident[edges[i].a].push_back(static_cast<int>(i));
    incident[edges[i].b].push_back(static_cast<int>(i));
  }

  DistributedMstResult result;
  UnionFind uf(n);
  std::vector<std::pair<int, int>> chosen;
  int fragments = n;
  while (fragments > 1) {
    ++result.rounds;
    // Each fragment's minimum-weight outgoing edge (MWOE), found by every
    // node test-probing its incident edges and convergecasting the local
    // minimum to its fragment core.
    std::vector<int> mwoe(n, -1);  // fragment root -> edge index
    for (int v = 0; v < n; ++v) {
      const int frag = uf.Find(v);
      for (int ei : incident[v]) {
        const Edge& e = edges[ei];
        ++result.messages;  // test message across the edge
        if (uf.Find(e.a) == uf.Find(e.b)) continue;  // internal: rejected
        if (mwoe[frag] < 0 || e.Key() < edges[mwoe[frag]].Key()) {
          mwoe[frag] = ei;
        }
      }
    }
    // Convergecast the winners + broadcast the merge decision: two
    // messages per node of each fragment.
    result.messages += 2 * n;

    // Merge along every fragment's MWOE (all recorded before any union, as
    // in Boruvka; the unique edge order makes every MWOE safe and the
    // union-find drops the duplicate when two fragments pick each other).
    bool merged_any = false;
    for (int f = 0; f < n; ++f) {
      if (mwoe[f] < 0) continue;
      const Edge& e = edges[mwoe[f]];
      if (uf.Union(e.a, e.b)) {
        chosen.emplace_back(std::min(e.a, e.b), std::max(e.a, e.b));
        --fragments;
        merged_any = true;
      }
    }
    if (!merged_any) {
      return Status::FailedPrecondition("radio graph is disconnected");
    }
  }

  // Root the MST at node 0 by BFS over the chosen edges.
  std::vector<std::vector<int>> adj(n);
  for (const auto& [a, b] : chosen) {
    adj[a].push_back(b);
    adj[b].push_back(a);
    result.total_weight += Distance(positions[a], positions[b]);
  }
  std::vector<int> parents(n, Topology::kNoParent);
  std::vector<char> seen(n, 0);
  seen[0] = 1;
  std::deque<int> queue{0};
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v : adj[u]) {
      if (seen[v]) continue;
      seen[v] = 1;
      parents[v] = u;
      queue.push_back(v);
    }
  }
  auto topo = Topology::FromParents(std::move(parents));
  if (!topo.ok()) return topo.status();
  PROSPECTOR_RETURN_IF_ERROR(topo.value().set_positions(positions));
  result.topology = std::move(topo.value());
  return result;
}

}  // namespace net
}  // namespace prospector
