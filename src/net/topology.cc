#include "src/net/topology.h"

#include <algorithm>
#include <deque>
#include <numeric>

namespace prospector {
namespace net {

Result<Topology> Topology::FromParents(std::vector<int> parents) {
  const int n = static_cast<int>(parents.size());
  if (n == 0) return Status::InvalidArgument("empty parent vector");
  int root = kNoParent;
  for (int i = 0; i < n; ++i) {
    if (parents[i] == kNoParent) {
      if (root != kNoParent) {
        return Status::InvalidArgument("multiple roots: nodes " +
                                       std::to_string(root) + " and " +
                                       std::to_string(i) + " have parent -1");
      }
      root = i;
    } else if (parents[i] < 0 || parents[i] >= n || parents[i] == i) {
      return Status::InvalidArgument("node " + std::to_string(i) +
                                     " has invalid parent " +
                                     std::to_string(parents[i]));
    }
  }
  if (root == kNoParent) {
    return Status::InvalidArgument("no root: some node must have parent -1");
  }

  Topology t;
  t.root_ = root;
  t.parents_ = std::move(parents);
  t.children_.assign(n, {});
  for (int i = 0; i < n; ++i) {
    if (i != root) t.children_[t.parents_[i]].push_back(i);
  }

  // BFS from the root assigns depths and detects unreachable nodes
  // (which imply a cycle or a forest).
  t.depth_.assign(n, -1);
  t.pre_order_.clear();
  t.pre_order_.reserve(n);
  std::deque<int> queue{root};
  t.depth_[root] = 0;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    t.pre_order_.push_back(u);
    for (int c : t.children_[u]) {
      t.depth_[c] = t.depth_[u] + 1;
      queue.push_back(c);
    }
  }
  if (static_cast<int>(t.pre_order_.size()) != n) {
    return Status::InvalidArgument("parent vector does not describe a tree");
  }
  t.height_ = *std::max_element(t.depth_.begin(), t.depth_.end());

  // Post-order: reverse BFS order visits every child before its parent.
  t.post_order_.assign(t.pre_order_.rbegin(), t.pre_order_.rend());

  t.subtree_size_.assign(n, 1);
  for (int u : t.post_order_) {
    if (u != root) t.subtree_size_[t.parents_[u]] += t.subtree_size_[u];
  }

  t.ancestors_.resize(n);
  t.path_edges_.resize(n);
  t.descendants_.resize(n);
  for (int u = 0; u < n; ++u) {
    std::vector<int>& anc = t.ancestors_[u];
    anc.reserve(t.depth_[u] + 1);
    for (int a = u; a != kNoParent; a = t.parents_[a]) anc.push_back(a);
    // Every ancestor but the root owns an edge of u's root path.
    t.path_edges_[u].assign(anc.begin(), anc.end() - 1);
    // desc(u): a breadth-first walk of u's subtree.
    std::vector<int>& desc = t.descendants_[u];
    desc.reserve(t.subtree_size_[u]);
    desc.push_back(u);
    for (size_t i = 0; i < desc.size(); ++i) {
      for (int c : t.children_[desc[i]]) desc.push_back(c);
    }
  }
  return t;
}

Status Topology::set_positions(std::vector<Point> p) {
  if (static_cast<int>(p.size()) != num_nodes()) {
    return Status::InvalidArgument(
        "got " + std::to_string(p.size()) + " positions for " +
        std::to_string(num_nodes()) + " nodes");
  }
  positions_ = std::move(p);
  return Status::OK();
}

bool Topology::IsAncestorOf(int maybe_anc, int node) const {
  for (int u = node; u != kNoParent; u = parents_[u]) {
    if (u == maybe_anc) return true;
    if (depth_[u] <= depth_[maybe_anc]) return false;  // early out
  }
  return false;
}

Result<Topology> BuildGeometricNetwork(const GeometricNetworkOptions& options,
                                       Rng* rng) {
  const int n = options.num_nodes;
  if (n <= 0) return Status::InvalidArgument("num_nodes must be positive");

  std::vector<Point> pos(n);
  pos[0] = options.root_at_center
               ? Point{options.width / 2.0, options.height / 2.0}
               : Point{0.0, 0.0};
  for (int i = 1; i < n; ++i) {
    pos[i] = {rng->Uniform(0.0, options.width),
              rng->Uniform(0.0, options.height)};
  }

  // BFS over the radio-range graph; the lowest-id frontier node at the
  // shallowest depth becomes the parent, yielding a minimum-hop tree.
  std::vector<int> parents(n, Topology::kNoParent);
  std::vector<int> depth(n, -1);
  depth[0] = 0;
  std::deque<int> queue{0};
  int reached = 1;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    for (int v = 1; v < n; ++v) {
      if (depth[v] >= 0 || v == u) continue;
      if (Distance(pos[u], pos[v]) <= options.radio_range) {
        depth[v] = depth[u] + 1;
        parents[v] = u;
        queue.push_back(v);
        ++reached;
      }
    }
  }
  if (reached != n) {
    return Status::FailedPrecondition(
        "geometric placement is disconnected (" + std::to_string(reached) +
        "/" + std::to_string(n) + " nodes reachable)");
  }
  auto topo = Topology::FromParents(std::move(parents));
  if (!topo.ok()) return topo;
  PROSPECTOR_RETURN_IF_ERROR(topo.value().set_positions(std::move(pos)));
  return topo;
}

Result<Topology> BuildConnectedGeometricNetwork(
    const GeometricNetworkOptions& options, Rng* rng, int max_tries) {
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    auto topo = BuildGeometricNetwork(options, rng);
    if (topo.ok()) return topo;
  }
  return Status::FailedPrecondition(
      "no connected placement found in " + std::to_string(max_tries) +
      " tries; increase radio_range or density");
}

Topology BuildRandomTree(int num_nodes, int max_fanout, Rng* rng) {
  std::vector<int> parents(num_nodes, Topology::kNoParent);
  std::vector<int> fanout(num_nodes, 0);
  for (int i = 1; i < num_nodes; ++i) {
    // Choose an earlier node with spare fan-out capacity.
    int p;
    do {
      p = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(i)));
    } while (max_fanout > 0 && fanout[p] >= max_fanout);
    parents[i] = p;
    ++fanout[p];
  }
  auto topo = Topology::FromParents(std::move(parents));
  return std::move(topo.value());  // by construction always a tree
}

Topology BuildChain(int num_nodes) {
  std::vector<int> parents(num_nodes, Topology::kNoParent);
  for (int i = 1; i < num_nodes; ++i) parents[i] = i - 1;
  return std::move(Topology::FromParents(std::move(parents)).value());
}

Topology BuildStar(int num_nodes) {
  std::vector<int> parents(num_nodes, Topology::kNoParent);
  for (int i = 1; i < num_nodes; ++i) parents[i] = 0;
  return std::move(Topology::FromParents(std::move(parents)).value());
}

}  // namespace net
}  // namespace prospector
