#ifndef PROSPECTOR_NET_TOPOLOGY_H_
#define PROSPECTOR_NET_TOPOLOGY_H_

#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace prospector {
namespace net {

/// 2-D coordinates of a mote (meters).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

inline double Distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// A sensor network organized as a spanning tree rooted at the query
/// station / base station, following Section 2 of the paper.
///
/// Node ids are dense ints [0, n). Every non-root node i owns exactly one
/// tree edge: the communication link to parent(i). Throughout the library
/// an "edge id" therefore IS the child node id.
///
/// The root is the unique node with parent kNoParent. The builders in this
/// file all place it at node 0, but nothing may assume that: code must
/// compare against root() by id, never against 0.
///
/// The structure is immutable once built; topology changes (Section 4.4)
/// are modeled by building a new Topology excluding failed nodes.
class Topology {
 public:
  /// Builds from a parent vector. Exactly one entry must be kNoParent
  /// (that node is the root — not necessarily node 0). Fails if the
  /// vector does not describe a tree on all nodes.
  static Result<Topology> FromParents(std::vector<int> parents);

  static constexpr int kNoParent = -1;

  int num_nodes() const { return static_cast<int>(parents_.size()); }
  int root() const { return root_; }

  int parent(int node) const { return parents_[node]; }
  const std::vector<int>& children(int node) const { return children_[node]; }
  /// Hop distance from the root (root: 0).
  int depth(int node) const { return depth_[node]; }
  /// Number of nodes in the subtree rooted at `node`, including itself.
  int subtree_size(int node) const { return subtree_size_[node]; }
  int height() const { return height_; }
  bool is_leaf(int node) const { return children_[node].empty(); }

  // The per-node lists below are built once by FromParents (O(n * height)
  // ints in all); the planners walk them on every Plan(), and their order
  // fixes the LP term order.

  /// anc(i) of the paper: i itself plus all its proper ancestors (root last).
  const std::vector<int>& AncestorsOf(int node) const {
    return ancestors_[node];
  }
  /// desc(i) of the paper: i itself plus all its descendants, in
  /// breadth-first order from i (children in children() order).
  const std::vector<int>& DescendantsOf(int node) const {
    return descendants_[node];
  }
  /// True iff `maybe_anc` is `node` itself or a proper ancestor of it.
  bool IsAncestorOf(int maybe_anc, int node) const;
  /// Edge ids (child node ids) on the path from `node` to the root:
  /// {node, parent(node), ...}, excluding the root itself (empty for the
  /// root).
  const std::vector<int>& PathEdges(int node) const {
    return path_edges_[node];
  }

  /// All nodes in post-order (children before parents) — the order in which
  /// a collection phase propagates values upward.
  const std::vector<int>& PostOrder() const { return post_order_; }
  /// All nodes in pre-order (parents before children) — dissemination order.
  const std::vector<int>& PreOrder() const { return pre_order_; }

  /// Physical placement, if the topology was built geometrically
  /// (empty otherwise).
  const std::vector<Point>& positions() const { return positions_; }
  /// Attaches one position per node. Fails with InvalidArgument, leaving
  /// the positions unchanged, unless `p` has exactly num_nodes() entries:
  /// rebuilds and clustering read positions()[i] for every node.
  Status set_positions(std::vector<Point> p);

  /// An empty placeholder (0 nodes); assign a FromParents/builder result
  /// before use.
  Topology() = default;

 private:
  std::vector<int> parents_;
  std::vector<std::vector<int>> children_;
  std::vector<int> depth_;
  std::vector<int> subtree_size_;
  std::vector<int> post_order_;
  std::vector<int> pre_order_;
  std::vector<std::vector<int>> ancestors_;
  std::vector<std::vector<int>> descendants_;
  std::vector<std::vector<int>> path_edges_;
  std::vector<Point> positions_;
  int root_ = 0;
  int height_ = 0;
};

/// Parameters for random geometric network construction (Section 5: nodes
/// placed randomly in a rectangle; minimum-hop spanning tree subject to
/// radio range).
struct GeometricNetworkOptions {
  int num_nodes = 100;          ///< including the root
  double width = 100.0;         ///< meters
  double height = 100.0;        ///< meters
  double radio_range = 20.0;    ///< meters
  /// Where the root sits: center of the rectangle (true) or the lower-left
  /// corner (false).
  bool root_at_center = true;
};

/// Places nodes uniformly at random and builds a minimum-hop (BFS) spanning
/// tree. Among equal-depth parent candidates the lowest id wins, so the
/// result is a deterministic function of the node placement.
/// Fails with FailedPrecondition if the placement is not connected.
Result<Topology> BuildGeometricNetwork(const GeometricNetworkOptions& options,
                                       Rng* rng);

/// Like BuildGeometricNetwork, but retries with fresh placements (same rng
/// stream) until a connected instance is found; gives up after `max_tries`.
Result<Topology> BuildConnectedGeometricNetwork(
    const GeometricNetworkOptions& options, Rng* rng, int max_tries = 100);

/// A uniformly random tree with bounded fan-out; used by unit/property
/// tests where physical placement does not matter.
Topology BuildRandomTree(int num_nodes, int max_fanout, Rng* rng);

/// A rooted path 0 -> 1 -> ... -> n-1 (chain) — worst-case depth.
Topology BuildChain(int num_nodes);

/// A root with num_nodes-1 direct children (star) — minimum depth.
Topology BuildStar(int num_nodes);

}  // namespace net
}  // namespace prospector

#endif  // PROSPECTOR_NET_TOPOLOGY_H_
