#include "src/net/topology.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/net/rebuild.h"
#include "src/util/rng.h"

namespace prospector {
namespace net {
namespace {

TEST(TopologyTest, FromParentsBasic) {
  // Node 0 is the root with children {1, 2}; node 1 has children {3, 4}.
  auto res = Topology::FromParents({Topology::kNoParent, 0, 0, 1, 1});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Topology& t = res.value();
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(4), 2);
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.subtree_size(0), 5);
  EXPECT_EQ(t.subtree_size(1), 3);
  EXPECT_EQ(t.subtree_size(2), 1);
  EXPECT_TRUE(t.is_leaf(4));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.children(1), (std::vector<int>{3, 4}));
}

TEST(TopologyTest, AncestorsAndDescendants) {
  auto t = Topology::FromParents({Topology::kNoParent, 0, 0, 1, 1}).value();
  EXPECT_EQ(t.AncestorsOf(4), (std::vector<int>{4, 1, 0}));
  EXPECT_EQ(t.AncestorsOf(0), (std::vector<int>{0}));
  std::vector<int> d1 = t.DescendantsOf(1);
  std::sort(d1.begin(), d1.end());
  EXPECT_EQ(d1, (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(t.IsAncestorOf(0, 4));
  EXPECT_TRUE(t.IsAncestorOf(1, 1));
  EXPECT_FALSE(t.IsAncestorOf(2, 4));
  EXPECT_FALSE(t.IsAncestorOf(4, 1));
}

TEST(TopologyTest, PathEdges) {
  auto t = Topology::FromParents({Topology::kNoParent, 0, 1, 2}).value();
  EXPECT_EQ(t.PathEdges(3), (std::vector<int>{3, 2, 1}));
  EXPECT_TRUE(t.PathEdges(0).empty());
}

TEST(TopologyTest, PostOrderVisitsChildrenFirst) {
  Rng rng(11);
  Topology t = BuildRandomTree(40, 4, &rng);
  std::vector<int> seen_at(t.num_nodes(), -1);
  const auto& post = t.PostOrder();
  for (int i = 0; i < static_cast<int>(post.size()); ++i) {
    seen_at[post[i]] = i;
  }
  for (int v = 1; v < t.num_nodes(); ++v) {
    EXPECT_LT(seen_at[v], seen_at[t.parent(v)])
        << "child " << v << " must precede parent in post-order";
  }
}

TEST(TopologyTest, PreOrderVisitsParentsFirst) {
  Rng rng(12);
  Topology t = BuildRandomTree(40, 4, &rng);
  std::vector<int> seen_at(t.num_nodes(), -1);
  const auto& pre = t.PreOrder();
  for (int i = 0; i < static_cast<int>(pre.size()); ++i) seen_at[pre[i]] = i;
  for (int v = 1; v < t.num_nodes(); ++v) {
    EXPECT_GT(seen_at[v], seen_at[t.parent(v)]);
  }
}

TEST(TopologyTest, RejectsMalformedInput) {
  EXPECT_FALSE(Topology::FromParents({}).ok());
  EXPECT_FALSE(Topology::FromParents({0}).ok());  // self loop, no root
  EXPECT_FALSE(
      Topology::FromParents({Topology::kNoParent, 5}).ok());  // out of range
  EXPECT_FALSE(
      Topology::FromParents({Topology::kNoParent, 1}).ok());  // self loop
  // 2-cycle between 1 and 2 (both unreachable from root).
  EXPECT_FALSE(Topology::FromParents({Topology::kNoParent, 2, 1}).ok());
  // Two roots.
  EXPECT_FALSE(
      Topology::FromParents({Topology::kNoParent, Topology::kNoParent}).ok());
}

TEST(TopologyTest, SupportsNonZeroRoot) {
  // Chain 0 -> 1 -> 2 where node 2 is the root: the base station need not
  // be node 0 (e.g. after renumbering survivors of a rebuild).
  auto res = Topology::FromParents({1, 2, Topology::kNoParent});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Topology& t = res.value();
  EXPECT_EQ(t.root(), 2);
  EXPECT_EQ(t.depth(2), 0);
  EXPECT_EQ(t.depth(0), 2);
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.subtree_size(2), 3);
  EXPECT_EQ(t.subtree_size(0), 1);
  // Edge ids on node 0's path exclude the root, which owns no edge.
  EXPECT_EQ(t.PathEdges(0), (std::vector<int>{0, 1}));
  EXPECT_TRUE(t.PathEdges(2).empty());
  EXPECT_EQ(t.AncestorsOf(0), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(t.IsAncestorOf(2, 0));
  // Traversals start/end at the actual root.
  EXPECT_EQ(t.PreOrder().front(), 2);
  EXPECT_EQ(t.PostOrder().back(), 2);
}

TEST(TopologyTest, ChainAndStar) {
  Topology chain = BuildChain(6);
  EXPECT_EQ(chain.height(), 5);
  EXPECT_EQ(chain.subtree_size(0), 6);
  Topology star = BuildStar(6);
  EXPECT_EQ(star.height(), 1);
  EXPECT_EQ(star.children(0).size(), 5u);
}

// A random tree on n nodes rooted at `root`: each node hangs off one
// placed earlier in a shuffled order.
Topology RandomTreeRootedAt(int n, int root, Rng* rng) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::swap(order[0], order[root]);
  for (int i = n - 1; i > 1; --i) {
    std::swap(order[i], order[rng->UniformInt(1, i)]);
  }
  std::vector<int> parents(n, Topology::kNoParent);
  for (int p = 1; p < n; ++p) {
    parents[order[p]] = order[rng->UniformInt(0, p - 1)];
  }
  return Topology::FromParents(std::move(parents)).value();
}

// The lists FromParents builds equal a brute-force walk in the documented
// orders (the LP planners' term order depends on them), and travel with
// copies and moves.
TEST(TopologyTest, PerNodeListsMatchParentWalk) {
  Rng rng(2006);
  for (int n : {1, 2, 65, 130}) {
    const Topology t = RandomTreeRootedAt(n, n - 1, &rng);
    ASSERT_EQ(t.root(), n - 1);
    for (int i = 0; i < n; ++i) {
      const std::string where =
          "n=" + std::to_string(n) + " node " + std::to_string(i);
      std::vector<int> anc, path;
      for (int u = i; u != Topology::kNoParent; u = t.parent(u)) {
        anc.push_back(u);
        if (u != t.root()) path.push_back(u);
      }
      // Breadth-first from i, each node's children in ascending id.
      std::vector<int> desc;
      std::deque<int> queue{i};
      while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        desc.push_back(u);
        for (int v = 0; v < n; ++v) {
          if (t.parent(v) == u) queue.push_back(v);
        }
      }
      EXPECT_EQ(t.AncestorsOf(i), anc) << where;
      EXPECT_EQ(t.PathEdges(i), path) << where;
      EXPECT_EQ(t.DescendantsOf(i), desc) << where;
      // Built once: every call returns the same list.
      EXPECT_EQ(&t.PathEdges(i), &t.PathEdges(i)) << where;
    }

    const Topology copy = t;
    Topology source = t;
    const Topology moved = std::move(source);
    for (int i = 0; i < n; ++i) {
      for (const Topology* other : {&copy, &moved}) {
        EXPECT_EQ(other->AncestorsOf(i), t.AncestorsOf(i)) << "n=" << n;
        EXPECT_EQ(other->PathEdges(i), t.PathEdges(i)) << "n=" << n;
        EXPECT_EQ(other->DescendantsOf(i), t.DescendantsOf(i)) << "n=" << n;
      }
    }
  }
}

TEST(TopologyTest, SetPositionsRejectsWrongLength) {
  Topology chain = BuildChain(6);
  std::vector<Point> pos(6);
  for (int i = 0; i < 6; ++i) pos[i] = {10.0 * i, 0.0};
  ASSERT_TRUE(chain.set_positions(pos).ok());
  for (size_t len : {0, 2, 7}) {
    EXPECT_EQ(chain.set_positions(std::vector<Point>(len)).code(),
              StatusCode::kInvalidArgument)
        << len << " positions";
    ASSERT_EQ(chain.positions().size(), 6u);  // unchanged on error
    EXPECT_EQ(chain.positions()[5].x, 50.0);
  }

  // A rejected placement leaves the tree unplaced, so a rebuild refuses
  // it instead of reading positions past the end.
  Topology unplaced = BuildChain(6);
  EXPECT_FALSE(unplaced.set_positions(std::vector<Point>(2)).ok());
  EXPECT_TRUE(unplaced.positions().empty());
  EXPECT_EQ(RebuildWithoutNodes(unplaced, {3}, 5.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GeometricNetworkTest, DisconnectedPlacementFails) {
  GeometricNetworkOptions opts;
  opts.num_nodes = 50;
  opts.width = 1000.0;
  opts.height = 1000.0;
  opts.radio_range = 5.0;  // far too short to connect 50 nodes in 1 km^2
  Rng rng(3);
  auto res = BuildGeometricNetwork(opts, &rng);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
}

class GeometricPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GeometricPropertyTest, TreeRespectsRadioRangeAndMinimizesHops) {
  GeometricNetworkOptions opts;
  opts.num_nodes = 60;
  opts.width = 100.0;
  opts.height = 100.0;
  opts.radio_range = 30.0;
  Rng rng(GetParam());
  auto res = BuildConnectedGeometricNetwork(opts, &rng);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Topology& t = res.value();
  ASSERT_EQ(static_cast<int>(t.positions().size()), t.num_nodes());

  // Every tree edge within radio range.
  for (int v = 1; v < t.num_nodes(); ++v) {
    EXPECT_LE(Distance(t.positions()[v], t.positions()[t.parent(v)]),
              opts.radio_range + 1e-9);
  }

  // Minimum hop count: depth must equal BFS distance in the range graph.
  const int n = t.num_nodes();
  std::vector<int> dist(n, -1);
  dist[0] = 0;
  std::vector<int> frontier{0};
  while (!frontier.empty()) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v = 0; v < n; ++v) {
        if (dist[v] < 0 &&
            Distance(t.positions()[u], t.positions()[v]) <= opts.radio_range) {
          dist[v] = dist[u] + 1;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(t.depth(v), dist[v]) << "node " << v << " is not min-hop";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometricPropertyTest, ::testing::Range(1, 21));

class RandomTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomTreePropertyTest, FanoutBoundHolds) {
  Rng rng(GetParam());
  const int fanout = 1 + GetParam() % 5;
  Topology t = BuildRandomTree(30, fanout, &rng);
  EXPECT_EQ(t.num_nodes(), 30);
  for (int v = 0; v < t.num_nodes(); ++v) {
    EXPECT_LE(static_cast<int>(t.children(v).size()), fanout);
  }
  // Subtree sizes sum: root covers everything.
  EXPECT_EQ(t.subtree_size(0), 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreePropertyTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace net
}  // namespace prospector
