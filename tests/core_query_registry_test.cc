// QueryRegistry: ascending-id iteration and the never-reuse id guarantee
// the fleet service builds on.
#include "src/core/query_registry.h"

#include <gtest/gtest.h>

#include <vector>

namespace prospector {
namespace core {
namespace {

QuerySpec CheapSpec(int k = 3) {
  QuerySpec spec;
  spec.k = k;
  spec.energy_budget_mj = 5.0;
  spec.planner = PlannerChoice::kGreedy;
  return spec;
}

TEST(QueryRegistryTest, AddFindRemoveBasics) {
  QueryRegistry registry;
  const int a = registry.Add(CheapSpec(2), /*num_nodes=*/10,
                             /*sample_window=*/8);
  const int b = registry.Add(CheapSpec(4), 10, 8);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(registry.size(), 2);
  ASSERT_NE(registry.Find(a), nullptr);
  EXPECT_EQ(registry.Find(a)->spec.k, 2);
  EXPECT_EQ(registry.Find(99), nullptr);

  EXPECT_TRUE(registry.Remove(a));
  EXPECT_FALSE(registry.Remove(a));  // already gone
  EXPECT_EQ(registry.size(), 1);
  EXPECT_EQ(registry.Find(a), nullptr);
  EXPECT_EQ(registry.ids(), std::vector<int>{b});
}

TEST(QueryRegistryTest, RetiredIdsAreBurnedForever) {
  QueryRegistry registry;
  const int id = registry.Add(CheapSpec(), 10, 8);
  EXPECT_TRUE(registry.Remove(id));
  // Neither path may revive a retired id.
  EXPECT_FALSE(registry.AddWithId(id, CheapSpec(), 10, 8).ok());
  const int next = registry.Add(CheapSpec(), 10, 8);
  EXPECT_NE(next, id);
}

TEST(QueryRegistryTest, ExternalIdsMayArriveOutOfOrder) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddWithId(10, CheapSpec(), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(3, CheapSpec(), 10, 8).ok());
  EXPECT_FALSE(registry.AddWithId(10, CheapSpec(), 10, 8).ok());
  // Internal allocation never collides with what external callers used.
  const int fresh = registry.Add(CheapSpec(), 10, 8);
  EXPECT_EQ(fresh, 11);
  EXPECT_EQ(registry.ids(), (std::vector<int>{3, 10, 11}));
}

TEST(QueryRegistryTest, OrderedIsAscendingById) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.AddWithId(7, CheapSpec(7), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(1, CheapSpec(1), 10, 8).ok());
  ASSERT_TRUE(registry.AddWithId(4, CheapSpec(4), 10, 8).ok());
  const std::vector<QueryState*>& ordered = registry.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0]->id, 1);
  EXPECT_EQ(ordered[1]->id, 4);
  EXPECT_EQ(ordered[2]->id, 7);
  // The order tracks mutation.
  registry.Remove(4);
  ASSERT_EQ(registry.ordered().size(), 2u);
  EXPECT_EQ(registry.ordered()[1]->id, 7);
}

}  // namespace
}  // namespace core
}  // namespace prospector
