#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/util/thread_pool.h"

namespace prospector {
namespace util {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsWholeRangeOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> calls;
  pool.ParallelFor(5, [&](int begin, int end) {
    calls.push_back(begin);
    calls.push_back(end);
  });
  // A single body invocation covering [0, 5): no worker threads involved.
  EXPECT_EQ(calls, (std::vector<int>{0, 5}));
}

TEST(ThreadPoolTest, NonPositiveThreadCountClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int n = 1000;
  std::vector<std::atomic<int>> touched(n);
  pool.ParallelFor(n, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(3, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(touched[i].load(), 1);
  pool.ParallelFor(0, [&](int, int) { FAIL() << "empty range must not run"; });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      // A nested loop on the same pool must not wait on pool workers.
      pool.ParallelFor(4, [&](int b2, int e2) { total.fetch_add(e2 - b2); });
    }
  });
  EXPECT_EQ(total.load(), 8 * 4);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.ParallelFor(100, [&](int begin, int end) {
      total.fetch_add(end - begin);
    });
    ASSERT_EQ(total.load(), 100);
  }
}

}  // namespace
}  // namespace util
}  // namespace prospector
