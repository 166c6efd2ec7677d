#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/thread_pool.h"

namespace prospector {
namespace util {
namespace {

TEST(ThreadPoolTest, InlinePoolRunsWholeRangeOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> calls;
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.ParallelFor(5, [&](int i) {
    calls.push_back(i);
    all_on_caller &= std::this_thread::get_id() == caller;
  });
  // Every index in order on the calling thread: no worker threads involved.
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
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
  pool.ParallelFor(n, [&](int i) { touched[i].fetch_add(1); });
  for (int i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(3, [&](int i) { touched[i].fetch_add(1); });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(touched[i].load(), 1);
  pool.ParallelFor(0, [&](int) { FAIL() << "empty range must not run"; });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int) {
    // A nested loop on the same pool must not wait on pool workers.
    pool.ParallelFor(4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 4);
}

TEST(ThreadPoolTest, IdleThreadsClaimTheIndicesBehindASlowOne) {
  // Index 0 waits for indices 1-3. The caller runs index 0, so the one
  // worker must claim all three while it waits; a split that queued index 1
  // behind index 0 on the caller's thread would run out the deadline.
  ThreadPool pool(2);
  std::atomic<int> others_done{0};
  bool others_ran_during_zero = false;
  std::thread::id zero_thread;
  pool.ParallelFor(4, [&](int i) {
    if (i != 0) {
      others_done.fetch_add(1);
      return;
    }
    zero_thread = std::this_thread::get_id();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (others_done.load() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_ran_during_zero = others_done.load() == 3;
  });
  EXPECT_TRUE(others_ran_during_zero);
  EXPECT_EQ(zero_thread, std::this_thread::get_id());
  EXPECT_EQ(others_done.load(), 3);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    pool.ParallelFor(100, [&](int) { total.fetch_add(1); });
    ASSERT_EQ(total.load(), 100);
  }
}

}  // namespace
}  // namespace util
}  // namespace prospector
