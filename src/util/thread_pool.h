#ifndef PROSPECTOR_UTIL_THREAD_POOL_H_
#define PROSPECTOR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prospector {
namespace util {

/// A fixed-size worker pool for data-parallel loops over indices. It
/// serves the coarse, independent work units: the fleet service's
/// per-deployment epoch batch and PlanSweep's per-request plans. Planners
/// themselves run serially.
///
/// Design goals, in order:
///   1. *Determinism.* Bodies write only per-index slots, and callers read
///      the slots in index order after the loop, so results are identical
///      for any thread count even though which thread runs which index
///      depends on timing. Parallelism changes wall time, never results.
///   2. *Graceful degradation.* A pool built with `num_threads <= 1` spawns
///      no workers and runs every loop inline, exactly preserving the
///      single-threaded code path. Calls made from inside a worker (nested
///      parallelism) also run inline, so composing parallel stages cannot
///      deadlock the pool.
///   3. *Reuse.* Workers are spawned once and parked on a condition
///      variable between loops; dispatch costs one lock + notify.
class ThreadPool {
 public:
  /// `num_threads <= 1` creates an inline (no worker) pool; `num_threads
  /// == 0` is clamped to 1 rather than auto-detecting, so callers must opt
  /// in to parallelism explicitly.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// A sensible thread count for throughput-oriented callers (benches):
  /// the hardware concurrency, at least 1.
  static int HardwareThreads();

  /// True when the calling thread is one of this process's pool workers
  /// (any pool); used to run nested parallel loops inline.
  static bool InWorkerThread();

  /// Invokes `body(i)` once for every i in [0, n) and blocks until all
  /// calls finished. The caller runs index 0, then it and the workers
  /// claim the remaining indices in ascending order, one at a time, so a
  /// thread that finishes a cheap index takes the next one instead of
  /// idling behind an expensive one. The body must only write to
  /// per-index slots (no unsynchronized shared state).
  void ParallelFor(int n, const std::function<void(int)>& body);

 private:
  /// One parallel loop, owned by the ParallelFor call on its stack.
  /// Queued helpers claim indices from `next` until it passes `n`; the
  /// caller waits until every helper finished before the loop leaves its
  /// stack.
  struct Loop {
    const std::function<void(int)>* body = nullptr;
    int n = 0;
    std::atomic<int> next{1};  ///< index 0 is the caller's
    std::mutex done_mutex;
    std::condition_variable done_cv;
    int outstanding = 0;  ///< helpers not yet finished, under done_mutex
  };

  static void RunClaims(Loop* loop);

  bool ShouldParallelize(int n) const {
    return num_threads_ > 1 && n > 1 && !InWorkerThread();
  }

  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Loop*> queue_;  ///< one entry per helper a loop asked for
  bool shutdown_ = false;
};

}  // namespace util
}  // namespace prospector

#endif  // PROSPECTOR_UTIL_THREAD_POOL_H_
