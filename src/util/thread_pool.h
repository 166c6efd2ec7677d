#ifndef PROSPECTOR_UTIL_THREAD_POOL_H_
#define PROSPECTOR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prospector {
namespace util {

/// A fixed-size worker pool for data-parallel loops over index ranges. It
/// serves the coarse, independent work units: the fleet service's
/// per-deployment epoch batch and PlanSweep's per-request plans. Planners
/// themselves run serially.
///
/// Design goals, in order:
///   1. *Determinism.* The split of [0, n) depends only on n and the pool
///      size, and callers write per-index slots, so results are identical
///      for any thread count. Parallelism changes wall time, never
///      results.
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

  /// Invokes `body(begin, end)` over disjoint sub-ranges covering [0, n)
  /// and blocks until all sub-ranges finished. Ranges are contiguous and
  /// ascending; the caller's thread executes the first range itself. The
  /// body must only write to per-index slots (no unsynchronized shared
  /// state).
  void ParallelFor(int n, const std::function<void(int, int)>& body);

 private:
  struct Task {
    std::function<void(int, int)> const* body = nullptr;
    int begin = 0;
    int end = 0;
    std::mutex* done_mutex = nullptr;
    std::condition_variable* done_cv = nullptr;
    int* outstanding = nullptr;
  };

  bool ShouldParallelize(int n) const {
    return num_threads_ > 1 && n > 1 && !InWorkerThread();
  }

  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;
};

}  // namespace util
}  // namespace prospector

#endif  // PROSPECTOR_UTIL_THREAD_POOL_H_
