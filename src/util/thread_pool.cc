#include "src/util/thread_pool.h"

#include <algorithm>

namespace prospector {
namespace util {
namespace {

thread_local bool t_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(num_threads, 1)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  // The calling thread always works on its own loops, so a pool of T
  // threads needs T-1 workers.
  for (int t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

void ThreadPool::RunClaims(Loop* loop) {
  for (int i = loop->next++; i < loop->n; i = loop->next++) {
    (*loop->body)(i);
  }
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    Loop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      loop = queue_.front();
      queue_.pop_front();
    }
    RunClaims(loop);
    {
      // Notify while still holding the lock: the caller owns the loop on
      // its stack and destroys it the moment it sees outstanding == 0, so
      // an unlocked notify could touch a dead cv.
      std::lock_guard<std::mutex> lock(loop->done_mutex);
      --loop->outstanding;
      loop->done_cv.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (!ShouldParallelize(n)) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  Loop loop;
  loop.body = &body;
  loop.n = n;
  const int helpers = std::min(num_threads_ - 1, n - 1);
  loop.outstanding = helpers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int h = 0; h < helpers; ++h) queue_.push_back(&loop);
  }
  work_cv_.notify_all();

  body(0);
  RunClaims(&loop);

  std::unique_lock<std::mutex> lock(loop.done_mutex);
  loop.done_cv.wait(lock, [&loop] { return loop.outstanding == 0; });
}

}  // namespace util
}  // namespace prospector
