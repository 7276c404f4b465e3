// Fixed-size worker thread pool.
//
// The Logical Simulation's worker "cluster" and the Task Runner's
// multi-threaded concurrent task processing (paper §III-B) run on this pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace simdc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; returns a future for its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for every i in [0, n) and returns once all of them have
  /// returned. The caller runs indices itself; at most
  /// min(n, size()) - 1 helper jobs join it, so one call never occupies
  /// more than size() threads. Indices are claimed one at a time, so a
  /// slow index or a late-waking worker delays only its own claims. The
  /// call never waits for a helper to start — it completes even when
  /// every worker is busy, including inside another ParallelFor. If fn
  /// throws, no further indices start, and the first exception is
  /// rethrown once every index already started has returned. Which thread
  /// runs an index is unspecified: fn must write only index-owned state.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

}  // namespace simdc
