#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace simdc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopped_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

namespace {

/// State of one ParallelFor, shared by the caller and its helper jobs. A
/// helper that starts after the loop has ended claims nothing, so `fn` is
/// dereferenced only while the caller is still waiting for all_finished.
struct ForkJoin {
  ForkJoin(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(&body) {}

  /// Claims and runs indices until none are left. After a failure the
  /// remaining indices are still claimed and counted, but not run.
  void Drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mutex);
        all_finished = true;
        done.notify_one();
      }
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;  // guards all_finished and error
  std::condition_variable done;
  bool all_finished = false;
  std::exception_ptr error;
};

}  // namespace

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t helpers = std::min(n, workers_.size()) - 1;
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto join = std::make_shared<ForkJoin>(n, fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([join] { join->Drain(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  join->Drain();
  std::unique_lock<std::mutex> lock(join->mutex);
  join->done.wait(lock, [&] { return join->all_finished; });
  if (join->error) std::rethrow_exception(join->error);
}

}  // namespace simdc
