#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/error.hpp"

namespace dls {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  require(static_cast<bool>(job), "ThreadPool::submit: empty job");
  {
    std::scoped_lock lock(mutex_);
    require(!stop_, "ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(job));
  }
  cv_work_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::scoped_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (chunk == 0) chunk = std::max<std::size_t>(1, n / (pool.size() * 8));
  // The cursor lives on this stack frame; pool.wait() below keeps the
  // frame alive until every worker job has returned.
  std::atomic<std::size_t> next{begin};
  const std::size_t jobs = std::min(pool.size(), (n + chunk - 1) / chunk);
  for (std::size_t w = 0; w < jobs; ++w) {
    pool.submit([&body, &next, end, chunk] {
      for (;;) {
        const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= end) return;
        const std::size_t hi = std::min(lo + chunk, end);
        for (std::size_t i = lo; i < hi; ++i) body(i);
      }
    });
  }
  pool.wait();
}

}  // namespace dls
