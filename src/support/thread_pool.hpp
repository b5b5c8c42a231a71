// Fixed-size thread pool with a blocking work queue.
//
// The experiment sweep evaluates thousands of independent platforms; each
// platform is a task. Tasks are plain std::function jobs; parallel_for
// hands out chunks of an index range through a shared atomic cursor, so
// skewed per-index costs (an LPRR case is ~K^2 LP solves next to a
// millisecond greedy case) cannot strand the tail of the range on one
// worker. Exceptions thrown by a task are captured and rethrown to the
// caller of wait()/parallel_for (first one wins), so a failing
// experiment aborts the sweep instead of vanishing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dls {

class ThreadPool {
public:
  /// Spawns `threads` workers (0 = std::thread::hardware_concurrency()).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; may run on any worker thread.
  void submit(std::function<void()> job);

  /// Blocks until the queue is empty and all running jobs finished.
  /// Rethrows the first exception raised by any job since the last wait().
  void wait();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Runs body(i) for i in [begin, end) across the pool, blocking until done.
/// Dynamic chunked scheduling: workers pull `chunk`-sized index blocks
/// from a shared atomic cursor until the range is drained, so one
/// expensive index only costs its own worker while the rest of the pool
/// keeps draining the range. chunk = 0 picks a small automatic chunk
/// (range / (workers * 8), at least 1). The set of indices executed is
/// always exactly [begin, end); only the index->worker assignment varies.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t chunk = 0);

}  // namespace dls
