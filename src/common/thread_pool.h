#ifndef IOTDB_COMMON_THREAD_POOL_H_
#define IOTDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iotdb {

/// Fixed-size worker pool that runs the storage engine's background
/// flushes and compactions.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  /// Stops accepting tasks, drains the queue, joins workers. Idempotent.
  void Shutdown();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace iotdb

#endif  // IOTDB_COMMON_THREAD_POOL_H_
