// Fixed-size worker pool. Each database node runs one pool that plays the
// role of PostgreSQL "backends": one task per in-flight transaction, plus
// block-processor work items.
#ifndef BRDB_COMMON_THREAD_POOL_H_
#define BRDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace brdb {

class ThreadPool {
 public:
  /// Starts `num_threads` workers immediately, each named `thread_name`
  /// (at most 15 characters, see common/thread_name.h).
  explicit ThreadPool(size_t num_threads,
                      const char* thread_name = "pool-worker");

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks may enqueue further tasks.
  void Submit(std::function<void()> task);

  /// Run `tasks` to completion, using idle workers for parallelism. The
  /// calling thread drains the batch too, so this completes even when
  /// every worker is occupied (or parked on a condition variable, as EOP
  /// executors waiting for a snapshot height are) — workers only help,
  /// they are never required. Blocks until the whole batch finished.
  void RunBatch(std::vector<std::function<void()>> tasks);

  /// Block until the queue is empty and all workers are idle.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace brdb

#endif  // BRDB_COMMON_THREAD_POOL_H_
