#include "common/thread_pool.h"

#include <atomic>
#include <memory>

#include "common/thread_name.h"

namespace brdb {

ThreadPool::ThreadPool(size_t num_threads, const char* thread_name) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, thread_name] {
      NameThisThread(thread_name);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::RunBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  struct BatchState {
    std::vector<std::function<void()>> tasks;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t completed = 0;
  };
  auto state = std::make_shared<BatchState>();
  state->tasks = std::move(tasks);
  const size_t n = state->tasks.size();
  auto drain = [state, n] {
    for (;;) {
      size_t i = state->next.fetch_add(1);
      if (i >= n) break;
      state->tasks[i]();
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->completed == n) state->done.notify_all();
    }
  };
  // Helpers are opportunistic; late-scheduled ones find the batch drained
  // (shared_ptr keeps the state alive for them).
  size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t i = 0; i < helpers; ++i) Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->completed == n; });
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace brdb
