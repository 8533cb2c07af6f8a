#include "core/block_pipeline.h"

#include "common/thread_name.h"

namespace brdb {

BlockPipeline::BlockPipeline(size_t depth, Hooks hooks)
    : depth_(depth == 0 ? 1 : depth), hooks_(std::move(hooks)) {}

BlockPipeline::~BlockPipeline() { Stop(); }

void BlockPipeline::Start(BlockNum committed_height) {
  if (running_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prepared_height_ = committed_height;
    committed_height_ = committed_height;
    prepare_exited_ = false;
    ready_.clear();
  }
  prepare_thread_ = std::thread([this] {
    NameThisThread("pipe-prepare");
    PrepareLoop();
  });
  commit_thread_ = std::thread([this] {
    NameThisThread("pipe-commit");
    CommitLoop();
  });
}

void BlockPipeline::Stop() {
  if (!running_.exchange(false)) return;
  cv_.notify_all();
  if (prepare_thread_.joinable()) prepare_thread_.join();
  if (commit_thread_.joinable()) commit_thread_.join();
}

BlockNum BlockPipeline::prepared_height() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prepared_height_;
}

BlockNum BlockPipeline::committed_height() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_height_;
}

size_t BlockPipeline::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(prepared_height_ - committed_height_);
}

void BlockPipeline::PrepareLoop() {
  while (running_.load()) {
    BlockNum next;
    {
      // Window admission: at most depth_ blocks prepared-but-uncommitted.
      // At depth 1 this strictly alternates prepare and commit — the
      // legacy serial loop split across two threads.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return !running_.load() ||
               prepared_height_ - committed_height_ <
                   static_cast<BlockNum>(depth_);
      });
      if (!running_.load()) break;
      next = prepared_height_ + 1;
    }
    auto work = std::make_unique<BlockWork>();
    if (!hooks_.fetch(next, &work->block)) continue;
    hooks_.prepare(work.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      prepared_height_ = next;
      ready_.push_back(std::move(work));
    }
    cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  prepare_exited_ = true;
  cv_.notify_all();
}

void BlockPipeline::CommitLoop() {
  for (;;) {
    std::unique_ptr<BlockWork> work;
    {
      // Exit only once the prepare thread is done AND the queue drained:
      // a block whose prepare straddles Stop() is still pushed, and must
      // still commit — its stage-2 side effects (pgledger rows, claimed
      // executions) are already in place, and a restart must never re-run
      // stage 2 for it.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return !ready_.empty() || (!running_.load() && prepare_exited_);
      });
      if (ready_.empty()) return;  // stopped and fully drained
      work = std::move(ready_.front());
      ready_.pop_front();
    }
    hooks_.commit(work.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      committed_height_ = work->block.number();
    }
    cv_.notify_all();
  }
}

}  // namespace brdb
