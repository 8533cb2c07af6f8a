#include "ledger/history_builder.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.h"
#include "common/thread_name.h"

namespace brdb {

void HistoryBuilder::Bootstrap(BlockNum committed) {
  // The arena hands back versions in rid (append) order, but pipelined
  // execution appends rows before their block commits, so creator blocks
  // are NOT monotone in rid. The store's tail queues require commit order
  // (blocks nondecreasing), so gather per table and sort by block first.
  struct Event {
    BlockNum block;
    RowId rid;
    bool is_delete;
  };
  std::vector<RowId> rids;
  std::vector<VersionMeta> metas;
  std::vector<Event> events;
  for (Table* table : db_->TablesById()) {
    if (table->db_schema() != kBlockchainSchema) continue;
    table->ScanAllRowIds(&rids);
    table->MetasOf(rids, &metas);
    events.clear();
    for (size_t i = 0; i < rids.size(); ++i) {
      const VersionMeta& m = metas[i];
      if (m.creator_aborted || m.creator_block == 0) continue;
      if (m.creator_block > committed) continue;
      events.push_back(Event{m.creator_block, rids[i], false});
      if (m.deleter_block != 0 && m.deleter_block <= committed) {
        events.push_back(Event{m.deleter_block, rids[i], true});
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.block < b.block;
                     });
    for (const Event& e : events) {
      if (e.is_delete) {
        store_->OnDelete(table, e.rid, e.block);
      } else {
        store_->OnInsert(table, e.rid, e.block);
      }
    }
  }
  store_->SetCommitted(committed);
}

void HistoryBuilder::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  stop_ = false;
  started_ = true;
  thread_ = std::thread([this] {
    NameThisThread("history-seal");
    SealLoop();
  });
}

void HistoryBuilder::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
}

void HistoryBuilder::NotifyCommitted(BlockNum block) {
  store_->SetCommitted(block);
  if (block >= store_->watermark() + options_.segment_blocks) {
    // Empty critical section pairs with the loop's predicate check so the
    // wakeup cannot fall between check and wait.
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_one();
  }
}

Status HistoryBuilder::SealTo(BlockNum target) {
  std::lock_guard<std::mutex> seal_lock(seal_mu_);
  return store_->SealThrough(target, options_.archive_dir);
}

void HistoryBuilder::SealLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const BlockNum committed = store_->committed();
    if (committed >= store_->watermark() + options_.segment_blocks) {
      lock.unlock();
      Status s = SealTo(committed);
      if (!s.ok()) {
        BRDB_LOG(kWarn, "history") << "seal through " << committed
                                   << " failed: " << s.ToString();
      }
      lock.lock();
      continue;
    }
    cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

bool HistoryBuilder::WaitForWatermark(BlockNum target, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (store_->watermark() >= target) return true;
    const BlockNum committed = store_->committed();
    if (committed >= target) {
      SealTo(committed);
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace brdb
