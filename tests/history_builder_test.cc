// HistoryBuilder tests (ledger/history_builder.h):
//
//  * Bootstrap rebuilds the columnar event tail from the version arena's
//    creator/deleter block stamps — the restart path — and sealing it
//    yields the same visible history the row store reports at every
//    height.
//  * Builder concurrency (tsan label): a commit thread publishing events,
//    the builder thread sealing, and reader threads snapshotting/scanning
//    concurrently; every scan at height h must see exactly the rows
//    committed through h.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ledger/history_builder.h"
#include "sql/vectorized.h"
#include "storage/columnar.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

TableSchema KvSchema() {
  return TableSchema("kv",
                     {{"k", ValueType::kInt, true, true, false, false},
                      {"v", ValueType::kInt, false, false, false, false}});
}

size_t ScanCountAt(ColumnStore* store, const Table* table, BlockNum height) {
  std::vector<const Row*> rows;
  sql::ColumnarScanStats stats;
  Status st = sql::ColumnarScan(store->SnapshotFor(table), height, -1,
                                nullptr, true, nullptr, true, &rows, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // The rows are references into the version arena: read every one while
  // the committer appends and the builder seals.
  for (const Row* r : rows) EXPECT_EQ((*r)[0].type(), ValueType::kInt);
  return rows.size();
}

TEST(HistoryBuilderTest, BootstrapRebuildsHistoryFromArena) {
  Database db;
  Table* table = db.CreateTable(KvSchema()).value();
  // Build history the normal OLTP way — no columnar store attached yet,
  // exactly the state after a checkpoint restore.
  auto commit = [&](BlockNum block, auto&& fn) {
    TxnContext ctx(&db,
                   db.txn_manager()->Begin(
                       Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    fn(ctx);
    ASSERT_TRUE(ctx.CommitInternal(block).ok());
  };
  commit(1, [&](TxnContext& ctx) {
    for (int k = 0; k < 50; ++k) {
      ASSERT_TRUE(ctx.Insert(table, {Value::Int(k), Value::Int(0)}).ok());
    }
  });
  commit(2, [&](TxnContext& ctx) {
    for (int k = 50; k < 100; ++k) {
      ASSERT_TRUE(ctx.Insert(table, {Value::Int(k), Value::Int(0)}).ok());
    }
  });
  commit(3, [&](TxnContext& ctx) {
    // Update k = 0..9 (new version per row), delete k = 10..14.
    for (RowId rid = 0; rid < 10; ++rid) {
      ASSERT_TRUE(
          ctx.Update(table, rid,
                     {Value::Int(static_cast<int64_t>(rid)), Value::Int(1)})
              .ok());
    }
    for (RowId rid = 10; rid < 15; ++rid) {
      ASSERT_TRUE(ctx.Delete(table, rid).ok());
    }
  });

  ColumnStore store;
  HistoryBuilder builder(&db, &store, {/*segment_blocks=*/2, ""});
  builder.Bootstrap(3);
  EXPECT_EQ(store.committed(), 3u);
  builder.Start();
  ASSERT_TRUE(builder.WaitForWatermark(3));
  EXPECT_EQ(builder.lag(), 0u);
  EXPECT_GE(store.segments_sealed(), 1u);

  EXPECT_EQ(ScanCountAt(&store, table, 1), 50u);
  EXPECT_EQ(ScanCountAt(&store, table, 2), 100u);
  // Height 3: updates keep the count (delete base + insert new), deletes
  // remove 5.
  EXPECT_EQ(ScanCountAt(&store, table, 3), 95u);

  // The updated rows read back their new payloads at height 3.
  std::vector<const Row*> rows;
  sql::ColumnarScanStats stats;
  Value lo = Value::Int(0), hi = Value::Int(9);
  ASSERT_TRUE(sql::ColumnarScan(store.SnapshotFor(table), 3, 0, &lo, true,
                                &hi, true, &rows, &stats)
                  .ok());
  ASSERT_EQ(rows.size(), 10u);
  for (const Row* r : rows) EXPECT_EQ((*r)[1].AsInt(), 1);
  builder.Stop();
}

TEST(HistoryBuilderTest, ConcurrentCommitSealAndScan) {
  constexpr BlockNum kBlocks = 60;
  constexpr int kPerBlock = 10;
  Database db;
  Table* table = db.CreateTable(KvSchema()).value();
  ColumnStore store;
  HistoryBuilder builder(&db, &store, {/*segment_blocks=*/1, ""});
  builder.Bootstrap(0);
  builder.Start();

  // expected[b] = visible rows at height b; written by the commit thread
  // before SetCommitted(b) publishes b (release), read by scanners after
  // observing committed() >= b (acquire).
  std::vector<size_t> expected(kBlocks + 1, 0);
  std::atomic<bool> done{false};

  std::thread committer([&] {
    int next_key = 0;
    RowId prev_first = 0;
    size_t live = 0;
    for (BlockNum b = 1; b <= kBlocks; ++b) {
      TxnContext ctx(&db,
                     db.txn_manager()->Begin(
                         Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                     TxnMode::kInternal);
      RowId first = table->NumVersions();
      for (int i = 0; i < kPerBlock; ++i) {
        ASSERT_TRUE(
            ctx.Insert(table, {Value::Int(next_key++), Value::Int(0)}).ok());
      }
      // Delete 3 of the previous block's rows.
      size_t deletes = 0;
      if (b > 1) {
        for (RowId rid = prev_first; rid < prev_first + 3; ++rid) {
          ASSERT_TRUE(ctx.Delete(table, rid).ok());
        }
        deletes = 3;
      }
      ASSERT_TRUE(ctx.CommitInternal(b).ok());
      for (RowId rid = first; rid < table->NumVersions(); ++rid) {
        store.OnInsert(table, rid, b);
      }
      if (b > 1) {
        for (RowId rid = prev_first; rid < prev_first + 3; ++rid) {
          store.OnDelete(table, rid, b);
        }
      }
      live += static_cast<size_t>(kPerBlock) - deletes;
      expected[b] = live;
      store.SetCommitted(b);
      builder.NotifyCommitted(b);
      prev_first = first;
      // Pace against the sealer so the run interleaves commit, seal and
      // scan instead of committing everything before the builder wakes.
      while (builder.lag() > 4) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> scanners;
  std::atomic<uint64_t> scans{0};
  for (int t = 0; t < 3; ++t) {
    scanners.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        BlockNum committed = store.committed();
        if (committed == 0) {
          std::this_thread::yield();
          continue;
        }
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        BlockNum h = 1 + static_cast<BlockNum>(x % committed);
        size_t got = ScanCountAt(&store, table, h);
        EXPECT_EQ(got, expected[h]) << "height " << h;
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  committer.join();
  for (auto& s : scanners) s.join();
  ASSERT_TRUE(builder.WaitForWatermark(kBlocks));
  EXPECT_EQ(ScanCountAt(&store, table, kBlocks),
            expected[kBlocks]);
  // The sealer must actually have run concurrently, and the scanners must
  // have scanned a mix of sealed and tail state.
  EXPECT_GE(store.segments_sealed(), 10u);
  EXPECT_GT(scans.load(), 0u);
  builder.Stop();
}

}  // namespace
}  // namespace brdb
