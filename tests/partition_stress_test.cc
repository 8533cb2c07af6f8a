// Multi-partition stress (ThreadSanitizer-labelled): executor threads
// hammer partition-local SSI bookkeeping — point transactions pinned to
// their key's partition racing range scans that touch every partition —
// while a serial committer validates in block order. Exercises the
// per-partition stripe groups, the per-slot conflict mutexes, the
// touched-partition bitmask and the cross-partition merge under real
// concurrency; a node-level variant drives the per-partition executor
// groups end to end and checks the decisions still agree on every peer.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/blockchain_network.h"
#include "storage/database.h"
#include "storage/partition.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

constexpr int kRows = 1024;
constexpr int kBlockSize = 48;
constexpr int kBlocks = 10;
constexpr size_t kPartitions = 8;
constexpr size_t kThreads = 8;
constexpr BlockNum kSnapshotLag = 2;

TableSchema PartitionedSchema() {
  TableSchema schema("accounts",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"balance", ValueType::kInt, false, false, false,
                       false}});
  schema.SetPartitionColumn(0);
  return schema;
}

struct Executed {
  std::unique_ptr<TxnContext> ctx;
  bool exec_ok = false;
};

void ExecuteOne(Database* db, Table* accounts, BlockNum block, int idx,
                Executed* out) {
  Rng rng(0x57e5 + static_cast<uint64_t>(block) * 2654435761ULL +
          static_cast<uint64_t>(idx));
  BlockNum h = block > kSnapshotLag ? block - kSnapshotLag : 1;
  const bool point = idx % 2 == 0;
  int64_t lo_key = static_cast<int64_t>(rng.Uniform(kRows - 16));
  uint32_t home = PartitionOfValue(Value::Int(lo_key), kPartitions);
  auto ctx = std::make_unique<TxnContext>(
      db, db->txn_manager()->Begin(Snapshot::AtBlockHeight(h), "", home),
      TxnMode::kNormal);
  Value lo = Value::Int(lo_key);
  Value hi = Value::Int(point ? lo_key : lo_key + 15);
  RowId target = kInvalidRowId;
  int64_t key = 0, balance = 0;
  Status st = ctx->ScanRange(accounts, 0, &lo, true, &hi, true,
                             [&](RowId id, const Row& values) {
                               if (target == kInvalidRowId) {
                                 target = id;
                                 key = values[0].AsInt();
                                 balance = values[1].AsInt();
                               }
                               return true;
                             });
  if (st.ok() && target != kInvalidRowId) {
    st = ctx->Update(accounts, target,
                     {Value::Int(key), Value::Int(balance + 1)});
  }
  out->exec_ok = st.ok();
  out->ctx = std::move(ctx);
}

TEST(PartitionStressTest, ConcurrentMixedWorkloadValidatesCleanly) {
  Database db{TxnManagerOptions{/*stripes=*/0, kPartitions}};
  Table* accounts = db.CreateTable(PartitionedSchema()).value();
  {
    TxnContext seed(&db,
                    db.txn_manager()->Begin(
                        Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                    TxnMode::kInternal);
    for (int i = 0; i < kRows; ++i) {
      (void)seed.Insert(accounts, {Value::Int(i), Value::Int(0)});
    }
    (void)seed.CommitInternal(1);
  }

  // fig8b-style pipeline: workers execute up to kSnapshotLag blocks ahead
  // of the serial committer.
  constexpr size_t kTotal = static_cast<size_t>(kBlocks) * kBlockSize;
  std::mutex mu;
  std::condition_variable cv;
  BlockNum committed_block = 1;
  std::vector<int> remaining(kBlocks, kBlockSize);
  std::atomic<size_t> next_task{0};
  std::vector<std::vector<Executed>> executed(kBlocks);
  for (auto& v : executed) v.resize(kBlockSize);

  auto worker = [&] {
    for (;;) {
      size_t t = next_task.fetch_add(1);
      if (t >= kTotal) return;
      size_t bi = t / kBlockSize;
      BlockNum block = static_cast<BlockNum>(bi) + 2;
      BlockNum gate = block > kSnapshotLag ? block - kSnapshotLag : 1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return committed_block >= gate; });
      }
      ExecuteOne(&db, accounts, block, static_cast<int>(t % kBlockSize),
                 &executed[bi][t % kBlockSize]);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining[bi] == 0) cv.notify_all();
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) pool.emplace_back(worker);

  uint64_t committed = 0, aborted = 0;
  for (size_t bi = 0; bi < static_cast<size_t>(kBlocks); ++bi) {
    BlockNum block = static_cast<BlockNum>(bi) + 2;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return remaining[bi] == 0; });
    }
    std::vector<Executed>& entries = executed[bi];
    std::vector<TxnId> members;
    for (const Executed& e : entries) members.push_back(e.ctx->id());
    for (size_t pos = 0; pos < entries.size(); ++pos) {
      Executed& e = entries[pos];
      if (!e.exec_ok) {
        e.ctx->Abort(Status::Aborted("execution failed"));
        ++aborted;
        continue;
      }
      Status st = e.ctx->CommitSerially(SsiPolicy::kBlockAware, block,
                                        static_cast<int>(pos), members);
      if (st.ok()) {
        ++committed;
      } else {
        ++aborted;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      committed_block = block;
    }
    cv.notify_all();
    db.txn_manager()->GarbageCollect();
  }
  for (auto& t : pool) t.join();

  EXPECT_EQ(committed + aborted, kTotal);
  EXPECT_GT(committed, 0u);
  TxnPartitionCounters counters = db.txn_manager()->partition_counters();
  EXPECT_GT(counters.single_partition_validations, 0u);
  EXPECT_GT(counters.multi_partition_validations, 0u);

  // Sum of balances == number of committed updates (every txn adds 1).
  int64_t total = 0;
  TxnContext check(&db,
                   db.txn_manager()->Begin(
                       Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
  ASSERT_TRUE(check
                  .ScanAll(accounts,
                           [&](RowId, const Row& values) {
                             total += values[1].AsInt();
                             return true;
                           })
                  .ok());
  check.Abort(Status::Aborted("read-only"));
  EXPECT_EQ(static_cast<uint64_t>(total), committed);
}

// Node-level: concurrent EOP sessions race the per-partition executor
// groups; every node must reach the same per-transaction decision.
TEST(PartitionStressTest, EopDecisionsAgreeAcrossNodesWithPartitions) {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kExecuteOrderParallel;
  opts.orderer_type = OrdererType::kSolo;
  opts.orderer_config.block_size = 3;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.partitions = 4;
  opts.node.pipeline_depth = 2;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(net->RegisterNativeContract(
                     "put",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)",
                                             ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->RegisterNativeContract(
                     "bump",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute(
                           "UPDATE kv SET v = v + 1 WHERE k = $1",
                           {ctx->args()[0]});
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract(
                     "CREATE TABLE kv (k INT PRIMARY KEY, v INT) "
                     "PARTITION BY HASH (k)")
                  .ok());

  Session* s1 = net->CreateSession("org1", "u1");
  Session* s2 = net->CreateSession("org2", "u2");
  {
    std::vector<TxnHandle> seeds;
    for (int k = 0; k < 8; ++k) {
      seeds.push_back(s1->Submit("put", {Value::Int(k), Value::Int(0)}));
    }
    for (auto& h : seeds) ASSERT_TRUE(h.WaitAllNodes(20000000).ok());
  }

  std::vector<TxnHandle> handles;
  for (int i = 0; i < 24; ++i) {
    handles.push_back(s1->Submit("bump", {Value::Int(i % 8), Value::Int(i)}));
    handles.push_back(
        s2->Submit("bump", {Value::Int((i + 3) % 8), Value::Int(i)}));
  }
  size_t committed = 0;
  for (auto& h : handles) {
    (void)h.WaitAllNodes(30000000);
    auto statuses = h.NodeStatuses();
    ASSERT_EQ(statuses.size(), net->num_nodes());
    const Status& first = statuses.begin()->second;
    for (const auto& [node, st] : statuses) {
      EXPECT_EQ(st.ok(), first.ok())
          << "node " << node << " decided differently: " << st.ToString()
          << " vs " << first.ToString();
    }
    if (first.ok()) ++committed;
  }
  EXPECT_GT(committed, 0u);
  net->WaitIdle();
  // The point updates must have exercised the partitioned fast path.
  MetricsSnapshot m = net->node(0)->metrics()->Snapshot();
  EXPECT_GT(m.single_partition_txns, 0u);
  net->Stop();
}

}  // namespace
}  // namespace brdb
