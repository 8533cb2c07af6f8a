// Stress and determinism coverage for the striped TxnManager: many
// executor threads doing MVCC reads, SSI bookkeeping, writes and aborts
// concurrently against the sharded registry and striped reverse maps,
// followed by the serial block-order commit phase. The key properties:
//
//  * no lost or phantom money under concurrent conflicting transfers
//    (committed state conserves the total balance, aborts roll back
//    atomically),
//  * the stripe count is invisible to commit decisions — stripes=1 (the
//    historical single-mutex layout) and the default striping produce
//    byte-identical per-transaction outcomes and final state,
//  * a full execute-order-in-parallel network with concurrent submitters
//    commits the identical write-set hash and state on every node.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/blockchain_network.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

constexpr int kRows = 256;
constexpr int64_t kInitialBalance = 1000;

TableSchema AccountsSchema() {
  return TableSchema("accounts",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"balance", ValueType::kInt, false, false, false,
                       false}});
}

void SeedAccounts(Database* db, Table* accounts) {
  TxnContext seed(db,
                  db->txn_manager()->Begin(
                      Snapshot::AtCsn(db->txn_manager()->CurrentCsn())),
                  TxnMode::kInternal);
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        seed.Insert(accounts, {Value::Int(i), Value::Int(kInitialBalance)})
            .ok());
  }
  ASSERT_TRUE(seed.CommitInternal(1).ok());
}

int64_t CommittedTotal(Database* db, Table* accounts) {
  TxnContext read(db,
                  db->txn_manager()->Begin(
                      Snapshot::AtCsn(db->txn_manager()->CurrentCsn())),
                  TxnMode::kInternal);
  int64_t total = 0;
  Status st = read.ScanAll(accounts, [&](RowId, const Row& values) {
    total += values[1].AsInt();
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return total;
}

/// One concurrently-executed transfer round followed by a serial commit.
/// Returns the per-position commit/abort codes, in block order.
std::vector<StatusCode> RunTransferBlock(Database* db, Table* accounts,
                                         size_t threads, int block_index,
                                         int txns_per_block,
                                         uint64_t seed_base) {
  struct Slot {
    std::unique_ptr<TxnContext> ctx;
    bool exec_ok = false;
    bool doomed_early = false;
  };
  std::vector<Slot> slots(txns_per_block);

  auto worker = [&](size_t tid) {
    Rng rng(seed_base + block_index * 977 + tid);
    for (size_t i = tid; i < slots.size(); i += threads) {
      auto ctx = std::make_unique<TxnContext>(
          db,
          db->txn_manager()->Begin(
              Snapshot::AtCsn(db->txn_manager()->CurrentCsn())),
          TxnMode::kNormal);
      int64_t from = static_cast<int64_t>(rng.Uniform(kRows));
      int64_t to = static_cast<int64_t>(rng.Uniform(kRows));
      int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(5));

      auto read_row = [&](int64_t key, RowId* row, int64_t* balance) {
        Value k = Value::Int(key);
        return ctx->ScanRange(accounts, 0, &k, true, &k, true,
                              [&](RowId id, const Row& values) {
                                *row = id;
                                *balance = values[1].AsInt();
                                return true;
                              });
      };
      RowId from_row = kInvalidRowId, to_row = kInvalidRowId;
      int64_t from_balance = 0, to_balance = 0;
      Status st = read_row(from, &from_row, &from_balance);
      if (st.ok()) st = read_row(to, &to_row, &to_balance);
      bool ok = st.ok() && from_row != kInvalidRowId &&
                to_row != kInvalidRowId && from != to;
      if (ok) {
        st = ctx->Update(accounts, from_row,
                         {Value::Int(from), Value::Int(from_balance - amount)});
        if (st.ok()) {
          st = ctx->Update(accounts, to_row,
                           {Value::Int(to), Value::Int(to_balance + amount)});
        }
        ok = st.ok();
      }
      // A slice of transactions abort mid-flight to exercise the
      // concurrent abort path (candidate removal, edge cleanup).
      if (ok && rng.Uniform(8) == 0) {
        ctx->Abort(Status::Aborted("random client abort"));
        slots[i].doomed_early = true;
        ok = false;
      }
      slots[i].exec_ok = ok;
      slots[i].ctx = std::move(ctx);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  BlockNum block = static_cast<BlockNum>(block_index + 2);
  std::vector<TxnId> members;
  for (const Slot& s : slots) members.push_back(s.ctx->id());
  std::vector<StatusCode> decisions;
  for (size_t pos = 0; pos < slots.size(); ++pos) {
    Slot& s = slots[pos];
    if (!s.exec_ok) {
      if (!s.doomed_early) {
        s.ctx->Abort(Status::Aborted("execution failed"));
      }
      decisions.push_back(StatusCode::kAborted);
      continue;
    }
    Status st = s.ctx->CommitSerially(SsiPolicy::kBlockAware, block,
                                      static_cast<int>(pos), members);
    decisions.push_back(st.ok() ? StatusCode::kOk : st.code());
  }
  db->txn_manager()->GarbageCollect();
  return decisions;
}

TEST(TxnStripeStressTest, ConcurrentTransfersConserveTotalBalance) {
  Database db;  // default striping
  Table* accounts = db.CreateTable(AccountsSchema()).value();
  SeedAccounts(&db, accounts);

  const size_t kThreads = 8;
  const int kBlocks = 12;
  const int kTxnsPerBlock = 48;
  size_t committed = 0, aborted = 0;
  for (int b = 0; b < kBlocks; ++b) {
    auto decisions =
        RunTransferBlock(&db, accounts, kThreads, b, kTxnsPerBlock, 0xace);
    for (StatusCode code : decisions) {
      (code == StatusCode::kOk ? committed : aborted) += 1;
    }
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(aborted, 0u);  // conflicts + random aborts must have occurred
  EXPECT_EQ(CommittedTotal(&db, accounts),
            static_cast<int64_t>(kRows) * kInitialBalance);

  // GC keeps the registry bounded: after a final collection only the
  // last-committed horizon survivors remain.
  db.txn_manager()->GarbageCollect();
  EXPECT_LT(db.txn_manager()->TrackedCount(),
            static_cast<size_t>(kTxnsPerBlock) * 2);
}

TEST(TxnStripeStressTest, StripeCountDoesNotChangeCommitDecisions) {
  // The execution barrier + dual recording make the dependency graph — and
  // therefore every commit decision — independent of thread interleaving
  // and of the lock layout. stripes=1 (single-mutex baseline) and default
  // striping must agree transaction by transaction.
  auto run = [&](size_t stripes) {
    auto db = std::make_unique<Database>(TxnManagerOptions{stripes});
    Table* accounts = db->CreateTable(AccountsSchema()).value();
    SeedAccounts(db.get(), accounts);
    std::vector<StatusCode> all;
    for (int b = 0; b < 8; ++b) {
      auto d = RunTransferBlock(db.get(), accounts, 4, b, 32, 0xbeef);
      all.insert(all.end(), d.begin(), d.end());
    }
    int64_t total = CommittedTotal(db.get(), accounts);
    return std::make_pair(all, total);
  };
  auto [decisions_single, total_single] = run(1);
  auto [decisions_striped, total_striped] = run(0);
  EXPECT_EQ(decisions_single, decisions_striped);
  EXPECT_EQ(total_single, total_striped);
  EXPECT_EQ(total_single, static_cast<int64_t>(kRows) * kInitialBalance);
}

TEST(TxnStripeStressTest, EopNetworkCommitsIdenticalStateOnEveryNode) {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kExecuteOrderParallel;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = 8;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(net
                  ->RegisterNativeContract(
                      "bump",
                      [](ContractContext* ctx) -> Status {
                        auto r = ctx->Execute(
                            "UPDATE counters SET v = v + 1 WHERE k = $1",
                            ctx->args());
                        return r.ok() ? Status::OK() : r.status();
                      })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE counters (k INT PRIMARY KEY, v INT)")
          .ok());

  Session* seeder = net->CreateSession("org1", "seeder");
  ASSERT_TRUE(net
                  ->RegisterNativeContract(
                      "put",
                      [](ContractContext* ctx) -> Status {
                        auto r = ctx->Execute(
                            "INSERT INTO counters VALUES ($1, $2)",
                            ctx->args());
                        return r.ok() ? Status::OK() : r.status();
                      })
                  .ok());
  std::vector<TxnHandle> seeds;
  for (int k = 0; k < 4; ++k) {
    TxnHandle t = seeder->Submit("put", {Value::Int(k), Value::Int(0)});
    ASSERT_TRUE(t.submit_status().ok());
    seeds.push_back(t);
  }
  for (auto& t : seeds) {
    ASSERT_TRUE(t.WaitAllNodes(30000000).ok());
  }

  // Concurrent submitters hammering 4 hot keys from different orgs: lots
  // of genuine ww/rw conflicts; every node must decide them identically.
  const char* kOrgs[] = {"org1", "org2", "org3"};
  std::vector<Session*> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(
        net->CreateSession(kOrgs[i], "load" + std::to_string(i)));
  }
  std::vector<TxnHandle> txns;
  std::mutex txns_mu;
  std::vector<std::thread> submitters;
  for (int c = 0; c < 3; ++c) {
    submitters.emplace_back([&, c] {
      Rng rng(0x5eed + c);
      for (int i = 0; i < 12; ++i) {
        TxnHandle t = clients[c]->Submit(
            "bump", {Value::Int(static_cast<int64_t>(rng.Uniform(4)))});
        if (t.submit_status().ok()) {
          std::lock_guard<std::mutex> lock(txns_mu);
          txns.push_back(t);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& t : txns) {
    (void)t.WaitAllNodes(30000000);
  }
  net->WaitIdle();

  // Identical write-set hash on every node for every block.
  BlockNum height = net->node(0)->Height();
  for (size_t i = 1; i < net->num_nodes(); ++i) {
    EXPECT_EQ(net->node(i)->Height(), height) << net->node(i)->name();
  }
  for (BlockNum b = 1; b <= height; ++b) {
    std::string h0 = net->node(0)->checkpoints()->LocalHash(b);
    for (size_t i = 1; i < net->num_nodes(); ++i) {
      EXPECT_EQ(net->node(i)->checkpoints()->LocalHash(b), h0)
          << "block " << b << " on " << net->node(i)->name();
    }
  }
  // Identical per-transaction decisions on every node.
  for (const auto& t : txns) {
    auto statuses = t.NodeStatuses();
    ASSERT_EQ(statuses.size(), net->num_nodes()) << t.txid();
    bool first_ok = statuses.begin()->second.ok();
    for (const auto& [node, st] : statuses) {
      EXPECT_EQ(st.ok(), first_ok) << t.txid() << " on " << node;
    }
  }
  // Identical final counter values.
  auto canonical =
      net->node(0)->Query("seeder", "SELECT k, v FROM counters ORDER BY k");
  ASSERT_TRUE(canonical.ok());
  for (size_t i = 1; i < net->num_nodes(); ++i) {
    auto r =
        net->node(i)->Query("seeder", "SELECT k, v FROM counters ORDER BY k");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().rows.size(), canonical.value().rows.size());
    for (size_t row = 0; row < r.value().rows.size(); ++row) {
      EXPECT_EQ(r.value().rows[row][1].AsInt(),
                canonical.value().rows[row][1].AsInt())
          << "row " << row << " on " << net->node(i)->name();
    }
  }
  net->Stop();
}

}  // namespace
}  // namespace brdb
