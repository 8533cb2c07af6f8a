// Node-level tests: private (non-blockchain) schema and its UNIQUE/PK
// enforcement, vacuum, query access control, EOP snapshot-height edge
// cases, gap-filling retransmission, contract-replacement semantics,
// NodeConfig's environment overrides, and the cost of an idle network.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/blockchain_network.h"
#include "network/chaos.h"

namespace brdb {
namespace {

NetworkOptions FastOptions(TransactionFlow flow) {
  NetworkOptions opts;
  opts.flow = flow;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = 10;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  return opts;
}

Status RegisterPut(BlockchainNetwork* net) {
  return net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
}

class NodeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = BlockchainNetwork::Create(
        FastOptions(TransactionFlow::kOrderThenExecute));
    ASSERT_TRUE(RegisterPut(net_.get()).ok());
    ASSERT_TRUE(net_->Start().ok());
    ASSERT_TRUE(
        net_->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
            .ok());
    alice_ = net_->CreateSession("org1", "alice");
  }

  void Put(int k, int v) {
    TxnHandle t = alice_->Submit("put", {Value::Int(k), Value::Int(v)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }

  std::unique_ptr<BlockchainNetwork> net_;
  Session* alice_ = nullptr;
};

// ---------- private (non-blockchain) schema, §3.7 ----------

TEST_F(NodeFixture, PrivateTablesAreLocalToOneNode) {
  DatabaseNode* n0 = net_->node(0);
  ASSERT_TRUE(n0->LocalExecute("alice",
                               "CREATE TABLE notes (id INT PRIMARY KEY, "
                               "txt TEXT)")
                  .ok());
  ASSERT_TRUE(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (1, 'draft')")
          .ok());
  auto r = n0->LocalExecute("alice", "SELECT COUNT(*) FROM notes");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 1);
  // The other organizations' nodes have no such table.
  EXPECT_FALSE(net_->node(1)->Query("alice", "SELECT * FROM notes").ok());
}

TEST_F(NodeFixture, PrivateDmlCannotTouchBlockchainTables) {
  DatabaseNode* n0 = net_->node(0);
  Put(1, 100);
  EXPECT_EQ(n0->LocalExecute("alice", "INSERT INTO kv VALUES (9, 9)")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(
      n0->LocalExecute("alice", "UPDATE kv SET v = 0 WHERE k = 1")
          .status()
          .code(),
      StatusCode::kPermissionDenied);
  EXPECT_EQ(n0->LocalExecute("alice", "DROP TABLE kv").status().code(),
            StatusCode::kPermissionDenied);
  // System tables are equally off limits.
  EXPECT_FALSE(
      n0->LocalExecute("alice", "DELETE FROM pgcerts WHERE pubkey = 0").ok());
}

TEST_F(NodeFixture, ReportsJoinPrivateAndBlockchainData) {
  // The paper: "Users of an organization can execute reports or analytical
  // queries combining the blockchain and non-blockchain schema."
  Put(1, 100);
  Put(2, 200);
  DatabaseNode* n0 = net_->node(0);
  ASSERT_TRUE(n0->LocalExecute("alice",
                               "CREATE TABLE labels (k INT PRIMARY KEY, "
                               "label TEXT)")
                  .ok());
  ASSERT_TRUE(n0->LocalExecute(
                    "alice", "INSERT INTO labels VALUES (1, 'important')")
                  .ok());
  auto r = n0->LocalExecute(
      "alice",
      "SELECT kv.k, kv.v, l.label FROM kv JOIN labels l ON kv.k = l.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][1].AsInt(), 100);
  EXPECT_EQ(r.value().rows[0][2].AsText(), "important");
}

TEST_F(NodeFixture, LocalExecuteRequiresKnownUser) {
  EXPECT_EQ(
      net_->node(0)->LocalExecute("ghost", "SELECT 1").status().code(),
      StatusCode::kPermissionDenied);
}

Result<int64_t> CountNotes(DatabaseNode* node, const std::string& where) {
  auto r = node->LocalExecute("alice", "SELECT COUNT(*) FROM notes" + where);
  if (!r.ok()) return r.status();
  auto v = r.value().Scalar();
  if (!v.ok()) return v.status();
  return v.value().AsInt();
}

TEST_F(NodeFixture, PrivateTablesEnforcePrimaryKey) {
  DatabaseNode* n0 = net_->node(0);
  ASSERT_TRUE(n0->LocalExecute("alice",
                               "CREATE TABLE notes (id INT PRIMARY KEY, "
                               "n INT NOT NULL)")
                  .ok());
  // A duplicate within one statement fails the whole statement.
  EXPECT_EQ(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (3, 1), (3, 2)")
          .status()
          .code(),
      StatusCode::kConstraintViolation);
  EXPECT_EQ(CountNotes(n0, " WHERE id = 3").value(), 0);
  ASSERT_TRUE(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (3, 5)").ok());
  // A duplicate of a committed row, by INSERT or by UPDATE.
  EXPECT_EQ(n0->LocalExecute("alice", "INSERT INTO notes VALUES (3, 6)")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (4, 1)").ok());
  EXPECT_EQ(
      n0->LocalExecute("alice", "UPDATE notes SET id = 3 WHERE id = 4")
          .status()
          .code(),
      StatusCode::kConstraintViolation);
  EXPECT_EQ(CountNotes(n0, " WHERE id = 3").value(), 1);
  EXPECT_EQ(CountNotes(n0, "").value(), 2);
}

TEST_F(NodeFixture, FailedPrivateInsertLeavesNothingBehind) {
  DatabaseNode* n0 = net_->node(0);
  ASSERT_TRUE(n0->LocalExecute("alice",
                               "CREATE TABLE notes (id INT PRIMARY KEY, "
                               "n INT NOT NULL)")
                  .ok());
  // The first row is written before the second fails NOT NULL.
  EXPECT_FALSE(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (7, 1), (8, NULL)")
          .ok());
  EXPECT_EQ(CountNotes(n0, "").value(), 0);
  // The failed statement's version belongs to an ended transaction: it is
  // marked dead, not left to an active one.
  Table* notes = n0->db()->GetTable("notes").value();
  ASSERT_FALSE(notes->ScanAllRowIds().empty());
  for (RowId id : notes->ScanAllRowIds()) {
    VersionMeta meta = notes->MetaOf(id);
    EXPECT_NE(n0->db()->txn_manager()->StateOf(meta.xmin), TxnState::kActive);
    EXPECT_TRUE(meta.creator_aborted);
  }
  // The retry is not blocked by the dead version.
  ASSERT_TRUE(
      n0->LocalExecute("alice", "INSERT INTO notes VALUES (7, 1), (8, 2)")
          .ok());
  EXPECT_EQ(CountNotes(n0, "").value(), 2);
}

TEST_F(NodeFixture, ConcurrentPrivateInsertsOfOneKeyAdmitExactlyOne) {
  DatabaseNode* n0 = net_->node(0);
  ASSERT_TRUE(n0->LocalExecute("alice",
                               "CREATE TABLE notes (id INT PRIMARY KEY, "
                               "n INT NOT NULL)")
                  .ok());
  // Two threads insert the same key, each as the first row of a statement
  // that goes on to insert rows of its own. The trailing rows hold the
  // statement open between its unique check on the shared key and its
  // commit, so without serialization both checks pass.
  constexpr int kRounds = 20;
  constexpr int kOwnRows = 400;
  for (int round = 0; round < kRounds; ++round) {
    const int shared = 1000000 + round;
    std::atomic<int> ready{0};
    std::atomic<int> succeeded{0};
    auto insert = [&](int side) {
      std::string sql =
          "INSERT INTO notes VALUES (" + std::to_string(shared) + ", 0)";
      for (int i = 0; i < kOwnRows; ++i) {
        sql += ", (" + std::to_string(round * 1000 + side * 500 + i) + ", 0)";
      }
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      auto r = n0->LocalExecute("alice", sql);
      if (r.ok()) {
        succeeded.fetch_add(1);
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
      }
    };
    std::thread a(insert, 0);
    std::thread b(insert, 1);
    a.join();
    b.join();
    EXPECT_EQ(succeeded.load(), 1) << "round " << round;
    EXPECT_EQ(
        CountNotes(n0, " WHERE id = " + std::to_string(shared)).value(), 1);
  }
  EXPECT_EQ(CountNotes(n0, "").value(), kRounds * (kOwnRows + 1));
}

// ---------- vacuum (§7) ----------

TEST_F(NodeFixture, VacuumPrunesDeadVersionsButKeepsLiveState) {
  ASSERT_TRUE(net_->RegisterNativeContract(
                      "bump",
                      [](ContractContext* ctx) -> Status {
                        auto r = ctx->Execute(
                            "UPDATE kv SET v = v + 1 WHERE k = $1",
                            ctx->args());
                        return r.ok() ? Status::OK() : r.status();
                      })
                  .ok());
  Put(1, 0);
  for (int i = 0; i < 5; ++i) {
    TxnHandle t = alice_->Submit("bump", {Value::Int(1)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }
  DatabaseNode* n0 = net_->node(0);
  // Provenance sees all six versions before vacuum.
  auto before = n0->ProvenanceQuery(
      "alice", "SELECT COUNT(*) FROM kv WHERE k = 1");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().Scalar().value().AsInt(), 6);

  size_t removed = n0->Vacuum(n0->Height());
  EXPECT_GE(removed, 5u);

  // Live state intact; history pruned.
  auto live = n0->Query("alice", "SELECT v FROM kv WHERE k = 1");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().Scalar().value().AsInt(), 5);
  auto after = n0->ProvenanceQuery(
      "alice", "SELECT COUNT(*) FROM kv WHERE k = 1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().Scalar().value().AsInt(), 1);
}

// ---------- query access control ----------

TEST_F(NodeFixture, QueriesRequireRegisteredUsersAndSelectOnly) {
  Put(1, 1);
  EXPECT_EQ(
      net_->node(0)->Query("ghost", "SELECT * FROM kv").status().code(),
      StatusCode::kPermissionDenied);
  // Individual DML must go through smart contracts (§3.7).
  EXPECT_EQ(net_->node(0)
                ->Query("alice", "INSERT INTO kv VALUES (5, 5)")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(net_->node(0)
                ->ProvenanceQuery("alice", "DELETE FROM kv")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(NodeFixture, IntegerOverflowInAQueryIsAnErrorNotACrash) {
  // INT64_MIN / -1 traps in hardware; signed overflow is undefined. Any
  // registered user can send these, so each must come back as an error
  // while the node keeps committing.
  Put(1, 1);
  Put(2, 2);
  DatabaseNode* n0 = net_->node(0);
  for (const char* sql :
       {"SELECT (-9223372036854775807 - 1) / -1",
        "SELECT v * 9223372036854775807 FROM kv WHERE k = 2",
        "SELECT SUM(v + 4611686018427387903) FROM kv"}) {
    auto r = n0->Query("alice", sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  auto mod = n0->Query("alice", "SELECT (-9223372036854775807 - 1) % -1");
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  EXPECT_EQ(mod.value().Scalar().value().AsInt(), 0);
  Put(3, 3);
  auto r = n0->Query("alice", "SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 3);
}

TEST_F(NodeFixture, SumOverTextInAQueryOrContractIsAnErrorNotACrash) {
  // SUM/AVG over TEXT or BOOL used to throw out of the executor and abort
  // the process; in a contract that would stop every replica at the same
  // block. Each must come back as an error while the node keeps committing.
  ASSERT_TRUE(net_->DeployContract(
                     "CREATE TABLE notes (k INT PRIMARY KEY, s TEXT, b BOOL)")
                  .ok());
  ASSERT_TRUE(net_->DeployContract("CREATE PROCEDURE note(1) AS "
                                   "INSERT INTO notes VALUES ($1, 'x', TRUE)")
                  .ok());
  ASSERT_TRUE(net_->DeployContract("CREATE PROCEDURE total(1) AS "
                                   "t := SELECT SUM(s) FROM notes;"
                                   "INSERT INTO kv VALUES ($1, 0)")
                  .ok());
  TxnHandle note = alice_->Submit("note", {Value::Int(1)});
  ASSERT_TRUE(note.submit_status().ok());
  ASSERT_TRUE(note.WaitAllNodes().ok());

  DatabaseNode* n0 = net_->node(0);
  for (const char* sql :
       {"SELECT SUM(s) FROM notes", "SELECT AVG(b) FROM notes",
        "SELECT k, AVG(s) FROM notes GROUP BY k"}) {
    auto r = n0->Query("alice", sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  TxnHandle total = alice_->Submit("total", {Value::Int(7)});
  ASSERT_TRUE(total.submit_status().ok());
  EXPECT_FALSE(total.WaitAllNodes().ok());
  for (const auto& [node, st] : total.NodeStatuses()) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << node;
  }
  Put(3, 3);
  for (size_t i = 0; i < net_->num_nodes(); ++i) {
    auto r = net_->node(i)->Query("alice", "SELECT COUNT(*) FROM kv");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Scalar().value().AsInt(), 1) << i;
  }
}

// ---------- EOP snapshot-height edge cases ----------

TEST(EopHeightTest, FutureSnapshotHeightAbortsDeterministically) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kExecuteOrderParallel));
  ASSERT_TRUE(RegisterPut(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  Session* alice = net->CreateSession("org1", "alice");

  // Forge a transaction claiming a snapshot far in the future: it can
  // never execute before its own block, so every node must abort it.
  Identity forger = Identity::Create("org1", "alice", PrincipalRole::kClient);
  Transaction tx = Transaction::MakeExecuteOrderParallel(
      forger, "put", {Value::Int(1), Value::Int(1)},
      /*snapshot_height=*/999999);
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  TxnHandle forged = alice->Track(tx.id());
  Status st = forged.WaitAllNodes(20000000);
  EXPECT_FALSE(st.ok());
  auto statuses = forged.NodeStatuses();
  ASSERT_EQ(statuses.size(), net->num_nodes());
  for (const auto& [node, s] : statuses) {
    EXPECT_EQ(s.code(), StatusCode::kSerializationFailure) << node;
  }
  net->Stop();
}

// A node that lags receives forwarded EOP transactions whose snapshot
// height it has not committed yet. If each held an executor thread while
// it waited, a pool full of them would starve the executions of the very
// blocks the node needs to reach that height, and the node would stall.
TEST(EopHeightTest, LaggingNodeDoesNotStarveItsExecutors) {
  NetworkFaultInjector chaos;
  NetworkOptions opts = FastOptions(TransactionFlow::kExecuteOrderParallel);
  opts.chaos = &chaos;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterPut(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  Session* alice = net->CreateSession("org1", "alice");
  DatabaseNode* n0 = net->node(0);
  // Submit through node 0 at its committed height.
  auto submit = [&](int k) {
    Transaction tx = Transaction::MakeExecuteOrderParallel(
        alice->identity(), "put", {Value::Int(k), Value::Int(k)},
        n0->Height());
    EXPECT_TRUE(n0->SubmitTransaction(tx).ok());
    return alice->Track(tx.id());
  };

  // Node 2 misses these transactions and their blocks entirely.
  const std::string lagging = net->node(2)->name();
  chaos.SetEndpointDown(lagging, true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(submit(i).Wait().ok());  // majority commits
  }
  chaos.SetEndpointDown(lagging, false);

  // Snapshots ahead of node 2, more of them than it has executor threads.
  const int ahead = static_cast<int>(opts.node.executor_threads) * 3;
  std::vector<TxnHandle> txns;
  for (int i = 0; i < ahead; ++i) txns.push_back(submit(100 + i));
  for (auto& t : txns) ASSERT_TRUE(t.Wait().ok());
  ASSERT_TRUE(net->WaitForHeight(n0->Height(), 20000000).ok());
  auto r = net->node(2)->Query("alice", "SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 3 + ahead);
  net->Stop();
}

// ---------- gap filling (§3.6 retransmission) ----------

TEST(GapFillTest, PartitionedNodeCatchesUpViaOrderingRetransmission) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterPut(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  Session* alice = net->CreateSession("org1", "alice");

  // Cut node 2 off from orderer block deliveries.
  std::string victim = net->node(2)->endpoint();
  net->network()->SetDropFilter([victim](const NetMessage& m) {
    return m.to == victim && m.type == kMsgBlock;
  });
  std::vector<TxnHandle> txns;
  for (int i = 0; i < 5; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i)});
    ASSERT_TRUE(t.submit_status().ok());
    txns.push_back(t);
  }
  for (auto& t : txns) {
    ASSERT_TRUE(t.Wait().ok());  // majority commits
  }
  // Heal the partition; node 2 pulls missing blocks from the orderer.
  net->network()->SetDropFilter(nullptr);
  BlockNum target = net->node(0)->Height();
  ASSERT_TRUE(net->WaitForHeight(target, 20000000).ok());
  auto r = net->node(2)->Query("alice", "SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 5);
  net->Stop();
}

// ---------- idle cost ----------

struct IdleCost {
  long voluntary_switches;
  double cpu_ms;
};

IdleCost ProcessCost() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ru.ru_nvcsw, ms(ru.ru_utime) + ms(ru.ru_stime)};
}

class IdleNetworkTest
    : public ::testing::TestWithParam<
          std::tuple<OrdererType, TransactionFlow>> {};

// Cutters and block fetch wait on events, not on a clock: a network with
// no traffic makes tens of voluntary context switches a second (periodic
// §3.6 catch-up probes, the history builder's seal check), not thousands.
// A switch count does not depend on a sanitizer's slowdown.
TEST_P(IdleNetworkTest, IdleNetworkBarelyWakes) {
  NetworkOptions opts = FastOptions(std::get<1>(GetParam()));
  opts.orderer_type = std::get<0>(GetParam());
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  std::this_thread::sleep_for(std::chrono::seconds(1));  // settle
  const IdleCost before = ProcessCost();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const IdleCost after = ProcessCost();
  const long per_second =
      (after.voluntary_switches - before.voluntary_switches) / 2;
  RecordProperty("voluntary_switches_per_second", std::to_string(per_second));
  RecordProperty("cpu_ms_per_second",
                 std::to_string((after.cpu_ms - before.cpu_ms) / 2));
  EXPECT_LT(per_second, 500);
  net->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    OrdererByFlow, IdleNetworkTest,
    ::testing::Combine(
        ::testing::Values(OrdererType::kSolo, OrdererType::kKafka),
        ::testing::Values(TransactionFlow::kOrderThenExecute,
                          TransactionFlow::kExecuteOrderParallel)),
    [](const ::testing::TestParamInfo<IdleNetworkTest::ParamType>& info) {
      const bool solo = std::get<0>(info.param) == OrdererType::kSolo;
      const bool oe =
          std::get<1>(info.param) == TransactionFlow::kOrderThenExecute;
      return std::string(solo ? "Solo" : "Kafka") + (oe ? "OE" : "EOP");
    });

// ---------- contract replacement (§3.7) ----------

TEST(ContractUpdateTest, ReplacedProcedureTakesEffectAfterCommit) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  ASSERT_TRUE(net->DeployContract("CREATE PROCEDURE put2(1) AS "
                                  "INSERT INTO kv VALUES ($1, 1)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  TxnHandle t1 = alice->Submit("put2", {Value::Int(1)});
  ASSERT_TRUE(t1.submit_status().ok());
  ASSERT_TRUE(t1.WaitAllNodes().ok());

  // Replace the contract: now writes v = 2.
  ASSERT_TRUE(net->DeployContract("CREATE PROCEDURE put2(1) AS "
                                  "INSERT INTO kv VALUES ($1, 2)")
                  .ok());
  TxnHandle t2 = alice->Submit("put2", {Value::Int(5)});
  ASSERT_TRUE(t2.submit_status().ok());
  ASSERT_TRUE(t2.WaitAllNodes().ok());
  auto r = net->node(0)->Query("alice", "SELECT v FROM kv WHERE k = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 2);

  // Dropping it makes further invocations fail.
  ASSERT_TRUE(net->DeployContract("DROP PROCEDURE put2").ok());
  TxnHandle t3 = alice->Submit("put2", {Value::Int(6)});
  ASSERT_TRUE(t3.submit_status().ok());
  EXPECT_FALSE(t3.Wait().ok());
  net->Stop();
}

// ---------- NodeConfig resolution: config > environment > default ----------

/// Sets (or, with nullopt, unsets) an environment variable for one scope and
/// restores the previous value on exit — check.sh runs the whole suite a
/// second time with BRDB_PIPELINE_DEPTH=1 set.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, std::optional<std::string> value) : var_(var) {
    if (const char* old = std::getenv(var)) saved_ = old;
    Set(value);
  }
  ~ScopedEnv() { Set(saved_); }
  void Set(const std::optional<std::string>& value) {
    if (value) {
      setenv(var_, value->c_str(), 1);
    } else {
      unsetenv(var_);
    }
  }

 private:
  const char* var_;
  std::optional<std::string> saved_;
};

/// The config a node resolves at construction (no Start, no network).
NodeConfig ResolvedConfig(size_t pipeline_depth) {
  NodeConfig cfg;
  cfg.name = "peer-org1";
  cfg.org = "org1";
  cfg.executor_threads = 1;
  cfg.pipeline_depth = pipeline_depth;
  DatabaseNode node(cfg,
                    Identity::Create("org1", "peer-org1", PrincipalRole::kPeer),
                    std::make_shared<CertificateRegistry>(), nullptr, nullptr);
  return node.config();
}

TEST(NodeConfigTest, EnvOverridePrecedence) {
  ScopedEnv depth("BRDB_PIPELINE_DEPTH", std::nullopt);

  // Default when neither config nor environment sets a value.
  NodeConfig cfg = ResolvedConfig(0);
  EXPECT_EQ(cfg.pipeline_depth, 2u);
  EXPECT_EQ(cfg.sig_cache_capacity, 65536u);
  EXPECT_EQ(cfg.analytics_segment_blocks, 16u);

  // The environment beats the default.
  depth.Set("3");
  EXPECT_EQ(ResolvedConfig(0).pipeline_depth, 3u);

  // An explicit config value beats the environment.
  EXPECT_EQ(ResolvedConfig(1).pipeline_depth, 1u);

  // Zero, negative and non-numeric values fall back to the default.
  for (const char* bad : {"0", "-3", "abc", ""}) {
    SCOPED_TRACE(bad);
    depth.Set(bad);
    EXPECT_EQ(ResolvedConfig(0).pipeline_depth, 2u);
  }
}

}  // namespace
}  // namespace brdb
