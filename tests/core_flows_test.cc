// Deeper end-to-end tests of the core: recovery after failure (§3.6),
// byzantine commit-withholding detected through checkpoints (§3.5),
// provenance audit queries over pgledger (§4.2, Table 3), on-chain user
// onboarding, contract deployment + invocation over the network, all
// ordering services, the WAN profile, and a property-style sweep that
// hammers conflicting transactions and checks that every node converges to
// the same state.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/blockchain_network.h"

namespace brdb {
namespace {

NetworkOptions FastOptions(TransactionFlow flow,
                           OrdererType orderer = OrdererType::kKafka) {
  NetworkOptions opts;
  opts.flow = flow;
  opts.orderer_type = orderer;
  opts.orderer_config.block_size = 10;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  return opts;
}

Status RegisterAccountContracts(BlockchainNetwork* net) {
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "open_account", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO accounts VALUES ($1, $2)",
                              ctx->args());
        return r.ok() ? Status::OK() : r.status();
      }));
  return net->RegisterNativeContract(
      "transfer", [](ContractContext* ctx) -> Status {
        // read-modify-write on two rows: a natural SSI conflict generator.
        auto from = ctx->Execute(
            "SELECT balance FROM accounts WHERE id = $1", {ctx->args()[0]});
        if (!from.ok()) return from.status();
        auto to = ctx->Execute(
            "SELECT balance FROM accounts WHERE id = $1", {ctx->args()[1]});
        if (!to.ok()) return to.status();
        auto fb = from.value().Scalar();
        auto tb = to.value().Scalar();
        if (!fb.ok() || !tb.ok()) return Status::NotFound("missing account");
        int64_t amount = ctx->args()[2].AsInt();
        if (fb.value().AsInt() < amount) {
          return Status::Aborted("insufficient funds");
        }
        auto u1 = ctx->Execute(
            "UPDATE accounts SET balance = $2 WHERE id = $1",
            {ctx->args()[0], Value::Int(fb.value().AsInt() - amount)});
        if (!u1.ok()) return u1.status();
        auto u2 = ctx->Execute(
            "UPDATE accounts SET balance = $2 WHERE id = $1",
            {ctx->args()[1], Value::Int(tb.value().AsInt() + amount)});
        if (!u2.ok()) return u2.status();
        return Status::OK();
      });
}

int64_t TotalBalance(DatabaseNode* node, const std::string& user) {
  auto r = node->Query(user, "SELECT COALESCE(SUM(balance), -1) FROM accounts");
  if (!r.ok()) return -99;
  auto s = r.value().Scalar();
  return s.ok() ? s.value().AsInt() : -99;
}

std::string StateFingerprint(DatabaseNode* node, const std::string& user) {
  auto r = node->Query(
      user, "SELECT id, balance FROM accounts ORDER BY id");
  if (!r.ok()) return "ERR:" + r.status().ToString();
  std::string out;
  for (const Row& row : r.value().rows) {
    out += row[0].ToString() + "=" + row[1].ToString() + ";";
  }
  return out;
}

// ---------- conflict-heavy consistency sweep (property test) ----------

struct SweepParam {
  TransactionFlow flow;
  int accounts;
  int txns;
};

class ConsistencySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConsistencySweep, AllNodesConvergeUnderConflicts) {
  const SweepParam p = GetParam();
  auto net = BlockchainNetwork::Create(FastOptions(p.flow));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());

  Session* alice = net->CreateSession("org1", "alice");
  std::vector<TxnHandle> opens;
  for (int i = 0; i < p.accounts; ++i) {
    TxnHandle t =
        alice->Submit("open_account", {Value::Int(i), Value::Int(1000)});
    ASSERT_TRUE(t.submit_status().ok());
    opens.push_back(t);
  }
  for (auto& t : opens) {
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }

  // Fire conflicting transfers over a tiny account set; many will collide.
  Rng rng(p.accounts * 1000 + p.txns);
  std::vector<TxnHandle> txns;
  for (int i = 0; i < p.txns; ++i) {
    int64_t from = static_cast<int64_t>(rng.Uniform(p.accounts));
    int64_t to = static_cast<int64_t>(rng.Uniform(p.accounts));
    if (from == to) to = (to + 1) % p.accounts;
    TxnHandle t = alice->Submit(
        "transfer", {Value::Int(from), Value::Int(to),
                     Value::Int(rng.UniformRange(1, 50))});
    if (t.submit_status().code() == StatusCode::kAlreadyExists) {
      // EOP transaction ids are content-derived (§3.4.3): an identical
      // transfer at the same snapshot height IS the same transaction.
      continue;
    }
    ASSERT_TRUE(t.submit_status().ok()) << t.submit_status().ToString();
    txns.push_back(t);
  }
  for (auto& t : txns) {
    (void)t.WaitAllNodes(20000000);
  }
  net->WaitIdle();

  // Invariants: money conserved, all nodes byte-identical, checkpoints
  // agree, and the per-txid decisions match on every node.
  std::string fp0 = StateFingerprint(net->node(0), "alice");
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    EXPECT_EQ(TotalBalance(net->node(i), "alice"), p.accounts * 1000)
        << net->node(i)->name();
    EXPECT_EQ(StateFingerprint(net->node(i), "alice"), fp0)
        << net->node(i)->name();
    EXPECT_TRUE(net->node(i)->checkpoints()->Divergences().empty())
        << net->node(i)->name();
  }
  for (const auto& t : txns) {
    auto statuses = t.NodeStatuses();
    ASSERT_EQ(statuses.size(), net->num_nodes()) << t.txid();
    bool first_ok = statuses.begin()->second.ok();
    for (const auto& [node, st] : statuses) {
      EXPECT_EQ(st.ok(), first_ok)
          << "node " << node << " decided differently for " << t.txid()
          << ": "
          << st.ToString();
    }
  }
  net->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsistencySweep,
    ::testing::Values(
        SweepParam{TransactionFlow::kOrderThenExecute, 4, 40},
        SweepParam{TransactionFlow::kOrderThenExecute, 2, 30},
        SweepParam{TransactionFlow::kExecuteOrderParallel, 4, 40},
        SweepParam{TransactionFlow::kExecuteOrderParallel, 2, 30}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name =
          info.param.flow == TransactionFlow::kOrderThenExecute ? "OE" : "EOP";
      return name + "_a" + std::to_string(info.param.accounts) + "_t" +
             std::to_string(info.param.txns);
    });

// ---------- recovery (§3.6) ----------

TEST(RecoveryTest, NodeReplaysBlockStoreAfterCrash) {
  auto dir = std::filesystem::temp_directory_path() / "brdb_recovery_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  NetworkOptions opts = FastOptions(TransactionFlow::kOrderThenExecute);
  opts.block_store_dir = dir.string();
  std::string fingerprint_before;
  BlockNum height_before = 0;
  std::string cp_hash_before;
  {
    auto net = BlockchainNetwork::Create(opts);
    ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
    ASSERT_TRUE(net->Start().ok());
    ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                    "(id INT PRIMARY KEY, balance INT)")
                    .ok());
    Session* alice = net->CreateSession("org1", "alice");
    for (int i = 0; i < 5; ++i) {
      TxnHandle t = alice->Submit("open_account",
                                  {Value::Int(i), Value::Int(100 + i)});
      ASSERT_TRUE(t.submit_status().ok());
      ASSERT_TRUE(t.WaitAllNodes().ok());
    }
    net->WaitIdle();
    fingerprint_before = StateFingerprint(net->node(0), "alice");
    height_before = net->node(0)->Height();
    cp_hash_before = net->node(0)->checkpoints()->LocalHash(height_before);
    net->Stop();  // "crash": all in-memory state is gone
  }

  // A fresh network over the same block stores replays to the same state.
  // Certificates are exchanged at startup (§3.7), so alice's identity must
  // be re-registered before replay begins.
  {
    auto net = BlockchainNetwork::Create(opts);
    ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
    net->CreateSession("org1", "alice");
    ASSERT_TRUE(net->Start().ok());
    ASSERT_TRUE(net->WaitForHeight(height_before).ok());
    net->WaitIdle();
    EXPECT_EQ(StateFingerprint(net->node(0), "alice"), fingerprint_before);
    EXPECT_EQ(net->node(0)->checkpoints()->LocalHash(height_before),
              cp_hash_before);
    // The deployed DDL was replayed too.
    EXPECT_TRUE(net->node(0)->db()->GetTable("accounts").ok());
    net->Stop();
  }
  std::filesystem::remove_all(dir);
}

// ---------- byzantine behaviour (§3.5) ----------

TEST(ByzantineTest, CommitWithholdingIsDetectedViaCheckpoints) {
  NetworkOptions opts = FastOptions(TransactionFlow::kOrderThenExecute);
  opts.orgs = {"org1", "org2", "org3", "org4"};
  // org4's peer skips the last commit per block.
  opts.byzantine_policies[3].skip_commit = true;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 6; ++i) {
    TxnHandle t =
        alice->Submit("open_account", {Value::Int(i), Value::Int(10)});
    ASSERT_TRUE(t.submit_status().ok());
    (void)t.Wait();
  }
  net->WaitIdle();

  // Honest nodes agree among themselves and flag the byzantine peer.
  bool honest_flagged_byzantine = false;
  for (size_t i = 0; i < 3; ++i) {
    for (const auto& d : net->node(i)->checkpoints()->Divergences()) {
      if (d.peer == net->node(3)->name()) honest_flagged_byzantine = true;
      // No honest peer is ever flagged by another honest peer.
      EXPECT_EQ(d.peer, net->node(3)->name());
    }
  }
  EXPECT_TRUE(honest_flagged_byzantine);
  // Liveness is unaffected (§3.5(3)): honest nodes still committed.
  EXPECT_GT(net->node(0)->metrics()->txns_committed(), 0u);
  net->Stop();
}

TEST(ByzantineTest, ForgedTransactionRejectedEverywhere) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  auto good =
      alice->MakeTransaction("open_account", {Value::Int(1), Value::Int(5)});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  Transaction forged =
      good.value().WithForgedArgs({Value::Int(1), Value::Int(5000)});
  ASSERT_TRUE(net->ordering()->SubmitTransaction(forged).ok());
  Status st = alice->Track(forged.id()).Wait(3000000);
  EXPECT_FALSE(st.ok());
  net->WaitIdle();
  // The forged row never appears.
  auto r = net->node(0)->Query("alice", "SELECT COUNT(*) FROM accounts");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 0);
  net->Stop();
}

// ---------- provenance & ledger (§4.2, Table 3) ----------

TEST(ProvenanceTest, AuditHistoricalBalancesThroughLedgerJoin) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  TxnHandle open =
      alice->Submit("open_account", {Value::Int(1), Value::Int(100)});
  ASSERT_TRUE(open.submit_status().ok());
  ASSERT_TRUE(open.WaitAllNodes().ok());
  TxnHandle open2 =
      alice->Submit("open_account", {Value::Int(2), Value::Int(0)});
  ASSERT_TRUE(open2.submit_status().ok());
  ASSERT_TRUE(open2.WaitAllNodes().ok());
  for (int i = 0; i < 3; ++i) {
    TxnHandle t = alice->Submit("transfer",
                                {Value::Int(1), Value::Int(2), Value::Int(10)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }
  net->WaitIdle();

  // Normal query: only the live balance.
  auto live = alice->Query("SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().Scalar().value().AsInt(), 70);

  // Provenance: every historical balance of account 1.
  auto history = alice->ProvenanceQuery(
      "SELECT balance FROM accounts WHERE id = 1 ORDER BY balance DESC");
  ASSERT_TRUE(history.ok()) << history.status().ToString();
  ASSERT_EQ(history.value().rows.size(), 4u);  // 100, 90, 80, 70
  EXPECT_EQ(history.value().rows[0][0].AsInt(), 100);
  EXPECT_EQ(history.value().rows[3][0].AsInt(), 70);

  // Table 3-style audit: which user's transactions deleted (superseded)
  // versions of account 1? Join the version chain with pgledger on the
  // deleter transaction id.
  auto audit = alice->ProvenanceQuery(
      "SELECT l.username, l.contract, a.balance "
      "FROM accounts a JOIN pgledger l ON a.xmax = l.local_txn "
      "WHERE a.id = 1 ORDER BY a.balance DESC");
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  ASSERT_EQ(audit.value().rows.size(), 3u);  // 3 superseded versions
  for (const Row& row : audit.value().rows) {
    EXPECT_EQ(row[0].AsText(), "alice");
    EXPECT_EQ(row[1].AsText(), "transfer");
  }

  // The ledger records commit/abort statuses.
  auto ledger = alice->Query(
      "SELECT COUNT(*) FROM pgledger WHERE status = 'committed'");
  ASSERT_TRUE(ledger.ok());
  EXPECT_GE(ledger.value().Scalar().value().AsInt(), 5);
  net->Stop();
}

// ---------- on-chain user onboarding ----------

TEST(UserOnboardingTest, CreateUserContractEnablesNewClient) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());

  // Bob is NOT bootstrap-registered: his key goes on-chain via create_user.
  Identity bob = Identity::Create("org2", "bob", PrincipalRole::kClient);
  Session* admin = net->AdminOf("org1");
  TxnHandle create = admin->Submit(
      "create_user",
      {Value::Text(bob.name), Value::Text(bob.organization),
       Value::Text("client"),
       Value::Int(static_cast<int64_t>(bob.keys.public_key))});
  ASSERT_TRUE(create.submit_status().ok());
  ASSERT_TRUE(create.WaitAllNodes().ok());

  // Bob can now submit transactions authenticated against pgcerts.
  Transaction tx = Transaction::MakeOrderThenExecute(
      bob, "bob-1", "open_account", {Value::Int(42), Value::Int(7)});
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  ASSERT_TRUE(admin->Track(tx.id()).WaitAllNodes().ok());
  auto r = net->node(1)->Query("admin-org1",
                               "SELECT balance FROM accounts WHERE id = 42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 7);
  net->Stop();
}

// ---------- deployed SQL procedures over the network ----------

TEST(DeployedProcedureTest, ProcedureRunsIdenticallyOnAllNodes) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kExecuteOrderParallel));
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE inventory "
                                  "(sku INT PRIMARY KEY, qty INT, "
                                  "CHECK (qty >= 0))")
                  .ok());
  ASSERT_TRUE(net->DeployContract(
                     "CREATE PROCEDURE restock(2) AS "
                     "cur := SELECT COALESCE(MAX(qty), 0) FROM inventory "
                     "WHERE sku = $1;"
                     "DELETE FROM inventory WHERE sku = $1;"
                     "INSERT INTO inventory VALUES ($1, $cur + $2)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 3; ++i) {
    TxnHandle t = alice->Submit("restock", {Value::Int(1), Value::Int(5)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok()) << "iteration " << i;
  }
  net->WaitIdle();
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    auto r = net->node(i)->Query("alice",
                                 "SELECT qty FROM inventory WHERE sku = 1");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().Scalar().value().AsInt(), 15)
        << net->node(i)->name();
  }
  net->Stop();
}

// ---------- all ordering services drive the full system ----------

class OrdererMatrix : public ::testing::TestWithParam<OrdererType> {};

TEST_P(OrdererMatrix, EndToEndWithEachOrderingService) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kOrderThenExecute, GetParam()));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 8; ++i) {
    TxnHandle t =
        alice->Submit("open_account", {Value::Int(i), Value::Int(1)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait().ok());
  }
  net->WaitIdle();
  EXPECT_EQ(TotalBalance(net->node(0), "alice"), 8);
  EXPECT_EQ(StateFingerprint(net->node(0), "alice"),
            StateFingerprint(net->node(1), "alice"));
  net->Stop();
}

INSTANTIATE_TEST_SUITE_P(AllOrderers, OrdererMatrix,
                         ::testing::Values(OrdererType::kSolo,
                                           OrdererType::kKafka),
                         [](const ::testing::TestParamInfo<OrdererType>& i) {
                           return i.param == OrdererType::kSolo ? "Solo"
                                                                : "Kafka";
                         });

// ---------- WAN profile ----------

TEST(WanTest, MultiCloudProfileStillConverges) {
  NetworkOptions opts = FastOptions(TransactionFlow::kOrderThenExecute);
  opts.profile = NetworkProfile::Wan();
  opts.orderer_config.block_timeout_us = 50000;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  TxnHandle t = alice->Submit("open_account", {Value::Int(1), Value::Int(1)});
  ASSERT_TRUE(t.submit_status().ok());
  EXPECT_TRUE(t.WaitAllNodes(20000000).ok());
  net->Stop();
}

// ---------- serial (Ethereum-style) baseline ----------

TEST(SerialBaselineTest, SerialExecutionMatchesConcurrentResults) {
  NetworkOptions opts = FastOptions(TransactionFlow::kOrderThenExecute);
  opts.node.serial_execution = true;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  std::vector<TxnHandle> txns;
  for (int i = 0; i < 10; ++i) {
    TxnHandle t =
        alice->Submit("open_account", {Value::Int(i), Value::Int(i)});
    ASSERT_TRUE(t.submit_status().ok());
    txns.push_back(t);
  }
  for (auto& t : txns) {
    EXPECT_TRUE(t.Wait().ok());
  }
  net->WaitIdle();
  EXPECT_EQ(TotalBalance(net->node(0), "alice"), 45);
  net->Stop();
}

// ---------- duplicate ids ----------

TEST(DuplicateIdTest, ResubmittedTransactionCommitsOnlyOnce) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterAccountContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE accounts "
                                  "(id INT PRIMARY KEY, balance INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  auto made =
      alice->MakeTransaction("open_account", {Value::Int(1), Value::Int(5)});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const Transaction& tx = made.value();
  // Client-side timeout false alarm (§3.5(2)): the same transaction is
  // submitted twice; the duplicate id check makes the second a no-op.
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  (void)alice->Track(tx.id()).Wait();
  net->WaitIdle();
  auto r = net->node(0)->Query("alice", "SELECT COUNT(*) FROM accounts");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 1);
  net->Stop();
}

}  // namespace
}  // namespace brdb
