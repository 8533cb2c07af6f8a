// The asynchronous Session API: pipelined submission of hundreds of
// in-flight transactions through TxnHandle futures, batched submission,
// the wire/codec frame boundary of the in-process transport, and the
// round-robin + failover peer-selection policy.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "core/blockchain_network.h"

namespace brdb {
namespace {

NetworkOptions FastOptions(TransactionFlow flow) {
  NetworkOptions opts;
  opts.flow = flow;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = 25;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  return opts;
}

Status RegisterKvContract(BlockchainNetwork* net) {
  return net->RegisterNativeContract(
      "put_kv", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
}

// ---------- the acceptance pipeline: 200 in-flight transactions ----------

TEST(SessionPipeliningTest, TwoHundredInFlightTransactionsConverge) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());

  Session* session = net->CreateSession("org1", "alice");
  const uint64_t frames_before =
      net->transport()->counters().frames_received.load();

  // 100 transactions in one batched frame + 100 pipelined singles, with no
  // wait anywhere between submissions.
  constexpr int kTotal = 200;
  std::vector<Invocation> batch;
  for (int i = 0; i < kTotal / 2; ++i) {
    batch.push_back(
        Invocation{"put_kv", {Value::Int(i), Value::Int(i * 10)}});
  }
  std::vector<TxnHandle> handles = session->SubmitBatch(std::move(batch));
  ASSERT_EQ(handles.size(), static_cast<size_t>(kTotal / 2));
  for (int i = kTotal / 2; i < kTotal; ++i) {
    handles.push_back(
        session->Submit("put_kv", {Value::Int(i), Value::Int(i * 10)}));
  }
  ASSERT_EQ(handles.size(), static_cast<size_t>(kTotal));
  for (const TxnHandle& h : handles) {
    ASSERT_TRUE(h.submit_status().ok()) << h.submit_status().ToString();
  }

  // Only now wait on the futures.
  for (TxnHandle& h : handles) {
    EXPECT_TRUE(h.Wait(30000000).ok()) << h.txid();
  }
  net->WaitIdle();

  // Every node reports identical decisions for every transaction.
  for (const TxnHandle& h : handles) {
    auto statuses = h.NodeStatuses();
    ASSERT_EQ(statuses.size(), net->num_nodes()) << h.txid();
    const bool first_ok = statuses.begin()->second.ok();
    for (const auto& [node, st] : statuses) {
      EXPECT_EQ(st.ok(), first_ok)
          << "node " << node << " decided differently for " << h.txid();
    }
    EXPECT_TRUE(h.Decided());
    EXPECT_GT(h.CommitBlock(), 0u);
  }

  // Identical write-set hashes on every node for every block.
  BlockNum height = net->node(0)->Height();
  ASSERT_GT(height, 0u);
  for (BlockNum b = 1; b <= height; ++b) {
    std::string h0 = net->node(0)->checkpoints()->LocalHash(b);
    for (size_t i = 1; i < net->num_nodes(); ++i) {
      ASSERT_EQ(net->node(i)->Height(), height);
      EXPECT_EQ(net->node(i)->checkpoints()->LocalHash(b), h0)
          << "block " << b << " node " << i;
    }
  }

  // All rows landed, identically, on every node.
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    auto r = net->node(i)->Query("alice", "SELECT COUNT(*) FROM kv");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().Scalar().value().AsInt(), kTotal);
  }

  // The in-process traffic demonstrably crossed the codec: at minimum one
  // decision-event frame per transaction per node was encoded + decoded.
  const uint64_t frames = net->transport()->counters().frames_received.load() -
                          frames_before;
  EXPECT_GE(frames, static_cast<uint64_t>(kTotal) * net->num_nodes());
  EXPECT_GT(net->transport()->counters().bytes_sent.load(), 0u);
  EXPECT_GT(net->transport()->counters().bytes_received.load(), 0u);

  net->Stop();
}

TEST(SessionPipeliningTest, EopBatchPipelinesAndDetectsContentDuplicates) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kExecuteOrderParallel));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());

  Session* session = net->CreateSession("org1", "bob");
  std::vector<Invocation> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back(Invocation{"put_kv", {Value::Int(i), Value::Int(i)}});
  }
  // EOP transaction ids derive from content + snapshot height (§3.4.3): an
  // identical invocation in the same batch IS the same transaction.
  batch.push_back(Invocation{"put_kv", {Value::Int(0), Value::Int(0)}});

  std::vector<TxnHandle> handles = session->SubmitBatch(std::move(batch));
  ASSERT_EQ(handles.size(), 41u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(handles[i].submit_status().ok()) << i;
  }
  EXPECT_EQ(handles[40].submit_status().code(), StatusCode::kAlreadyExists);

  for (size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(handles[i].Wait(30000000).ok()) << i;
  }
  net->WaitIdle();
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    auto r = net->node(i)->Query("bob", "SELECT COUNT(*) FROM kv");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().Scalar().value().AsInt(), 40);
  }
  net->Stop();
}

// ---------- deadline semantics (satellite: no silent shortening) ----------

TEST(TxnHandleTest, WaitTimesOutWithElapsedTimeInMessage) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(net->Start().ok());
  Session* session = net->CreateSession("org1", "carol");

  // A transaction nobody ever submits: the wait must run the full deadline.
  TxnHandle handle = session->Track("never-submitted-tx");
  auto start = std::chrono::steady_clock::now();
  Status st = handle.Wait(200000);  // 200 ms
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed, 200);
  // The message reports how long the caller actually waited.
  EXPECT_NE(st.message().find(" ms"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("never-submitted-tx"), std::string::npos);
  net->Stop();
}

// ---------- peer selection: round-robin + failover ----------

TEST(PeerSelectorTest, RoundRobinSkipsFailedPeersUntilCooldown) {
  PeerSelector selector(3, /*cooldown_us=*/60000000);
  // Healthy: plain round-robin over all three.
  std::set<size_t> seen;
  for (int i = 0; i < 6; ++i) seen.insert(selector.Next());
  EXPECT_EQ(seen.size(), 3u);

  selector.ReportFailure(1);
  EXPECT_FALSE(selector.Healthy(1));
  for (int i = 0; i < 12; ++i) {
    EXPECT_NE(selector.Next(), 1u) << "failed peer selected before cooldown";
  }

  selector.ReportSuccess(1);
  EXPECT_TRUE(selector.Healthy(1));
  seen.clear();
  for (int i = 0; i < 6; ++i) seen.insert(selector.Next());
  EXPECT_EQ(seen.size(), 3u);
}

TEST(PeerSelectorTest, AllPeersDownStillProbes) {
  PeerSelector selector(2, /*cooldown_us=*/60000000);
  selector.ReportFailure(0);
  selector.ReportFailure(1);
  // Someone has to take the probe that discovers recovery.
  size_t peer = selector.Next();
  EXPECT_LT(peer, 2u);
}

TEST(SessionFailoverTest, QueriesFailOverWhenAPeerStops) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());
  Session* session = net->CreateSession("org1", "dave");
  TxnHandle h = session->Submit("put_kv", {Value::Int(1), Value::Int(7)});
  ASSERT_TRUE(h.Wait().ok());
  ASSERT_TRUE(h.WaitAllNodes().ok());

  // Stop one peer: round-robin reads must transparently fail over to the
  // healthy ones and never surface the outage.
  net->node(0)->Stop();
  for (int i = 0; i < 12; ++i) {
    auto r = session->Query("SELECT v FROM kv WHERE k = 1");
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": "
                        << r.status().ToString();
    EXPECT_EQ(r.value().Scalar().value().AsInt(), 7);
  }
  // A read pinned to the stopped peer reports the outage honestly.
  EXPECT_EQ(session->QueryOn(0, "SELECT v FROM kv WHERE k = 1")
                .status()
                .code(),
            StatusCode::kUnavailable);
  net->Stop();
}

// ---------- decisions for externally submitted transactions ----------

TEST(SessionTrackTest, TracksTransactionsSubmittedOutOfBand) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());
  Session* session = net->CreateSession("org1", "erin");
  auto made =
      session->MakeTransaction("put_kv", {Value::Int(9), Value::Int(9)});
  ASSERT_TRUE(made.ok());
  Transaction tx = std::move(made).value();
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  TxnHandle handle = session->Track(tx.id());
  EXPECT_TRUE(handle.Wait(20000000).ok());
  EXPECT_TRUE(handle.WaitAllNodes(20000000).ok());
  EXPECT_EQ(handle.NodeStatuses().size(), net->num_nodes());
  net->Stop();
}

// ---------- decision-record retention ----------

TEST(SessionRetentionTest, DecidedRecordsDroppedAfterRetentionWindow) {
  auto net =
      BlockchainNetwork::Create(FastOptions(TransactionFlow::kOrderThenExecute));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());

  SessionOptions retention;
  retention.retain_decided_blocks = 2;
  Session* session = net->CreateSession("org1", "rita", retention);

  // Several waves of transactions, each forcing new blocks: records from
  // early blocks must be dropped once decisions from blocks >= decided + 2
  // are observed.
  std::vector<TxnHandle> handles;
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<Invocation> batch;
    for (int i = 0; i < 30; ++i) {
      batch.push_back(Invocation{
          "put_kv", {Value::Int(wave * 100 + i), Value::Int(i)}});
    }
    for (TxnHandle& h : session->SubmitBatch(std::move(batch))) {
      ASSERT_TRUE(h.submit_status().ok());
      handles.push_back(std::move(h));
    }
    for (TxnHandle& h : handles) {
      ASSERT_TRUE(h.Wait(30000000).ok()) << h.txid();
    }
  }
  net->WaitIdle();

  // 120 transactions were decided across >= 4 blocks; the retention window
  // keeps only the tail.
  EXPECT_LT(session->tracked_records(), handles.size());

  // Dropped records do not invalidate the handles already issued — they
  // co-own the decision state.
  for (TxnHandle& h : handles) {
    EXPECT_TRUE(h.Decided()) << h.txid();
    EXPECT_TRUE(h.Wait(1000000).ok()) << h.txid();
  }

  // Track() of a pruned txid resurrects the record a live handle co-owns:
  // the new handle sees the already-accumulated decisions instead of
  // starting from an empty record.
  TxnHandle re = session->Track(handles.front().txid());
  EXPECT_TRUE(re.Decided());
  EXPECT_EQ(re.NodeStatuses().size(),
            handles.front().NodeStatuses().size());

  // The default (0) keeps the historical unbounded behavior.
  Session* unbounded = net->CreateSession("org1", "uma");
  std::vector<Invocation> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(
        Invocation{"put_kv", {Value::Int(9000 + i), Value::Int(i)}});
  }
  auto uh = unbounded->SubmitBatch(std::move(batch));
  for (TxnHandle& h : uh) ASSERT_TRUE(h.Wait(30000000).ok());
  net->WaitIdle();
  // Unbounded sessions record every decision they observe (their own plus
  // broadcast traffic like checkpoints) and never drop any.
  EXPECT_GE(unbounded->tracked_records(), uh.size());
  net->Stop();
}

// ---------- registry bound: every transaction a node opens ends ----------

// Every node-local path that opens a transaction context ends it: a plain
// Session::Query, a LocalExecute SELECT, a failing LocalExecute write, a
// ProvenanceQuery, and the pgcerts fallbacks behind a query and a
// transaction by an on-chain-onboarded user. After draining, a node's
// registry then holds no more than the block pipeline can keep in flight —
// a bound set by block size and pipeline depth, not by how many blocks or
// queries ran. A context that outlives its caller instead stays active and
// pins the garbage-collection horizon, and the count grows with every query.
void CheckRegistryStaysBounded(TransactionFlow flow) {
  constexpr size_t kBlockSize = 4;
  constexpr int kRounds = 24;
  const bool eop = flow == TransactionFlow::kExecuteOrderParallel;
  NetworkOptions opts = FastOptions(flow);
  opts.orderer_config.block_size = kBlockSize;
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  Session* admin = net->AdminOf("org1");

  // Bob is onboarded on-chain only, so nodes resolve him through pgcerts.
  Identity bob = Identity::Create("org2", "bob", PrincipalRole::kClient);
  TxnHandle create = admin->Submit(
      "create_user",
      {Value::Text(bob.name), Value::Text(bob.organization),
       Value::Text("client"),
       Value::Int(static_cast<int64_t>(bob.keys.public_key))});
  ASSERT_TRUE(create.submit_status().ok());
  ASSERT_TRUE(create.WaitAllNodes().ok());

  for (size_t n = 0; n < net->num_nodes(); ++n) {
    ASSERT_TRUE(net->node(n)
                    ->LocalExecute("alice",
                                   "CREATE TABLE notes (id INT PRIMARY KEY, "
                                   "n INT)")
                    .ok());
  }

  const BlockNum start = net->node(0)->Height();
  for (int i = 0; i < kRounds; ++i) {
    TxnHandle put = alice->Submit("put_kv", {Value::Int(i), Value::Int(i)});
    ASSERT_TRUE(put.submit_status().ok());
    ASSERT_TRUE(put.WaitAllNodes().ok()) << "round " << i;

    std::vector<Value> bob_args = {Value::Int(1000 + i), Value::Int(i)};
    Transaction bob_tx =
        eop ? Transaction::MakeExecuteOrderParallel(bob, "put_kv", bob_args,
                                                    net->node(0)->Height())
            : Transaction::MakeOrderThenExecute(
                  bob, "bob-" + std::to_string(i), "put_kv", bob_args);
    ASSERT_TRUE((eop ? net->node(0)->SubmitTransaction(bob_tx)
                     : net->ordering()->SubmitTransaction(bob_tx))
                    .ok());
    ASSERT_TRUE(admin->Track(bob_tx.id()).WaitAllNodes().ok())
        << "round " << i;

    ASSERT_TRUE(alice->Query("SELECT COUNT(*) FROM kv").ok());
    for (size_t n = 0; n < net->num_nodes(); ++n) {
      DatabaseNode* node = net->node(n);
      ASSERT_TRUE(
          node->LocalExecute("alice", "SELECT COUNT(*) FROM kv").ok());
      EXPECT_FALSE(
          node->LocalExecute("alice", "INSERT INTO notes VALUES (1, 1), (1, 2)")
              .ok());
      ASSERT_TRUE(node->ProvenanceQuery("alice", "SELECT k FROM kv").ok());
      ASSERT_TRUE(node->Query("bob", "SELECT COUNT(*) FROM kv").ok());
    }
  }

  // One more block after the last query: its commit runs a GC pass that
  // finds every query context already ended.
  TxnHandle flush = alice->Submit("put_kv", {Value::Int(-1), Value::Int(0)});
  ASSERT_TRUE(flush.submit_status().ok());
  ASSERT_TRUE(flush.WaitAllNodes().ok());
  net->WaitIdle();
  ASSERT_TRUE(net->WaitForHeight(net->node(0)->Height()).ok());
  EXPECT_GE(net->node(0)->Height() - start, 20u);

  for (size_t n = 0; n < net->num_nodes(); ++n) {
    DatabaseNode* node = net->node(n);
    const size_t bound = kBlockSize * (node->pipeline_depth() + 1);
    EXPECT_LE(node->db()->txn_manager()->TrackedCount(), bound)
        << node->name();
  }
  net->Stop();
}

TEST(RegistryBoundTest, OrderThenExecuteQueriesLeaveNoTransactionBehind) {
  CheckRegistryStaysBounded(TransactionFlow::kOrderThenExecute);
}

TEST(RegistryBoundTest, ExecuteOrderParallelQueriesLeaveNoTransactionBehind) {
  CheckRegistryStaysBounded(TransactionFlow::kExecuteOrderParallel);
}

}  // namespace
}  // namespace brdb
