// Block-pipeline tests: out-of-order block arrival + catch-up fetch must
// produce the same committed state and decision order as in-order
// delivery, at pipeline depth 1 (the legacy serial baseline) and depth 4;
// concurrent EOP submissions under a deep pipeline must decide identically
// on every node; a failing durable-store append must be retried (not
// silently dropped) and surfaced in metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/blockchain_network.h"

namespace brdb {
namespace {

NetworkOptions FastOptions(TransactionFlow flow, size_t pipeline_depth) {
  NetworkOptions opts;
  opts.flow = flow;
  // Solo orderer: one sequencer, so sequentially submitted transactions
  // pack into blocks deterministically (the cross-depth comparison below
  // needs identical blocks in every run).
  opts.orderer_type = OrdererType::kSolo;
  opts.orderer_config.block_size = 3;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.pipeline_depth = pipeline_depth;
  return opts;
}

Status RegisterContracts(BlockchainNetwork* net) {
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      }));
  // args: (key, nonce). The nonce is not used by the SQL — it exists so
  // repeated bumps of one key stay distinct transactions: EOP txids are
  // content-derived (identity, contract, args, snapshot height), and two
  // byte-identical invocations at one height would be one txid — a replay,
  // which pgledger dedup rightly aborts.
  return net->RegisterNativeContract(
      "bump", [](ContractContext* ctx) -> Status {
        if (ctx->args().empty()) return Status::InvalidArgument("no key");
        auto r = ctx->Execute("UPDATE kv SET v = v + 1 WHERE k = $1",
                              {ctx->args()[0]});
        return r.ok() ? Status::OK() : r.status();
      });
}

/// One decision observed by a node, keyed by the contract's first argument
/// (txids differ between runs; args are ours and deterministic).
struct Decision {
  int64_t key;
  bool ok;
  bool operator==(const Decision& o) const {
    return key == o.key && ok == o.ok;
  }
};

std::string DecisionLog(const std::vector<Decision>& ds) {
  std::ostringstream out;
  for (const Decision& d : ds) out << d.key << (d.ok ? "+" : "-") << " ";
  return out.str();
}

std::string TableDump(DatabaseNode* node) {
  auto r = node->Query("observer", "SELECT k, v FROM kv");
  if (!r.ok()) return "error: " + r.status().ToString();
  std::ostringstream out;
  for (const auto& row : r.value().rows) {
    out << row[0].AsInt() << "=" << row[1].AsInt() << " ";
  }
  return out.str();
}

/// Run the out-of-order scenario at one depth: node 2 has the next two
/// blocks dropped, so it first receives block N+2 (a gap), pulls N and N+1
/// through the §3.6 catch-up fetch, and must converge to the same state
/// and decision order as the in-order nodes. Returns a state signature
/// compared across depths.
std::string RunOutOfOrderScenario(size_t depth) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kOrderThenExecute, depth));
  EXPECT_TRUE(RegisterContracts(net.get()).ok());
  EXPECT_TRUE(net->Start().ok());
  EXPECT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  Session* alice = net->CreateSession("org1", "alice");
  net->CreateSession("org1", "observer");  // read-only identity

  DatabaseNode* victim = net->node(2);
  DatabaseNode* witness = net->node(0);

  // Nodes log raw (txid, ok) decisions: a node can decide a transaction
  // before Submit has returned its txid (the third submission of a burst
  // completes a block), so txids map to workload keys only after the last
  // submission. The keys make decision logs comparable across runs.
  std::mutex log_mu;
  using RawLog = std::vector<std::pair<std::string, bool>>;
  RawLog victim_raw, witness_raw;
  auto subscribe = [&](DatabaseNode* node, RawLog* log) {
    return node->Subscribe([&, log](const TxnNotification& n) {
      std::lock_guard<std::mutex> lock(log_mu);
      log->emplace_back(n.txid, n.status.ok());
    });
  };
  auto victim_sub = subscribe(victim, &victim_raw);
  auto witness_sub = subscribe(witness, &witness_raw);
  std::map<std::string, int64_t> key_of_txid;
  // Workload decisions in log order; governance / foreign txns are skipped.
  // Call with log_mu held, after the last submission.
  auto keyed = [&key_of_txid](const RawLog& raw) {
    std::vector<Decision> out;
    for (const auto& [txid, ok] : raw) {
      auto it = key_of_txid.find(txid);
      if (it != key_of_txid.end()) out.push_back(Decision{it->second, ok});
    }
    return out;
  };

  // Drop the next two blocks to the victim: it will see the third first.
  BlockNum drop_below = witness->Height() + 3;
  std::string victim_ep = victim->endpoint();
  net->network()->SetDropFilter([victim_ep,
                                 drop_below](const NetMessage& m) {
    if (m.to != victim_ep || m.type != kMsgBlock) return false;
    auto b = Block::Decode(m.payload);
    return b.ok() && b.value().number() < drop_below;
  });

  // Five bursts of three transactions, submitted back to back so all five
  // blocks broadcast within milliseconds — the victim receives block
  // drop_below (= N+2) while N and N+1 are missing, the exact gap the
  // catch-up fetch must fill. The third entry of each burst reuses the
  // first key, so position 2 of every block aborts deterministically (PK
  // violation at the serial commit).
  std::vector<TxnHandle> txns;
  for (int burst = 0; burst < 5; ++burst) {
    for (int j = 0; j < 3; ++j) {
      int64_t k = burst * 2 + (j == 1 ? 1 : 0);
      TxnHandle t = alice->Submit("put", {Value::Int(k), Value::Int(burst)});
      EXPECT_TRUE(t.submit_status().ok()) << t.submit_status().ToString();
      if (!t.submit_status().ok()) return "submit failed";
      key_of_txid[t.txid()] = k;
      txns.push_back(t);
    }
  }
  for (auto& t : txns) {
    // Decided on a majority: OK (commit) or the abort status; only a
    // timeout is a failure.
    Status st = t.Wait(20000000);
    EXPECT_NE(st.code(), StatusCode::kUnavailable) << st.ToString();
  }

  // Heal; the victim catches up through pending blocks + ordering fetch.
  // Target the last workload transaction's block — witness->Height() here
  // could race its own processing of the final block.
  net->network()->SetDropFilter(nullptr);
  BlockNum target = 0;
  for (const auto& t : txns) {
    target = std::max(target, t.CommitBlock());
  }
  EXPECT_GT(target, 0u);
  EXPECT_TRUE(net->WaitForHeight(target, 30000000).ok());
  // Heights publish BEFORE notifications (so clients never race their own
  // commit); wait for the notification streams to drain too.
  {
    Micros deadline = RealClock::Shared()->NowMicros() + 10000000;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(log_mu);
        if (keyed(victim_raw).size() >= txns.size() &&
            keyed(witness_raw).size() >= txns.size()) {
          break;
        }
      }
      if (RealClock::Shared()->NowMicros() > deadline) break;
      RealClock::Shared()->SleepMicros(1000);
    }
  }

  EXPECT_EQ(victim->Height(), witness->Height());
  std::string victim_state = TableDump(victim);
  std::string witness_state = TableDump(witness);
  EXPECT_EQ(victim_state, witness_state);
  {
    std::lock_guard<std::mutex> lock(log_mu);
    EXPECT_EQ(DecisionLog(keyed(victim_raw)), DecisionLog(keyed(witness_raw)))
        << "decision order diverged between out-of-order and in-order "
           "nodes at depth "
        << depth;
  }
  victim->Unsubscribe(victim_sub);
  witness->Unsubscribe(witness_sub);

  std::string signature;
  {
    std::lock_guard<std::mutex> lock(log_mu);
    signature = witness_state + "| " + DecisionLog(keyed(witness_raw));
  }
  net->Stop();
  return signature;
}

TEST(PipelineOutOfOrderTest, CatchUpMatchesInOrderAcrossDepths) {
  std::string at_depth_1 = RunOutOfOrderScenario(1);
  std::string at_depth_4 = RunOutOfOrderScenario(4);
  // The pipeline may change when work happens, never what is decided.
  EXPECT_EQ(at_depth_1, at_depth_4);
}

// Concurrent variant (tsan-labelled binary): EOP submissions race the
// pipelined commit path; every node must reach identical per-transaction
// decisions, and checkpoint write-set hashes must agree.
TEST(PipelineConcurrentTest, EopDecisionsIdenticalOnAllNodesAtDepth4) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kExecuteOrderParallel, 4));
  ASSERT_TRUE(RegisterContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());

  Session* s1 = net->CreateSession("org1", "u1");
  Session* s2 = net->CreateSession("org2", "u2");
  // Seed a small, contended key space.
  {
    std::vector<TxnHandle> seeds;
    for (int k = 0; k < 4; ++k) {
      seeds.push_back(s1->Submit("put", {Value::Int(k), Value::Int(0)}));
    }
    for (auto& h : seeds) ASSERT_TRUE(h.WaitAllNodes(20000000).ok());
  }

  // Two sessions pipeline conflicting read-modify-writes concurrently.
  std::vector<TxnHandle> handles;
  handles.reserve(60);
  for (int i = 0; i < 30; ++i) {
    handles.push_back(
        s1->Submit("bump", {Value::Int(i % 4), Value::Int(i)}));
    handles.push_back(
        s2->Submit("bump", {Value::Int((i + 1) % 4), Value::Int(i)}));
  }
  size_t committed = 0;
  for (auto& h : handles) {
    (void)h.WaitAllNodes(30000000);
    auto statuses = h.NodeStatuses();
    ASSERT_EQ(statuses.size(), net->num_nodes());
    const Status& first = statuses.begin()->second;
    for (const auto& [node, st] : statuses) {
      // The DECISION (commit vs abort) must be identical on every node.
      // The abort *reason* may legitimately differ: a node that executed
      // a transaction early records the conflict as a ww-candidate loss,
      // one that executed it after the conflicting block committed sees a
      // stale read — the paper's manifestation asymmetry (§3.4.3), which
      // predates the pipeline (the submission peer always executes early).
      EXPECT_EQ(st.ok(), first.ok())
          << "node " << node << " decided differently: " << st.ToString()
          << " vs " << first.ToString();
    }
    if (first.ok()) ++committed;
  }
  EXPECT_GT(committed, 0u);

  // Checkpoint agreement: every workload block's write-set hash matched on
  // all peers. Votes ride in later blocks, so flush a few more blocks
  // through to carry the trailing votes before checking.
  net->WaitIdle();
  BlockNum settled = net->node(0)->Height();
  for (int flush = 0; flush < 3; ++flush) {
    auto h = s1->Submit("put", {Value::Int(1000 + flush), Value::Int(0)});
    ASSERT_TRUE(h.WaitAllNodes(20000000).ok());
  }
  net->WaitIdle();
  // MatchCount counts the OTHER peers' matching votes: full agreement on a
  // 3-node network is 2.
  for (BlockNum b = 1; b <= settled; ++b) {
    EXPECT_EQ(net->node(0)->CheckpointMatches(b), net->num_nodes() - 1)
        << "write-set hash divergence at block " << b;
  }
  net->Stop();
}

// Contract upgrade with blocks in flight at depth 4: contract versions
// resolve by block height, so an invocation ordered before the upgrade
// runs the old version even when the (pipelined) registry apply has
// already installed the new one — and no in-flight invocation is doomed.
// The seed aborted every active invocation of an upgraded contract at
// apply time, which made the outcome depend on pipeline depth and timing.
TEST(PipelineContractUpgradeTest, UpgradeWithBlocksInFlightAtDepth4) {
  auto net = BlockchainNetwork::Create(
      FastOptions(TransactionFlow::kOrderThenExecute, 4));
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  ASSERT_TRUE(net->DeployContract("CREATE PROCEDURE mark(1) AS "
                                  "INSERT INTO kv VALUES ($1, 1)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");
  net->CreateSession("org1", "observer");

  // Submit a continuous stream of invocations while the upgrade's
  // three-step governance flow runs, so workload blocks are in flight
  // around the registry apply; then a post-upgrade tail.
  std::mutex txns_mu;
  std::vector<std::pair<TxnHandle, int64_t>> txns;  // handle -> key
  std::atomic<bool> upgraded{false};
  std::thread submitter([&] {
    int64_t k = 0;
    auto submit_one = [&] {
      TxnHandle t = alice->Submit("mark", {Value::Int(k)});
      ASSERT_TRUE(t.submit_status().ok()) << t.submit_status().ToString();
      std::lock_guard<std::mutex> lock(txns_mu);
      txns.emplace_back(t, k);
      ++k;
    };
    while (!upgraded.load()) {
      submit_one();
      RealClock::Shared()->SleepMicros(2000);
    }
    for (int i = 0; i < 6; ++i) submit_one();
  });
  ASSERT_TRUE(net->DeployContract("CREATE PROCEDURE mark(1) AS "
                                  "INSERT INTO kv VALUES ($1, 2)")
                  .ok());
  upgraded.store(true);
  submitter.join();

  // Every invocation must COMMIT: keys are distinct (no PK conflicts) and
  // the workload never reads, so the only way to abort would be the old
  // doom-on-apply rule.
  BlockNum max_block = 0;
  for (auto& [t, key] : txns) {
    Status st = t.Wait(30000000);
    EXPECT_TRUE(st.ok()) << "key " << key
                         << " aborted across the upgrade: " << st.ToString();
    max_block = std::max(max_block, t.CommitBlock());
  }
  ASSERT_TRUE(net->WaitForHeight(max_block, 30000000).ok());

  // The version each key observed is a pure function of its block: blocks
  // up to the upgrade block write 1, later blocks write 2 — one clean
  // threshold, no interleaving from pipelined execution timing.
  auto r = net->node(0)->Query("observer", "SELECT k, v FROM kv");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<int64_t, int64_t> value_of;
  for (const auto& row : r.value().rows) {
    value_of[row[0].AsInt()] = row[1].AsInt();
  }
  std::map<BlockNum, int64_t> version_of_block;
  bool saw_v1 = false, saw_v2 = false;
  for (const auto& [t, key] : txns) {
    BlockNum b = t.CommitBlock();
    ASSERT_TRUE(value_of.count(key)) << "committed key " << key << " missing";
    int64_t v = value_of[key];
    saw_v1 |= v == 1;
    saw_v2 |= v == 2;
    auto [it, inserted] = version_of_block.emplace(b, v);
    EXPECT_EQ(it->second, v)
        << "block " << b << " mixed contract versions";
  }
  EXPECT_TRUE(saw_v1) << "no pre-upgrade invocation committed";
  EXPECT_TRUE(saw_v2) << "no post-upgrade invocation committed";
  int64_t prev = 1;
  for (const auto& [b, v] : version_of_block) {
    EXPECT_GE(v, prev) << "version regressed at block " << b;
    prev = v;
  }

  // All nodes converged on the same state.
  EXPECT_EQ(TableDump(net->node(0)), TableDump(net->node(2)));
  net->Stop();
}

// A failing durable append must keep the block pending, count the failure
// in metrics, and retry (with backoff) until the disk heals — the seed
// logged and lost it. The outage is injected: the segmented store keeps
// its active segment open, so filesystem games from outside (the old
// version of this test renamed the log away) no longer make writes fail.
TEST(PipelineAppendRetryTest, FailedAppendIsRetriedAndCounted) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "brdb_append_retry_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  FaultInjector injector;
  NetworkOptions opts = FastOptions(TransactionFlow::kOrderThenExecute, 2);
  opts.block_store_dir = dir.string();
  opts.fault_injector = &injector;
  opts.fault_injector_node = "peer-org1";
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
          .ok());
  Session* alice = net->CreateSession("org1", "alice");

  DatabaseNode* node0 = net->node(0);
  BlockNum before = node0->Height();

  // Sustained outage on node 0's disk. Appends must start failing but the
  // block stays pending.
  injector.FailAllAppends(true);

  TxnHandle t = alice->Submit("put", {Value::Int(100), Value::Int(1)});
  ASSERT_TRUE(t.submit_status().ok());
  ASSERT_TRUE(t.Wait().ok());  // majority commits

  // Let node 0 hit the broken store a few times.
  Micros deadline = RealClock::Shared()->NowMicros() + 10000000;
  while (node0->metrics()->Snapshot().block_append_failures == 0 &&
         RealClock::Shared()->NowMicros() < deadline) {
    RealClock::Shared()->SleepMicros(2000);
  }
  EXPECT_GT(node0->metrics()->Snapshot().block_append_failures, 0u);
  EXPECT_EQ(node0->Height(), before);  // block held back, not lost

  // Heal the disk; the pending block must be appended and committed
  // without any new delivery.
  injector.FailAllAppends(false);
  BlockNum target = net->node(1)->Height();
  EXPECT_TRUE(net->WaitForHeight(target, 20000000).ok());
  EXPECT_GE(node0->Height(), before + 1);
  EXPECT_GT(injector.appends_failed(), 0u);
  EXPECT_TRUE(node0->block_store()->VerifyChain().ok());

  net->Stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace brdb
