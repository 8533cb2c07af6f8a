// The kill -9 recovery harness: a child process runs a three-organization
// network over durable block logs with periodic state checkpoints while a
// client drives writes; the parent SIGKILLs it mid-workload, restarts the
// network over the same directories and asserts that
//   * the checkpointed node restores from its newest checkpoint and
//     replays only the block suffix,
//   * its write-set Merkle roots are byte-identical, height by height, to
//     peers that replayed the same chain uninterrupted from genesis,
//   * the rejoined network keeps committing new transactions.
// Run at pipeline depths 1 and 4 (serial and overlapped commit).
//
// Also exercises the block-append retry backoff (injected clean append
// failures must delay-retry, bump the metric, and still commit).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/blockchain_network.h"

namespace brdb {
namespace {

namespace fs = std::filesystem;

NetworkOptions DurableOptions(const std::string& dir, size_t pipeline_depth) {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kOrderThenExecute;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = 5;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.pipeline_depth = pipeline_depth;
  opts.block_store_dir = dir;
  opts.node.state_checkpoint_interval = 3;  // durable state checkpoint cadence
  return opts;
}

Status RegisterPut(BlockchainNetwork* net) {
  return net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
}

/// Child body: run the network and write forever; exits only via SIGKILL
/// (or _exit(2) on an unexpected error, which fails the parent's waitpid
/// check).
[[noreturn]] void RunChildWorkload(const std::string& dir,
                                   size_t pipeline_depth) {
  auto net = BlockchainNetwork::Create(DurableOptions(dir, pipeline_depth));
  if (!RegisterPut(net.get()).ok()) _exit(2);
  if (!net->Start().ok()) _exit(2);
  if (!net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
           .ok()) {
    _exit(2);
  }
  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0;; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    if (!t.submit_status().ok()) _exit(2);
    if (!t.Wait().ok()) _exit(2);
  }
}

size_t CountCheckpointFiles(const std::string& ckpt_dir) {
  size_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(ckpt_dir, ec)) {
    if (entry.path().extension() == ".ckpt") ++n;
  }
  return n;
}

size_t LedgerBytes(const std::string& store_dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(store_dir, ec)) {
    if (entry.path().extension() == ".seg") {
      total += static_cast<size_t>(fs::file_size(entry.path(), ec));
    }
  }
  return total;
}

class RecoveryHarness : public ::testing::TestWithParam<size_t> {};

TEST_P(RecoveryHarness, Sigkill9RestartsFromCheckpointAndMatchesPeers) {
  const size_t depth = GetParam();
  const std::string dir =
      (fs::temp_directory_path() /
       ("brdb_recovery_d" + std::to_string(depth) + "_" +
        std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store0 = dir + "/peer-org1.blocks";
  const std::string ckpts0 = store0 + "/checkpoints";

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    RunChildWorkload(dir, depth);  // never returns
  }

  // Watch the victim's directories from outside — filenames and sizes
  // only; opening a live store would mutate it. Kill once at least two
  // checkpoints exist AND the ledger has grown since the second one
  // appeared, so the crash certainly lands past a checkpoint with a
  // non-trivial suffix behind it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  size_t bytes_at_second_ckpt = 0;
  bool armed = false;
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child never produced two checkpoints plus suffix";
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, WNOHANG), 0)
        << "child workload died on its own";
    if (!armed && CountCheckpointFiles(ckpts0) >= 2) {
      armed = true;
      bytes_at_second_ckpt = LedgerBytes(store0);
    }
    if (armed && LedgerBytes(store0) > bytes_at_second_ckpt) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // The reference replicas replay from genesis: wipe their checkpoints so
  // an independently recomputed history checks the restored state.
  fs::remove_all(dir + "/peer-org2.blocks/checkpoints");
  fs::remove_all(dir + "/peer-org3.blocks/checkpoints");

  auto net = BlockchainNetwork::Create(DurableOptions(dir, depth));
  ASSERT_TRUE(RegisterPut(net.get()).ok());
  // Deterministic identities: re-creating alice restores the bootstrap
  // registry entry the replayed signatures verify against.
  (void)net->CreateSession("org1", "alice");
  ASSERT_TRUE(net->Start().ok());

  const BlockNum persisted = net->ordering()->Height();  // longest chain
  ASSERT_GT(persisted, 0u);
  ASSERT_TRUE(net->WaitForHeight(persisted, 60000000).ok());

  // The victim restored a checkpoint and replayed only the suffix.
  MetricsSnapshot m0 = net->node(0)->metrics()->Snapshot();
  ASSERT_GT(m0.restored_checkpoint_height, 0u);
  ASSERT_LE(m0.restored_checkpoint_height, persisted);
  EXPECT_EQ(net->node(1)->metrics()->Snapshot().restored_checkpoint_height,
            0u);
  EXPECT_EQ(net->node(2)->metrics()->Snapshot().restored_checkpoint_height,
            0u);

  // Byte-identical write-set roots at every height from the restored
  // checkpoint to the tip, against both genesis-replay peers. Height
  // restored_checkpoint_height itself compares the root carried IN the
  // checkpoint against freshly recomputed history.
  for (BlockNum h = m0.restored_checkpoint_height; h <= persisted; ++h) {
    std::string ours = net->node(0)->checkpoints()->LocalHash(h);
    ASSERT_FALSE(ours.empty()) << "no local hash at " << h;
    EXPECT_EQ(ours, net->node(1)->checkpoints()->LocalHash(h)) << "h=" << h;
    EXPECT_EQ(ours, net->node(2)->checkpoints()->LocalHash(h)) << "h=" << h;
  }
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    EXPECT_TRUE(net->node(i)->checkpoints()->Divergences().empty())
        << "node " << i;
  }

  // The rejoined network still commits: fresh writes decided everywhere,
  // and every node serves the same row count. A new identity submits them —
  // alice's deterministic txid counter restarted at 0, so her fresh
  // transactions would be (correctly) rejected as replays of committed ids.
  Session* carol = net->CreateSession("org1", "carol");
  for (int j = 0; j < 3; ++j) {
    TxnHandle t = carol->Submit("put",
                                {Value::Int(1000000 + j), Value::Int(j)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }
  auto count0 = net->node(0)->Query("alice", "SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(count0.ok());
  for (size_t i = 1; i < net->num_nodes(); ++i) {
    auto ci = net->node(i)->Query("alice", "SELECT COUNT(*) FROM kv");
    ASSERT_TRUE(ci.ok());
    EXPECT_EQ(ci.value().Scalar().value().AsInt(),
              count0.value().Scalar().value().AsInt())
        << "node " << i;
  }
  net->Stop();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(PipelineDepths, RecoveryHarness,
                         ::testing::Values<size_t>(1, 4));

// Satellite: a clean append failure (think transient ENOSPC) must not drop
// the block — the node backs off with the metered delay, retries, and
// converges with its peers.
TEST(AppendBackoffTest, InjectedAppendFailureIsRetriedWithBackoff) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("brdb_backoff_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  FaultInjector injector;
  injector.FailAppend(2);  // second durable append on the victim fails once
  NetworkOptions opts = DurableOptions(dir, /*pipeline_depth=*/2);
  opts.node.state_checkpoint_interval = 0;  // isolate the backoff path
  opts.fault_injector = &injector;
  opts.fault_injector_node = "peer-org1";
  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(RegisterPut(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)").ok());
  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 5; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.WaitAllNodes().ok());
  }
  MetricsSnapshot m = net->node(0)->metrics()->Snapshot();
  EXPECT_EQ(m.block_append_failures, 1u);
  EXPECT_EQ(m.block_append_retry_backoff_ms, 0u);  // reset after success
  EXPECT_EQ(injector.appends_failed(), 1u);
  // The failed block was retried, not skipped: full chain on every node.
  BlockNum h = net->node(1)->Height();
  ASSERT_TRUE(net->WaitForHeight(h, 30000000).ok());
  EXPECT_EQ(net->node(0)->block_store()->Height(), h);
  EXPECT_TRUE(net->node(0)->block_store()->VerifyChain().ok());
  net->Stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace brdb
