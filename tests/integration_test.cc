// End-to-end integration tests: full networks of mutually distrustful
// nodes running both transaction flows over each ordering service —
// cross-node consistency, checkpoint agreement, deployment governance,
// provenance, recovery and byzantine behaviour.
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
  opts.orderer_config.block_timeout_us = 20000;  // 20 ms for fast tests
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

/// Sum of kv.v on one node, for consistency comparison.
int64_t KvChecksum(DatabaseNode* node, const std::string& user) {
  auto r = node->Query(user, "SELECT COALESCE(SUM(v), 0) FROM kv");
  if (!r.ok()) return -1;
  auto s = r.value().Scalar();
  return s.ok() ? s.value().AsInt() : -1;
}

class FlowTest : public ::testing::TestWithParam<TransactionFlow> {};

TEST_P(FlowTest, EndToEndCommitAndConsistency) {
  auto net = BlockchainNetwork::Create(FastOptions(GetParam()));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract(
                     "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
                  .ok());

  Session* alice = net->CreateSession("org1", "alice");
  std::vector<TxnHandle> txns;
  for (int i = 0; i < 20; ++i) {
    TxnHandle t =
        alice->Submit("put_kv", {Value::Int(i), Value::Int(i * 10)});
    ASSERT_TRUE(t.submit_status().ok()) << t.submit_status().ToString();
    txns.push_back(t);
  }
  for (auto& t : txns) {
    Status st = t.Wait();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  net->WaitIdle();

  // All nodes converge to the same state.
  int64_t expected = 0;
  for (int i = 0; i < 20; ++i) expected += i * 10;
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    EXPECT_EQ(KvChecksum(net->node(i), "alice"), expected)
        << net->node(i)->name();
  }

  // Checkpoint hashes agree between nodes for every processed block.
  BlockNum h = net->node(0)->Height();
  std::string h0 = net->node(0)->checkpoints()->LocalHash(h);
  for (size_t i = 1; i < net->num_nodes(); ++i) {
    EXPECT_EQ(net->node(i)->checkpoints()->LocalHash(h), h0);
  }
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    EXPECT_TRUE(net->node(i)->checkpoints()->Divergences().empty());
  }
  net->Stop();
}

TEST_P(FlowTest, AbortedTransactionIsConsistentAcrossNodes) {
  auto net = BlockchainNetwork::Create(FastOptions(GetParam()));
  ASSERT_TRUE(RegisterKvContract(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract(
                     "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
                  .ok());
  Session* alice = net->CreateSession("org1", "alice");

  TxnHandle ok_tx = alice->Submit("put_kv", {Value::Int(1), Value::Int(1)});
  ASSERT_TRUE(ok_tx.submit_status().ok());
  ASSERT_TRUE(ok_tx.Wait().ok());

  // Same primary key again: must abort on every node.
  TxnHandle dup = alice->Submit("put_kv", {Value::Int(1), Value::Int(2)});
  ASSERT_TRUE(dup.submit_status().ok());
  Status st = dup.Wait();
  EXPECT_FALSE(st.ok());
  net->WaitIdle();
  auto statuses = dup.NodeStatuses();
  EXPECT_EQ(statuses.size(), net->num_nodes());
  for (const auto& [node, s] : statuses) {
    EXPECT_FALSE(s.ok()) << node;
  }
  net->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    BothFlows, FlowTest,
    ::testing::Values(TransactionFlow::kOrderThenExecute,
                      TransactionFlow::kExecuteOrderParallel),
    [](const ::testing::TestParamInfo<TransactionFlow>& info) {
      return info.param == TransactionFlow::kOrderThenExecute
                 ? "OrderThenExecute"
                 : "ExecuteOrderParallel";
    });

}  // namespace
}  // namespace brdb
