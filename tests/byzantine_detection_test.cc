// Byzantine commit-withholding detection (paper §3.5(3)), promoted from
// examples/byzantine_detection: a four-organization network where one peer
// skips commits must flag that peer through checkpoint-vote comparison
// within one checkpoint interval of the divergent block, while the honest
// majority keeps full liveness and mutual agreement.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/blockchain_network.h"

namespace brdb {
namespace {

TEST(ByzantineDetectionTest, WithheldCommitIsFlaggedWithinOneInterval) {
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 5;
  options.orderer_config.block_timeout_us = 20000;
  options.profile = NetworkProfile::Instant();
  // org-evil's peer skips commits; every node votes every block.
  options.byzantine_policies[3].skip_commit = true;
  auto net = BlockchainNetwork::Create(options);

  ASSERT_TRUE(net->RegisterNativeContract(
                     "put",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute(
                           "INSERT INTO records VALUES ($1, $2)", ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
          .ok());

  Session* alice = net->CreateSession("org1", "alice");
  std::vector<BlockNum> decided_blocks;
  for (int i = 0; i < 8; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    ASSERT_TRUE(t.submit_status().ok());
    // Majority commit succeeds although org-evil withholds its commit.
    ASSERT_TRUE(t.Wait().ok());
    decided_blocks.push_back(t.CommitBlock());
  }
  net->WaitIdle();

  // Liveness: the honest nodes committed every transaction.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(net->node(i)->metrics()->txns_committed(), 8u) << "node " << i;
  }

  // Every honest node flagged the byzantine peer by name via ObserveVote,
  // and no honest peer was ever flagged.
  const BlockNum first_divergent = decided_blocks.front();
  for (size_t i = 0; i < 3; ++i) {
    auto divs = net->node(i)->checkpoints()->Divergences();
    ASSERT_FALSE(divs.empty()) << "node " << i << " saw no divergence";
    BlockNum earliest_flagged = 0;
    for (const auto& d : divs) {
      EXPECT_EQ(d.peer, "peer-org-evil") << "node " << i;
      EXPECT_NE(d.their_hash, d.our_hash);
      if (earliest_flagged == 0 || d.block < earliest_flagged) {
        earliest_flagged = d.block;
      }
    }
    // Detection latency: votes for block B ride in a later block, but the
    // divergence record itself is attributed to a block no later than one
    // checkpoint interval (= 1 block here) past the first tampered commit.
    EXPECT_LE(earliest_flagged, first_divergent + 1) << "node " << i;
  }

  // The honest majority agrees with itself at the final height (§3.3.4),
  // and each honest node saw both other honest votes match.
  BlockNum h = net->node(0)->Height();
  std::string h0 = net->node(0)->checkpoints()->LocalHash(h);
  ASSERT_FALSE(h0.empty());
  EXPECT_EQ(h0, net->node(1)->checkpoints()->LocalHash(h));
  EXPECT_EQ(h0, net->node(2)->checkpoints()->LocalHash(h));
  EXPECT_GE(net->node(0)->checkpoints()->MatchCount(first_divergent), 2u);

  // The byzantine node's own state visibly lacks the withheld writes.
  auto honest = net->node(0)->Query("alice", "SELECT COUNT(*) FROM records");
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(honest.value().Scalar().value().AsInt(), 8);
  auto evil = net->node(3)->Query("alice", "SELECT COUNT(*) FROM records");
  if (evil.ok()) {
    EXPECT_LT(evil.value().Scalar().value().AsInt(), 8);
  }
  net->Stop();
}

// A liar that *commits honestly* but votes a tampered write-set hash
// (ByzantinePolicy::divergent_writeset) must be flagged just like a
// commit-withholder — under deep pipelining, where vote ordering is most
// adversarial.
TEST(ByzantineDetectionTest, DivergentWritesetVotesFlaggedUnderPipelining) {
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 5;
  options.orderer_config.block_timeout_us = 20000;
  options.profile = NetworkProfile::Instant();
  options.node.pipeline_depth = 4;
  ByzantinePolicy liar;
  liar.divergent_writeset = true;
  options.byzantine_policies[3] = liar;
  auto net = BlockchainNetwork::Create(options);

  ASSERT_TRUE(net->RegisterNativeContract(
                     "put",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute(
                           "INSERT INTO records VALUES ($1, $2)", ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
          .ok());

  Session* alice = net->CreateSession("org1", "alice");
  std::vector<BlockNum> decided_blocks;
  for (int i = 0; i < 20; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait().ok());
    decided_blocks.push_back(t.CommitBlock());
  }
  net->WaitIdle();

  const BlockNum first_divergent = decided_blocks.front();
  for (size_t i = 0; i < 3; ++i) {
    auto divs = net->node(i)->checkpoints()->Divergences();
    ASSERT_FALSE(divs.empty()) << "node " << i << " saw no divergence";
    BlockNum earliest_flagged = 0;
    for (const auto& d : divs) {
      EXPECT_EQ(d.peer, "peer-org-evil") << "node " << i;
      EXPECT_NE(d.their_hash, d.our_hash);
      EXPECT_GT(d.detected_at_us, 0) << "divergence missing wall stamp";
      if (earliest_flagged == 0 || d.block < earliest_flagged) {
        earliest_flagged = d.block;
      }
    }
    EXPECT_LE(earliest_flagged, first_divergent + 1) << "node " << i;
  }

  // Unlike skip_commit, the liar's *state* is honest: every node,
  // including the liar, holds identical data and write-set hashes.
  BlockNum h = net->node(0)->Height();
  std::string h0 = net->node(0)->checkpoints()->LocalHash(h);
  ASSERT_FALSE(h0.empty());
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h0, net->node(i)->checkpoints()->LocalHash(h)) << "node " << i;
  }
  auto evil = net->node(3)->Query("alice", "SELECT COUNT(*) FROM records");
  ASSERT_TRUE(evil.ok());
  EXPECT_EQ(evil.value().Scalar().value().AsInt(), 20);
  net->Stop();
}

// Read tampering (ByzantinePolicy::tamper_reads) never touches consensus
// state — it corrupts only the non-consensus Query() path, so checkpoint
// votes stay clean and the detection mechanism is client-side cross-peer
// result comparison.
TEST(ByzantineDetectionTest, TamperedReadsDetectedByCrossPeerComparison) {
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 5;
  options.orderer_config.block_timeout_us = 20000;
  options.profile = NetworkProfile::Instant();
  options.node.pipeline_depth = 4;
  ByzantinePolicy liar;
  liar.tamper_reads = true;
  options.byzantine_policies[3] = liar;
  auto net = BlockchainNetwork::Create(options);

  ASSERT_TRUE(net->RegisterNativeContract(
                     "put",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute(
                           "INSERT INTO records VALUES ($1, $2)", ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
          .ok());

  Session* alice = net->CreateSession("org1", "alice");
  for (int i = 0; i < 10; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait().ok());
  }
  net->WaitIdle();

  // Consensus state is untampered: no divergence anywhere, hashes agree
  // on all four nodes.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(net->node(i)->checkpoints()->Divergences().empty())
        << "node " << i;
  }
  BlockNum h = net->node(0)->Height();
  std::string h0 = net->node(0)->checkpoints()->LocalHash(h);
  ASSERT_FALSE(h0.empty());
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h0, net->node(i)->checkpoints()->LocalHash(h)) << "node " << i;
  }

  // Cross-peer comparison of the same read exposes the tampering: the
  // honest peers agree with each other, the evil peer's answer differs
  // (ints nudged by +1 per the tamper policy).
  const std::string q = "SELECT v FROM records WHERE id = 3";
  auto honest_a = net->node(0)->Query("alice", q);
  auto honest_b = net->node(1)->Query("alice", q);
  auto tampered = net->node(3)->Query("alice", q);
  ASSERT_TRUE(honest_a.ok());
  ASSERT_TRUE(honest_b.ok());
  ASSERT_TRUE(tampered.ok());
  EXPECT_EQ(honest_a.value().Scalar().value().AsInt(), 21);
  EXPECT_EQ(honest_b.value().Scalar().value().AsInt(), 21);
  EXPECT_EQ(tampered.value().Scalar().value().AsInt(), 22);
  net->Stop();
}

// A peer that withholds checkpoint votes entirely produces no hash
// mismatch; the vote-absence audit (CheckpointManager::MissingVoters)
// is what names it.
TEST(ByzantineDetectionTest, WithheldVotesNamedByAbsenceAudit) {
  NetworkOptions options;
  options.orgs = {"org1", "org2", "org3", "org-evil"};
  options.flow = TransactionFlow::kOrderThenExecute;
  options.orderer_config.block_size = 5;
  options.orderer_config.block_timeout_us = 20000;
  options.profile = NetworkProfile::Instant();
  ByzantinePolicy silent;
  silent.withhold_votes = true;
  options.byzantine_policies[3] = silent;
  auto net = BlockchainNetwork::Create(options);

  ASSERT_TRUE(net->RegisterNativeContract(
                     "put",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute(
                           "INSERT INTO records VALUES ($1, $2)", ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE records (id INT PRIMARY KEY, v INT)")
          .ok());

  Session* alice = net->CreateSession("org1", "alice");
  BlockNum decided = 0;
  for (int i = 0; i < 8; ++i) {
    TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 7)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait().ok());
    // Audit the *first* decided block: votes for block B ride in later
    // blocks (§3.3.4), so the tail block's honest votes never arrive once
    // traffic stops — absence there would be indistinguishable from lag.
    if (decided == 0) decided = t.CommitBlock();
  }
  net->WaitIdle();

  // No hash mismatch anywhere — silence is not divergence.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(net->node(i)->checkpoints()->Divergences().empty())
        << "node " << i;
  }

  // The absence audit on any honest node names exactly the silent peer.
  const std::vector<std::string> expected = {"peer-org1", "peer-org2",
                                             "peer-org3", "peer-org-evil"};
  auto missing = net->node(0)->checkpoints()->MissingVoters(decided, expected);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "peer-org-evil");
  EXPECT_TRUE(
      net->node(1)->checkpoints()->MissingVoters(decided, expected).size() ==
      1);
  net->Stop();
}

}  // namespace
}  // namespace brdb
