// SignatureVerifier cache eviction + replay (open ROADMAP item from PR 1):
// the verified cache is FIFO-bounded, so a signed payload can be evicted
// and later resubmitted. Eviction only costs a crypto re-verification —
// replay protection itself rests on pgledger duplicate detection, which
// must reject the resubmission whether or not the cache still vouches.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/blockchain_network.h"
#include "crypto/sig_verifier.h"

namespace brdb {
namespace {

// ---------- unit level: FIFO eviction semantics ----------

TEST(SigVerifierCacheTest, FifoEvictionForgetsOldestEntries) {
  ThreadPool pool(2);
  SignatureVerifier verifier(&pool, /*cache_capacity=*/2);
  CertificateRegistry registry;
  Identity alice = Identity::Create("org1", "alice", PrincipalRole::kClient);
  registry.Register(alice.name, alice.organization, alice.role,
                    alice.keys.public_key);

  auto make_tx = [&](int i) {
    return Transaction::MakeOrderThenExecute(
        alice, "alice-" + std::to_string(i), "c", {Value::Int(i)});
  };
  Transaction tx1 = make_tx(1), tx2 = make_tx(2), tx3 = make_tx(3);

  auto statuses = verifier.VerifyTransactions(registry, {&tx1});
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(verifier.WasVerified(tx1));

  // Two more successful verifications evict tx1 from the capacity-2 FIFO.
  ASSERT_TRUE(verifier.VerifyTransactions(registry, {&tx2, &tx3})[0].ok());
  EXPECT_TRUE(verifier.WasVerified(tx3));
  EXPECT_FALSE(verifier.WasVerified(tx1));

  // Eviction is not rejection: re-verifying runs the crypto again and
  // succeeds (the signature never stopped being valid).
  EXPECT_TRUE(verifier.VerifyTransactions(registry, {&tx1})[0].ok());
  EXPECT_TRUE(verifier.WasVerified(tx1));

  // A forged payload never rides a cached verification.
  Transaction forged = tx2.WithForgedArgs({Value::Int(999)});
  EXPECT_FALSE(verifier.WasVerified(forged));
  EXPECT_FALSE(verifier.VerifyTransactions(registry, {&forged})[0].ok());
}

// ---------- end to end: replay after eviction ----------

TEST(SigReplayTest, ResubmissionAfterCacheEvictionIsRejectedByLedger) {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kOrderThenExecute;
  opts.orderer_config.block_size = 10;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.sig_cache_capacity = 2;  // evict aggressively

  auto net = BlockchainNetwork::Create(opts);
  ASSERT_TRUE(net->RegisterNativeContract(
                     "put_kv",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)",
                                             ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());
  Session* session = net->CreateSession("org1", "alice");

  // Commit the target transaction once.
  auto made =
      session->MakeTransaction("put_kv", {Value::Int(1), Value::Int(5)});
  ASSERT_TRUE(made.ok());
  Transaction tx = std::move(made).value();
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  ASSERT_TRUE(session->Track(tx.id()).WaitAllNodes(20000000).ok());

  // Flood every node's capacity-2 verifier cache so tx's entry is long
  // evicted before the replay arrives.
  std::vector<TxnHandle> flood;
  for (int i = 10; i < 20; ++i) {
    flood.push_back(
        session->Submit("put_kv", {Value::Int(i), Value::Int(i)}));
  }
  for (TxnHandle& h : flood) ASSERT_TRUE(h.Wait(20000000).ok());
  net->WaitIdle();

  // Replay the identical signed transaction. Authentication re-runs the
  // crypto (cache miss) and succeeds — the signature is genuine — but the
  // ledger's duplicate detection must refuse to commit it again.
  ASSERT_TRUE(net->ordering()->SubmitTransaction(tx).ok());
  net->WaitIdle();

  for (size_t i = 0; i < net->num_nodes(); ++i) {
    // The row was written exactly once.
    auto count = net->node(i)->Query(
        "alice", "SELECT COUNT(*) FROM kv WHERE k = 1");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value().Scalar().value().AsInt(), 1)
        << net->node(i)->name();
    // Both instances are on the ledger; only the first committed.
    auto committed = net->node(i)->Query(
        "alice",
        "SELECT COUNT(*) FROM pgledger WHERE txid = $1 AND "
        "status = 'committed'",
        {Value::Text(tx.id())});
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value().Scalar().value().AsInt(), 1)
        << net->node(i)->name();
    auto total = net->node(i)->Query(
        "alice", "SELECT COUNT(*) FROM pgledger WHERE txid = $1",
        {Value::Text(tx.id())});
    ASSERT_TRUE(total.ok());
    EXPECT_EQ(total.value().Scalar().value().AsInt(), 2)
        << net->node(i)->name();
  }
  net->Stop();
}

}  // namespace
}  // namespace brdb
