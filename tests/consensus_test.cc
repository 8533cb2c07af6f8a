// Unit tests for src/consensus: block cutting by size and timeout, hash
// chaining, identical deterministic blocks from the Kafka-style service.
#include <gtest/gtest.h>

#include <condition_variable>

#include "consensus/kafka.h"
#include "consensus/solo.h"

namespace brdb {
namespace {

/// Collects blocks delivered to a fake peer endpoint.
class BlockSink {
 public:
  BlockSink(SimNetwork* net, const std::string& name) : name_(name) {
    net->RegisterEndpoint(name, [this](const NetMessage& m) {
      if (m.type != kMsgBlock) return;
      auto block = Block::Decode(m.payload);
      if (!block.ok()) return;
      std::lock_guard<std::mutex> lock(mu_);
      arrived_at_[block.value().number()] = RealClock::Shared()->NowMicros();
      blocks_[block.value().number()] = std::move(block).value();
      cv_.notify_all();
    });
  }

  bool WaitForHeight(BlockNum h, Micros timeout_us = 5000000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] {
      return blocks_.count(h) > 0;
    });
  }

  Block Get(BlockNum n) {
    std::lock_guard<std::mutex> lock(mu_);
    return blocks_[n];
  }
  Micros ArrivedAt(BlockNum n) {
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_at_[n];
  }
  size_t TotalTxns() {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [num, b] : blocks_) n += b.transactions().size();
    return n;
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<BlockNum, Block> blocks_;
  std::map<BlockNum, Micros> arrived_at_;
};

Transaction MakeTx(int i) {
  static Identity client =
      Identity::Create("org1", "alice", PrincipalRole::kClient);
  return Transaction::MakeOrderThenExecute(client, "tx-" + std::to_string(i),
                                           "c", {Value::Int(i)});
}

OrdererConfig FastConfig(size_t block_size = 5, Micros timeout = 30000) {
  OrdererConfig cfg;
  cfg.block_size = block_size;
  cfg.block_timeout_us = timeout;
  return cfg;
}

std::vector<Identity> Orderers(size_t n) {
  std::vector<Identity> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(Identity::Create("org" + std::to_string(i % 3 + 1),
                                   "orderer" + std::to_string(i + 1),
                                   PrincipalRole::kOrderer));
  }
  return ids;
}

TEST(SoloOrdererTest, CutsBySize) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:sink");
  SoloOrderer solo(FastConfig(3, 10000000), &net, Orderers(1)[0]);
  solo.ConnectPeer(sink.name());
  solo.Start();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(solo.SubmitTransaction(MakeTx(i)).ok());
  }
  ASSERT_TRUE(sink.WaitForHeight(2));
  EXPECT_EQ(sink.Get(1).transactions().size(), 3u);
  EXPECT_EQ(sink.Get(2).transactions().size(), 3u);
  // Hash chain.
  EXPECT_EQ(sink.Get(2).prev_hash(), sink.Get(1).hash());
  solo.Stop();
}

TEST(SoloOrdererTest, CutsByTimeout) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:sink");
  SoloOrderer solo(FastConfig(100, 20000), &net, Orderers(1)[0]);
  solo.ConnectPeer(sink.name());
  solo.Start();
  ASSERT_TRUE(solo.SubmitTransaction(MakeTx(0)).ok());
  ASSERT_TRUE(sink.WaitForHeight(1));  // timeout fires well under 5 s
  EXPECT_EQ(sink.Get(1).transactions().size(), 1u);
  solo.Stop();
}

TEST(SoloOrdererTest, RejectsWhenStopped) {
  SimNetwork net(NetworkProfile::Instant());
  SoloOrderer solo(FastConfig(), &net, Orderers(1)[0]);
  EXPECT_EQ(solo.SubmitTransaction(MakeTx(0)).code(),
            StatusCode::kUnavailable);
}

TEST(SoloOrdererTest, IncludesCheckpointVotes) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:sink");
  SoloOrderer solo(FastConfig(2, 20000), &net, Orderers(1)[0]);
  solo.ConnectPeer(sink.name());
  solo.Start();
  CheckpointVote vote;
  vote.peer = "peer1";
  vote.block = 7;
  vote.write_set_hash = "abc";
  solo.SubmitCheckpointVote(vote);
  ASSERT_TRUE(solo.SubmitTransaction(MakeTx(0)).ok());
  ASSERT_TRUE(sink.WaitForHeight(1));
  ASSERT_EQ(sink.Get(1).checkpoint_votes().size(), 1u);
  EXPECT_EQ(sink.Get(1).checkpoint_votes()[0].peer, "peer1");
  solo.Stop();
}

TEST(KafkaOrdererTest, OrdersAcrossMultipleFrontEnds) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink1(&net, "peer:s1");
  BlockSink sink2(&net, "peer:s2");
  KafkaOrderingService kafka(FastConfig(4, 30000), &net, Orderers(3));
  kafka.ConnectPeer(sink1.name());
  kafka.ConnectPeer(sink2.name());
  kafka.Start();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kafka.SubmitTransaction(MakeTx(i)).ok());
  }
  ASSERT_TRUE(sink1.WaitForHeight(2));
  ASSERT_TRUE(sink2.WaitForHeight(2));
  // Both peers observe byte-identical blocks.
  EXPECT_EQ(sink1.Get(1).hash(), sink2.Get(1).hash());
  EXPECT_EQ(sink1.Get(2).hash(), sink2.Get(2).hash());
  // All orderers signed (paper §4.4).
  EXPECT_EQ(sink1.Get(1).orderer_signatures().size(), 3u);
  kafka.Stop();
}

TEST(KafkaOrdererTest, TimeToCutFirstMarkerWins) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:s1");
  // Large block size: only timeouts cut. Several orderer timers race to
  // publish the marker; blocks must still advance one epoch at a time.
  KafkaOrderingService kafka(FastConfig(1000, 15000), &net, Orderers(4));
  kafka.ConnectPeer(sink.name());
  kafka.Start();
  ASSERT_TRUE(kafka.SubmitTransaction(MakeTx(0)).ok());
  ASSERT_TRUE(sink.WaitForHeight(1));
  EXPECT_EQ(sink.Get(1).transactions().size(), 1u);
  ASSERT_TRUE(kafka.SubmitTransaction(MakeTx(1)).ok());
  ASSERT_TRUE(sink.WaitForHeight(2));
  EXPECT_EQ(sink.Get(2).transactions().size(), 1u);
  kafka.Stop();
}

TEST(KafkaOrdererTest, LoneTransactionsAreAlwaysCutByTheTimer) {
  // A timer that pairs one batch's start time with the next epoch publishes
  // a marker for a batch that is still empty; the consumer ignores it, and
  // if that also blocked every later marker for the epoch, the next lone
  // transaction would wait forever for a size cut. Many timer threads, a
  // 20 us poll and a 2 ms cut timer make that interleaving likely within a
  // few hundred cuts: every lone transaction must still be cut by the
  // timer, well within 100 timeouts.
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:s1");
  OrdererConfig cfg = FastConfig(1000, 2000);
  KafkaOrderingService kafka(cfg, &net, Orderers(32));
  kafka.ConnectPeer(sink.name());
  kafka.Start();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(kafka.SubmitTransaction(MakeTx(i)).ok());
    ASSERT_TRUE(sink.WaitForHeight(static_cast<BlockNum>(i) + 1, 200000))
        << "lone transaction " << i << " was never cut";
    EXPECT_EQ(sink.Get(static_cast<BlockNum>(i) + 1).transactions().size(),
              1u);
  }
  kafka.Stop();
}

// The cutters wait on a deadline, not on a poll period: a lone
// transaction is cut no earlier than the timeout and promptly after it.
// The block's arrival at the sink bounds its cut from above.
template <typename Orderer>
void ExpectLoneTransactionsCutOnTime(Orderer* orderer, BlockSink* sink,
                                     Micros timeout_us) {
  orderer->ConnectPeer(sink->name());
  orderer->Start();
  for (int i = 0; i < 5; ++i) {
    const BlockNum h = static_cast<BlockNum>(i) + 1;
    const Micros submitted = RealClock::Shared()->NowMicros();
    ASSERT_TRUE(orderer->SubmitTransaction(MakeTx(i)).ok());
    ASSERT_TRUE(sink->WaitForHeight(h));
    const Micros waited = sink->ArrivedAt(h) - submitted;
    EXPECT_GE(waited, timeout_us) << "block " << h << " cut early";
    EXPECT_LE(waited, timeout_us + 50000) << "block " << h << " cut late";
    EXPECT_EQ(sink->Get(h).transactions().size(), 1u);
  }
  orderer->Stop();
}

TEST(CutTimerTest, SoloCutsALoneTransactionAtItsTimeout) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:sink");
  SoloOrderer solo(FastConfig(100, 40000), &net, Orderers(1)[0]);
  ExpectLoneTransactionsCutOnTime(&solo, &sink, 40000);
}

TEST(CutTimerTest, KafkaCutsALoneTransactionAtItsTimeout) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:sink");
  KafkaOrderingService kafka(FastConfig(100, 40000), &net, Orderers(3));
  ExpectLoneTransactionsCutOnTime(&kafka, &sink, 40000);
}

TEST(KafkaOrdererTest, PausedConsumerCutsNothingUntilResumed) {
  SimNetwork net(NetworkProfile::Instant());
  BlockSink sink(&net, "peer:s1");
  KafkaOrderingService kafka(FastConfig(2, 10000), &net, Orderers(3));
  kafka.ConnectPeer(sink.name());
  kafka.Start();
  kafka.Pause(true);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(kafka.SubmitTransaction(MakeTx(i)).ok());
  }
  // Well past both a size cut and the cut timer: nothing is cut.
  EXPECT_FALSE(sink.WaitForHeight(1, 100000));
  kafka.Pause(false);
  ASSERT_TRUE(sink.WaitForHeight(3));
  EXPECT_EQ(sink.TotalTxns(), 5u);
  kafka.Stop();
}

}  // namespace
}  // namespace brdb
