// Ordering service interface (paper §3.1, §4.4): consensus is pluggable and
// agnostic to the database. Implementations provided:
//   * SoloOrderer            — single sequencer (deterministic block
//                              packing; the socket cluster's orderer)
//   * KafkaOrderingService   — N orderer front-ends over a shared FIFO
//                              topic with time-to-cut messages (CFT, §4.4)
//   * RemoteOrderer          — proxy for an orderer in another process
//                              (network/cluster.h)
//
// Blocks are cut by size or timeout, chained by hash, signed by the
// assembling orderer(s) and delivered to peer endpoints over the simulated
// network. Peers' checkpoint votes (§3.3.4) ride in the next block.
#ifndef BRDB_CONSENSUS_ORDERING_SERVICE_H_
#define BRDB_CONSENSUS_ORDERING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "crypto/identity.h"
#include "ledger/block_store.h"
#include "network/sim_network.h"
#include "wire/block.h"
#include "wire/transaction.h"

namespace brdb {

// Network message types used by the ordering layer.
inline constexpr const char* kMsgTx = "tx";
inline constexpr const char* kMsgVote = "vote";
inline constexpr const char* kMsgBlock = "block";
inline constexpr const char* kMsgFetchBlock = "fetch_block";

struct OrdererConfig {
  size_t block_size = 100;             ///< max transactions per block
  Micros block_timeout_us = 1000000;   ///< cut timer (paper used 1 s)
  Micros tick_us = 500;                ///< cutter poll period
};

class OrderingService {
 public:
  virtual ~OrderingService() = default;

  /// Submit a transaction for ordering (load-balanced across orderer nodes
  /// by implementations with more than one).
  virtual Status SubmitTransaction(const Transaction& tx) = 0;

  /// Submit a peer's checkpoint vote; included in a subsequent block.
  virtual void SubmitCheckpointVote(const CheckpointVote& vote) = 0;

  /// Register a peer endpoint (on the simulated network) that should
  /// receive every block.
  virtual void ConnectPeer(const std::string& endpoint) = 0;

  virtual void Start() = 0;
  virtual void Stop() = 0;

  /// Chaos hook: pause/resume block formation ("crash-orderer"). While
  /// paused, submissions still enqueue — resuming drains the backlog, so
  /// recovery time is measurable. Default: unsupported no-op.
  virtual void Pause(bool /*paused*/) {}

  virtual BlockNum Height() const = 0;

  /// Retransmission path for recovering peers (§3.6).
  virtual Result<Block> GetBlock(BlockNum number) const = 0;

  /// Adopt an existing chain before Start() (whole-network restart over
  /// durable peer ledgers): without this, a fresh orderer would number its
  /// first block 1 and every peer would drop it as a duplicate. Copies the
  /// missing suffix of `source` into the orderer's own store so assembly
  /// and §3.6 retransmission continue the chain.
  virtual Status SeedChain(const BlockStore& source) = 0;
};

/// Accumulates pending transactions/votes and decides when to cut a block
/// (size reached or timeout since the first pending transaction).
class BlockCutter {
 public:
  BlockCutter(size_t block_size, Micros timeout_us)
      : block_size_(block_size), timeout_us_(timeout_us) {}

  void Add(Transaction tx) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) {
      first_pending_at_ = RealClock::Shared()->NowMicros();
    }
    pending_.push_back(std::move(tx));
  }

  void AddVote(CheckpointVote vote) {
    std::lock_guard<std::mutex> lock(mu_);
    votes_.push_back(std::move(vote));
  }

  bool ShouldCut() const {
    std::lock_guard<std::mutex> lock(mu_);
    // Checkpoint votes never trigger a cut on their own: they piggyback on
    // the next transaction block (paper §3.3.4, "state change hashes are
    // added in the next block"). A vote-only cut would itself produce new
    // votes and melt down into an empty-block storm.
    if (pending_.empty()) return false;
    if (pending_.size() >= block_size_) return true;
    Micros now = RealClock::Shared()->NowMicros();
    return now - first_pending_at_ >= timeout_us_;
  }

  bool Empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.empty() && votes_.empty();
  }

  /// Remove and return up to block_size transactions plus all votes.
  std::pair<std::vector<Transaction>, std::vector<CheckpointVote>> Cut() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Transaction> txns;
    size_t n = std::min(pending_.size(), block_size_);
    for (size_t i = 0; i < n; ++i) {
      txns.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    if (!pending_.empty()) {
      first_pending_at_ = RealClock::Shared()->NowMicros();
    }
    std::vector<CheckpointVote> votes = std::move(votes_);
    votes_.clear();
    return {std::move(txns), std::move(votes)};
  }

 private:
  size_t block_size_;
  Micros timeout_us_;
  mutable std::mutex mu_;
  std::deque<Transaction> pending_;
  std::vector<CheckpointVote> votes_;
  Micros first_pending_at_ = 0;
};

/// Shared plumbing for the concrete services: block assembly with hash
/// chaining, the in-orderer block store, and delivery to peer endpoints.
class OrderingCore : public OrderingService {
 public:
  OrderingCore(OrdererConfig config, SimNetwork* net)
      : config_(config), net_(net) {}

  void ConnectPeer(const std::string& endpoint) override {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peers_.push_back(endpoint);
  }

  BlockNum Height() const override { return store_.Height(); }

  Result<Block> GetBlock(BlockNum number) const override {
    return store_.Get(number);
  }

  Status SeedChain(const BlockStore& source) override {
    for (BlockNum n = store_.Height() + 1; n <= source.Height(); ++n) {
      auto block = source.Get(n);
      if (!block.ok()) return block.status();
      BRDB_RETURN_NOT_OK(store_.Append(block.value()));
    }
    return Status::OK();
  }

 protected:
  /// Assemble the next block in the chain and sign it with `signer`.
  Block AssembleNext(std::vector<Transaction> txns,
                     std::vector<CheckpointVote> votes,
                     const std::string& meta, const Identity& signer) {
    Block b(store_.Height() + 1, store_.LatestHash(), std::move(txns),
            meta, std::move(votes));
    b.AddOrdererSignature(signer);
    return b;
  }

  /// Persist and ship a block to every connected peer from `from`.
  Status StoreAndDeliver(const Block& block, const std::string& from) {
    BRDB_RETURN_NOT_OK(store_.Append(block));
    std::vector<std::string> peers;
    {
      std::lock_guard<std::mutex> lock(peers_mu_);
      peers = peers_;
    }
    std::string bytes = block.Encode();
    for (const auto& peer : peers) {
      NetMessage m;
      m.from = from;
      m.to = peer;
      m.type = kMsgBlock;
      m.payload = bytes;
      net_->Send(std::move(m));
    }
    return Status::OK();
  }

  OrdererConfig config_;
  SimNetwork* net_;
  BlockStore store_;

  std::mutex peers_mu_;
  std::vector<std::string> peers_;
};

}  // namespace brdb

#endif  // BRDB_CONSENSUS_ORDERING_SERVICE_H_
