// KafkaOrderingService (paper §4.4): N orderer front-ends publish received
// transactions, checkpoint votes and time-to-cut markers to a shared FIFO
// topic (the in-process SimKafkaCluster, standing in for Kafka+ZooKeeper).
// Consumption order is identical for every orderer, so all of them cut
// byte-identical blocks: a block is cut when `block_size` transactions have
// been consumed, or at the first time-to-cut marker for the current epoch
// (later duplicates are ignored, as in the paper). Every orderer signs the
// block; each connected peer receives it from the orderer it is assigned
// to. Ordering cost does not grow with the number of orderer nodes: there
// is one consumer, whatever N is.
#ifndef BRDB_CONSENSUS_KAFKA_H_
#define BRDB_CONSENSUS_KAFKA_H_

#include "consensus/ordering_service.h"

namespace brdb {

/// The FIFO topic. Thread-safe, in-process stand-in for a Kafka partition.
class SimKafkaCluster {
 public:
  struct Record {
    enum class Kind : uint8_t { kTx = 0, kVote = 1, kTimeToCut = 2 };
    Kind kind = Kind::kTx;
    uint64_t epoch = 0;     // kTimeToCut: which block this marker targets
    std::string payload;    // encoded tx / vote
  };

  void Publish(Record r);

  /// Read the record at *offset (advancing it); waits up to `wait_us`.
  bool Consume(size_t* offset, Record* out, Micros wait_us);

  size_t LogSize() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Record> log_;
};

class KafkaOrderingService : public OrderingCore {
 public:
  KafkaOrderingService(OrdererConfig config, SimNetwork* net,
                       std::vector<Identity> orderers);
  ~KafkaOrderingService() override;

  Status SubmitTransaction(const Transaction& tx) override;
  void SubmitCheckpointVote(const CheckpointVote& vote) override;
  void Start() override;
  void Stop() override;

  /// Crash-orderer chaos: the consumer stops cutting blocks while paused;
  /// the kafka log keeps accepting records, so resume drains the backlog.
  void Pause(bool paused) override { paused_.store(paused); }

 private:
  void ConsumerLoop();
  void TimerLoop(size_t orderer_index);

  std::vector<Identity> orderers_;
  SimKafkaCluster cluster_;
  std::atomic<bool> running_{false};
  std::atomic<bool> paused_{false};

  // Shared epoch bookkeeping for the timer threads: transactions consumed
  // into the current batch and when the batch started.
  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<int64_t> batch_started_at_{0};  // 0 = batch empty
  std::atomic<uint64_t> ttc_published_for_{0};

  std::thread consumer_thread_;
  std::vector<std::thread> timer_threads_;
};

}  // namespace brdb

#endif  // BRDB_CONSENSUS_KAFKA_H_
