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
//
// There are no timer threads. The consumer owns the batch clock: it waits
// on the topic until a record arrives, Stop/Pause wakes it, or the batch
// has waited `block_timeout_us`. Then it publishes one time-to-cut marker
// for its epoch and cuts where that marker is consumed, so the log stays
// the only source of cut positions. An idle orderer sleeps until woken.
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

  enum class ConsumeResult { kRecord, kDeadline, kClosed };
  /// Consume's `deadline` for a wait that only a record or Close ends.
  static constexpr Micros kNoDeadline = -1;

  void Publish(Record r);

  /// Read the record at *offset (advancing it). Waits until there is one
  /// to read, `deadline` (RealClock micros) passes, or the topic is closed
  /// and read to its end. A paused consumer reads nothing until it is
  /// resumed or the topic is closed.
  ConsumeResult Consume(size_t* offset, Record* out, Micros deadline);

  /// Crash-orderer chaos: hold the consumer; publishes keep landing.
  void PauseConsumer(bool paused);

  /// Final: Consume returns what is left in the log, then kClosed.
  void Close();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Record> log_;
  bool paused_ = false;
  bool closed_ = false;
};

class KafkaOrderingService : public OrderingCore {
 public:
  KafkaOrderingService(OrdererConfig config, SimNetwork* net,
                       std::vector<Identity> orderers);
  ~KafkaOrderingService() override;

  Status SubmitTransaction(const Transaction& tx) override;
  void SubmitCheckpointVote(const CheckpointVote& vote) override;
  void Start() override;
  /// Drains the topic into blocks and ends the consumer; a stopped service
  /// does not start again.
  void Stop() override;

  /// Crash-orderer chaos: the consumer stops cutting blocks while paused;
  /// the kafka log keeps accepting records, so resume drains the backlog.
  void Pause(bool paused) override { cluster_.PauseConsumer(paused); }

 private:
  void ConsumerLoop();

  std::vector<Identity> orderers_;
  SimKafkaCluster cluster_;
  std::atomic<bool> running_{false};
  std::thread consumer_thread_;
};

}  // namespace brdb

#endif  // BRDB_CONSENSUS_KAFKA_H_
