#include "consensus/kafka.h"

#include "common/thread_name.h"
#include "wire/codec.h"

namespace brdb {

void SimKafkaCluster::Publish(Record r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(std::move(r));
  }
  cv_.notify_all();
}

SimKafkaCluster::ConsumeResult SimKafkaCluster::Consume(size_t* offset,
                                                        Record* out,
                                                        Micros deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (*offset < log_.size() && (!paused_ || closed_)) {
      *out = log_[*offset];
      ++*offset;
      return ConsumeResult::kRecord;
    }
    if (closed_) return ConsumeResult::kClosed;
    if (deadline == kNoDeadline) {
      cv_.wait(lock);
      continue;
    }
    const Micros now = RealClock::Shared()->NowMicros();
    if (now >= deadline) return ConsumeResult::kDeadline;
    cv_.wait_for(lock, std::chrono::microseconds(deadline - now));
  }
}

void SimKafkaCluster::PauseConsumer(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void SimKafkaCluster::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

KafkaOrderingService::KafkaOrderingService(OrdererConfig config,
                                           SimNetwork* net,
                                           std::vector<Identity> orderers)
    : OrderingCore(config, net), orderers_(std::move(orderers)) {
  for (size_t i = 0; i < orderers_.size(); ++i) {
    std::string endpoint = "orderer:" + orderers_[i].name;
    net_->RegisterEndpoint(endpoint, [this, endpoint](const NetMessage& m) {
      if (m.type == kMsgTx) {
        SimKafkaCluster::Record r;
        r.kind = SimKafkaCluster::Record::Kind::kTx;
        r.payload = m.payload;
        cluster_.Publish(std::move(r));
      } else if (m.type == kMsgVote) {
        SimKafkaCluster::Record r;
        r.kind = SimKafkaCluster::Record::Kind::kVote;
        r.payload = m.payload;
        cluster_.Publish(std::move(r));
      } else if (m.type == kMsgFetchBlock) {
        Decoder dec(m.payload);
        uint64_t number = 0;
        if (dec.GetU64(&number)) {
          auto block = GetBlock(number);
          if (block.ok()) {
            NetMessage reply;
            reply.from = endpoint;
            reply.to = m.from;
            reply.type = kMsgBlock;
            reply.payload = block.value().Encode();
            net_->Send(std::move(reply));
          }
        }
      }
    });
  }
}

KafkaOrderingService::~KafkaOrderingService() {
  Stop();
  for (const auto& id : orderers_) {
    net_->UnregisterEndpoint("orderer:" + id.name);
  }
}

Status KafkaOrderingService::SubmitTransaction(const Transaction& tx) {
  if (!running_.load()) return Status::Unavailable("orderer not running");
  // In-process fast path: the publish itself is what Kafka would
  // serialize, whichever orderer front-end received the transaction.
  SimKafkaCluster::Record r;
  r.kind = SimKafkaCluster::Record::Kind::kTx;
  r.payload = tx.Encode();
  cluster_.Publish(std::move(r));
  return Status::OK();
}

void KafkaOrderingService::SubmitCheckpointVote(const CheckpointVote& vote) {
  SimKafkaCluster::Record r;
  r.kind = SimKafkaCluster::Record::Kind::kVote;
  r.payload = EncodeCheckpointVote(vote);
  cluster_.Publish(std::move(r));
}

void KafkaOrderingService::Start() {
  if (running_.exchange(true)) return;
  consumer_thread_ = std::thread([this] {
    NameThisThread("kafka-consumer");
    ConsumerLoop();
  });
}

void KafkaOrderingService::Stop() {
  if (!running_.exchange(false)) return;
  cluster_.Close();
  if (consumer_thread_.joinable()) consumer_thread_.join();
}

void KafkaOrderingService::ConsumerLoop() {
  using Kind = SimKafkaCluster::Record::Kind;
  using ConsumeResult = SimKafkaCluster::ConsumeResult;
  size_t offset = 0;
  std::vector<Transaction> batch;
  std::vector<CheckpointVote> votes;
  // The batch clock lives on this thread alone. `epoch` counts cuts;
  // `deadline` is when the current batch's time-to-cut marker is due
  // (kNoDeadline while the batch is empty or its marker is published).
  uint64_t epoch = 0;
  Micros deadline = SimKafkaCluster::kNoDeadline;

  auto cut = [&] {
    if (batch.empty() && votes.empty()) return;
    Block b = AssembleNext(std::move(batch), std::move(votes), "kafka",
                           orderers_[0]);
    // Every orderer consumed the same stream and built this same block;
    // they all sign it (paper §4.4).
    for (size_t i = 1; i < orderers_.size(); ++i) {
      b.AddOrdererSignature(orderers_[i]);
    }
    (void)StoreAndDeliver(b, "orderer:" + orderers_[0].name);
    batch.clear();
    votes.clear();
    deadline = SimKafkaCluster::kNoDeadline;
    ++epoch;
  };

  // A paused consumer (crashed orderer) reads nothing, so it cuts nothing;
  // publishes keep landing in the log, and resuming drains the backlog —
  // the harness measures recovery as time-to-drain after resume. Close()
  // ends the loop once the log is read to its end.
  for (;;) {
    SimKafkaCluster::Record rec;
    const ConsumeResult got = cluster_.Consume(&offset, &rec, deadline);
    if (got == ConsumeResult::kClosed) break;
    if (got == ConsumeResult::kDeadline) {
      // Time to cut: the cut happens where this marker lands in the log,
      // so every orderer cuts after the same record.
      SimKafkaCluster::Record marker;
      marker.kind = Kind::kTimeToCut;
      marker.epoch = epoch;
      cluster_.Publish(std::move(marker));
      deadline = SimKafkaCluster::kNoDeadline;
      continue;
    }
    switch (rec.kind) {
      case Kind::kTx: {
        auto tx = Transaction::Decode(rec.payload);
        if (!tx.ok()) break;
        if (batch.empty()) {
          deadline = RealClock::Shared()->NowMicros() +
                     config_.block_timeout_us;
        }
        batch.push_back(std::move(tx).value());
        if (batch.size() >= config_.block_size) cut();
        break;
      }
      case Kind::kVote: {
        auto v = DecodeCheckpointVote(rec.payload);
        if (v.ok()) votes.push_back(std::move(v).value());
        break;
      }
      case Kind::kTimeToCut: {
        // First marker for the current epoch wins; stale ones are ignored.
        if (rec.epoch == epoch) cut();
        break;
      }
    }
  }
  cut();  // drain on shutdown
}

}  // namespace brdb
