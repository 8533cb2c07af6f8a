#include "consensus/kafka.h"

#include "wire/codec.h"

namespace brdb {

void SimKafkaCluster::Publish(Record r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(std::move(r));
  }
  cv_.notify_all();
}

bool SimKafkaCluster::Consume(size_t* offset, Record* out, Micros wait_us) {
  std::unique_lock<std::mutex> lock(mu_);
  if (*offset >= log_.size()) {
    cv_.wait_for(lock, std::chrono::microseconds(wait_us),
                 [&] { return *offset < log_.size(); });
  }
  if (*offset >= log_.size()) return false;
  *out = log_[*offset];
  ++*offset;
  return true;
}

size_t SimKafkaCluster::LogSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_.size();
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
  consumer_thread_ = std::thread([this] { ConsumerLoop(); });
  for (size_t i = 0; i < orderers_.size(); ++i) {
    timer_threads_.emplace_back([this, i] { TimerLoop(i); });
  }
}

void KafkaOrderingService::Stop() {
  if (!running_.exchange(false)) return;
  if (consumer_thread_.joinable()) consumer_thread_.join();
  for (auto& t : timer_threads_) {
    if (t.joinable()) t.join();
  }
  timer_threads_.clear();
}

void KafkaOrderingService::ConsumerLoop() {
  size_t offset = 0;
  std::vector<Transaction> batch;
  std::vector<CheckpointVote> votes;

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
    // Clear the start before opening the next epoch, so a timer that reads
    // the new epoch can never pair it with this batch's start time.
    batch_started_at_.store(0);
    current_epoch_.fetch_add(1);
  };

  while (running_.load() || offset < cluster_.LogSize()) {
    if (paused_.load() && running_.load()) {
      // Crashed orderer: stop consuming (no block cuts). Publishes keep
      // landing in the kafka log, so un-pausing drains the backlog — the
      // harness measures recovery as time-to-drain after resume.
      RealClock::Shared()->SleepMicros(config_.tick_us);
      continue;
    }
    SimKafkaCluster::Record rec;
    if (!cluster_.Consume(&offset, &rec, config_.tick_us)) {
      if (!running_.load()) break;
      continue;
    }
    switch (rec.kind) {
      case SimKafkaCluster::Record::Kind::kTx: {
        auto tx = Transaction::Decode(rec.payload);
        if (!tx.ok()) break;
        if (batch.empty()) {
          batch_started_at_.store(RealClock::Shared()->NowMicros());
        }
        batch.push_back(std::move(tx).value());
        if (batch.size() >= config_.block_size) cut();
        break;
      }
      case SimKafkaCluster::Record::Kind::kVote: {
        auto v = DecodeCheckpointVote(rec.payload);
        if (v.ok()) votes.push_back(std::move(v).value());
        break;
      }
      case SimKafkaCluster::Record::Kind::kTimeToCut: {
        // First marker for the current epoch wins; stale ones are ignored.
        if (rec.epoch == current_epoch_.load()) cut();
        break;
      }
    }
  }
  cut();  // drain on shutdown
}

void KafkaOrderingService::TimerLoop(size_t orderer_index) {
  (void)orderer_index;  // every orderer runs an identical timer
  const auto& clock = RealClock::Shared();
  while (running_.load()) {
    // Epoch, then start time, then the epoch again: a cut between the two
    // loads would pair the old batch's start with the new epoch and
    // publish a marker for a batch that may still be empty. The consumer
    // ignores that marker, and the ttc_published_for_ advance below would
    // keep every timer from cutting the new batch.
    const uint64_t epoch = current_epoch_.load();
    const int64_t started = batch_started_at_.load();
    uint64_t published = ttc_published_for_.load();
    if (started != 0 && current_epoch_.load() == epoch &&
        clock->NowMicros() - started >= config_.block_timeout_us &&
        published <= epoch &&
        ttc_published_for_.compare_exchange_strong(published, epoch + 1)) {
      SimKafkaCluster::Record r;
      r.kind = SimKafkaCluster::Record::Kind::kTimeToCut;
      r.epoch = epoch;
      cluster_.Publish(std::move(r));
    }
    clock->SleepMicros(config_.tick_us);
  }
}

}  // namespace brdb
