#include "consensus/solo.h"

#include "common/thread_name.h"
#include "wire/codec.h"

namespace brdb {

SoloOrderer::SoloOrderer(OrdererConfig config, SimNetwork* net,
                         Identity identity)
    : OrderingCore(config, net),
      identity_(std::move(identity)),
      endpoint_("orderer:" + identity_.name),
      cutter_(config.block_size, config.block_timeout_us) {
  net_->RegisterEndpoint(endpoint_, [this](const NetMessage& m) {
    if (m.type == kMsgTx) {
      auto tx = Transaction::Decode(m.payload);
      if (tx.ok()) (void)SubmitTransaction(tx.value());
    } else if (m.type == kMsgVote) {
      auto v = DecodeCheckpointVote(m.payload);
      if (v.ok()) SubmitCheckpointVote(v.value());
    } else if (m.type == kMsgFetchBlock) {
      Decoder dec(m.payload);
      uint64_t number = 0;
      if (dec.GetU64(&number)) {
        auto block = GetBlock(number);
        if (block.ok()) {
          NetMessage reply;
          reply.from = endpoint_;
          reply.to = m.from;
          reply.type = kMsgBlock;
          reply.payload = block.value().Encode();
          net_->Send(std::move(reply));
        }
      }
    }
  });
}

SoloOrderer::~SoloOrderer() {
  Stop();
  net_->UnregisterEndpoint(endpoint_);
}

Status SoloOrderer::SubmitTransaction(const Transaction& tx) {
  if (!running_.load()) {
    return Status::Unavailable("orderer not running");
  }
  cutter_.Add(tx);
  return Status::OK();
}

void SoloOrderer::SubmitCheckpointVote(const CheckpointVote& vote) {
  cutter_.AddVote(vote);
}

void SoloOrderer::Start() {
  if (running_.exchange(true)) return;
  cutter_thread_ = std::thread([this] {
    NameThisThread("solo-cutter");
    CutterLoop();
  });
}

void SoloOrderer::Stop() {
  if (!running_.exchange(false)) return;
  cutter_.Close();
  if (cutter_thread_.joinable()) cutter_thread_.join();
}

void SoloOrderer::CutterLoop() {
  while (cutter_.WaitForCut()) {
    auto [txns, votes] = cutter_.Cut();
    Block b =
        AssembleNext(std::move(txns), std::move(votes), "solo", identity_);
    (void)StoreAndDeliver(b, endpoint_);
  }
  // Drain remaining transactions so tests can stop cleanly.
  while (!cutter_.Empty()) {
    auto [txns, votes] = cutter_.Cut();
    if (txns.empty()) break;
    Block b =
        AssembleNext(std::move(txns), std::move(votes), "solo", identity_);
    (void)StoreAndDeliver(b, endpoint_);
  }
}

}  // namespace brdb
