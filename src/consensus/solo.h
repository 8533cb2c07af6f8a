// SoloOrderer: single-sequencer ordering service. No fault tolerance; used
// for development, unit tests and as the contention-free upper bound in
// benchmarks.
#ifndef BRDB_CONSENSUS_SOLO_H_
#define BRDB_CONSENSUS_SOLO_H_

#include "consensus/ordering_service.h"

namespace brdb {

class SoloOrderer : public OrderingCore {
 public:
  SoloOrderer(OrdererConfig config, SimNetwork* net, Identity identity);
  ~SoloOrderer() override;

  Status SubmitTransaction(const Transaction& tx) override;
  void SubmitCheckpointVote(const CheckpointVote& vote) override;
  void Start() override;
  void Stop() override;

  /// Endpoint name on the simulated network ("orderer:<name>").
  const std::string& endpoint() const { return endpoint_; }

 private:
  void CutterLoop();

  Identity identity_;
  std::string endpoint_;
  BlockCutter cutter_;
  std::atomic<bool> running_{false};
  std::thread cutter_thread_;
};

}  // namespace brdb

#endif  // BRDB_CONSENSUS_SOLO_H_
