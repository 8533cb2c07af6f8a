// BlockchainNetwork: the facade that bootstraps a permissioned network
// (paper §3.7) — identities and certificate exchange, the simulated
// network, a pluggable ordering service, one database node per
// organization, and client sessions. This is the entry point examples,
// benchmarks and integration tests use.
#ifndef BRDB_CORE_BLOCKCHAIN_NETWORK_H_
#define BRDB_CORE_BLOCKCHAIN_NETWORK_H_

#include <memory>

#include "consensus/kafka.h"
#include "consensus/solo.h"
#include "core/node.h"
#include "core/session.h"
#include "core/transport.h"

namespace brdb {

/// kSolo: one sequencer with deterministic block packing (determinism tests,
/// the socket cluster). kKafka: N CFT orderers over a shared topic (every
/// bench and perfbench run).
enum class OrdererType { kSolo, kKafka };

struct NetworkOptions {
  std::vector<std::string> orgs = {"org1", "org2", "org3"};
  TransactionFlow flow = TransactionFlow::kOrderThenExecute;
  OrdererType orderer_type = OrdererType::kKafka;
  size_t num_orderers = 0;  ///< 0 = one per organization
  OrdererConfig orderer_config;
  NetworkProfile profile = NetworkProfile::Lan();
  std::string block_store_dir;  ///< "" = in-memory block stores

  /// Template for every node's config. Create() copies it per node and
  /// overwrites name and org ("peer-<org>"), flow (from `flow`),
  /// block_store_path (<block_store_dir>/<name>.blocks, or in-memory),
  /// byzantine (from `byzantine_policies`), fault_injector (from
  /// `fault_injector`/`fault_injector_node`) and chaos (from `chaos`).
  NodeConfig node;

  /// Test hook: block-store crash injection for the node with this name
  /// ("peer-<org>"); the injector must outlive the network.
  FaultInjector* fault_injector = nullptr;
  std::string fault_injector_node;

  /// Initial misbehavior policy per node index (network/chaos.h), e.g.
  /// skip_commit (§3.5(3)); runtime changes go through
  /// DatabaseNode::SetByzantinePolicy (e.g. from a ChaosRunner).
  std::map<size_t, ByzantinePolicy> byzantine_policies;

  /// Network chaos injector armed on the SimNetwork and every node
  /// (must outlive the network). See NetworkFaultInjector.
  NetworkFaultInjector* chaos = nullptr;
};

class BlockchainNetwork {
 public:
  static std::unique_ptr<BlockchainNetwork> Create(
      const NetworkOptions& options);

  ~BlockchainNetwork();

  Status Start();
  void Stop();

  size_t num_nodes() const { return nodes_.size(); }
  DatabaseNode* node(size_t i) { return nodes_[i].get(); }
  OrderingService* ordering() { return ordering_.get(); }
  SimNetwork* network() { return net_.get(); }
  CertificateRegistry* registry() { return registry_.get(); }
  const NetworkOptions& options() const { return options_; }

  /// Create a session for a client identity registered with every node
  /// (bootstrap-time registration; §3.7 — later users are onboarded
  /// on-chain via the create_user system contract). All sessions share
  /// this network's in-process transport.
  Session* CreateSession(const std::string& org, const std::string& name,
                         SessionOptions options = SessionOptions());

  /// The network-wide shared transport (frame counters live here).
  Transport* transport() { return transport_.get(); }

  /// The pre-created admin session of an organization (nullptr if none).
  Session* AdminOf(const std::string& org);

  /// Deploy through the full governance flow: create_deployTx by one
  /// admin, approve_deployTx by every other organization's admin,
  /// submit_deployTx. Each step waits for a majority commit, then (bounded)
  /// for every node to reach its block — a byzantine minority that skips
  /// commits cannot stall deployment.
  Status DeployContract(const std::string& deployment_sql);

  /// Register a native contract identically on every node (used by
  /// benchmarks; deterministic because all nodes get the same function).
  Status RegisterNativeContract(const std::string& name, NativeContractFn fn);

  /// Wait until every node committed at least `height` blocks.
  Status WaitForHeight(BlockNum height, Micros timeout_us = 30000000);

  /// Wait until every node's committed transaction count stops changing
  /// (the network drained); used by benchmarks.
  void WaitIdle(Micros settle_us = 200000, Micros timeout_us = 60000000);

 private:
  BlockchainNetwork() = default;

  NetworkOptions options_;
  std::shared_ptr<CertificateRegistry> registry_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<OrderingService> ordering_;
  std::vector<std::unique_ptr<DatabaseNode>> nodes_;
  // Transport after nodes_, sessions after transport_: members are
  // destroyed in reverse declaration order, and each layer unsubscribes
  // from the one below in its destructor.
  std::shared_ptr<InProcessTransport> transport_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< admins included
  std::map<std::string, Session*> admins_;
  bool started_ = false;
};

}  // namespace brdb

#endif  // BRDB_CORE_BLOCKCHAIN_NETWORK_H_
