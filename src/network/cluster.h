// Multi-process cluster runtime: the pieces a real OS process hosts when
// the network in blockchain_network.h is split across process boundaries.
//
//   * BuildClusterIdentities — every process derives the SAME identity set
//     deterministically (Identity::Create is seed-derived), so certificate
//     registries agree without any exchange protocol.
//   * NodeProcess   — one DatabaseNode behind a TcpServer, dialing the
//     orderer and the other nodes. The node itself still speaks to a local
//     SimNetwork; remote endpoints are registered on it as forwarders that
//     wrap each NetMessage into a kNetRelay frame and ship it over TCP,
//     where the receiving process injects it into ITS local SimNetwork.
//     The ordering service the node sees is a RemoteOrderer proxy.
//   * OrdererProcess — a SoloOrderer behind a TcpServer. Peers dial
//     it; blocks are pushed down those authenticated connections. At
//     startup it adopts the longest chain reported by its peers via the
//     §3.6 catch-up RPC (kFetchBlocks) before cutting any new block.
//
// All of this is plain library code (no fork/exec): brdb_noded wraps one
// NodeProcess or OrdererProcess per OS process, and the in-process
// loopback smoke/determinism tests instantiate several in one binary.
#ifndef BRDB_NETWORK_CLUSTER_H_
#define BRDB_NETWORK_CLUSTER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consensus/solo.h"
#include "core/node.h"
#include "core/session.h"
#include "core/transport.h"
#include "network/tcp_transport.h"

namespace brdb {

/// Static cluster shape every process agrees on out of band (command-line
/// flags). Identity derivation depends only on this.
struct ClusterLayout {
  std::vector<std::string> orgs = {"org1", "org2", "org3", "org4"};
  size_t num_orderers = 1;
  /// Pre-derived workload client identities per organization (processes
  /// cannot register ad-hoc clients into each other's registries).
  size_t clients_per_org = 16;
};

/// Name of the k-th pre-derived workload client of `org`.
std::string ClusterClientName(const std::string& org, size_t k);

struct ClusterIdentities {
  std::vector<Identity> admins;
  std::vector<Identity> peers;     ///< "peer-<org>", one per org
  std::vector<Identity> orderers;  ///< "orderer-1"..., round-robin orgs
  std::vector<Identity> clients;   ///< clients_per_org per org
  std::shared_ptr<CertificateRegistry> registry;  ///< all of the above
};

/// Derive and register the full identity set for `layout`. Deterministic:
/// every process calling this with the same layout gets identical keys.
ClusterIdentities BuildClusterIdentities(const ClusterLayout& layout);

/// OrderingService proxy used by a DatabaseNode whose orderer lives in
/// another process: submits and fetches become RPCs over the peer's
/// authenticated orderer connection, checkpoint votes become one-way
/// kNetRelay frames. Start/Stop/ConnectPeer/SeedChain are no-ops — the
/// real service's lifecycle belongs to the orderer process.
class RemoteOrderer : public OrderingService {
 public:
  /// `client` may be null at construction (port discovery hasn't finished)
  /// and set later via SetClient — but before the node starts submitting.
  RemoteOrderer(FrameClient* client, std::string node_endpoint,
                Micros submit_timeout_us = 30'000'000,
                Micros fetch_timeout_us = 500'000);

  void SetClient(FrameClient* client) { client_ = client; }

  Status SubmitTransaction(const Transaction& tx) override;
  void SubmitCheckpointVote(const CheckpointVote& vote) override;
  void ConnectPeer(const std::string& /*endpoint*/) override {}
  void Start() override {}
  void Stop() override {}
  BlockNum Height() const override;
  Result<Block> GetBlock(BlockNum number) const override;
  Status SeedChain(const BlockStore& /*source*/) override { return Status::OK(); }

 private:
  FrameClient* client_;
  std::string node_endpoint_;
  Micros submit_timeout_us_;
  Micros fetch_timeout_us_;
};

struct NodeProcessOptions {
  ClusterLayout layout;
  size_t node_index = 0;  ///< which org's peer this process hosts

  uint16_t listen_port = 0;  ///< 0 = ephemeral (read back via port())
  std::string orderer_host = "127.0.0.1";
  uint16_t orderer_port = 0;
  /// The OTHER node processes (EOP forwarding mesh). May be filled in
  /// after construction, before Start().
  std::vector<TcpPeerAddress> peer_nodes;

  /// The hosted node's config; name and org are stamped from `layout` and
  /// `node_index`.
  NodeConfig node;
};

/// Everything one database-node OS process hosts.
class NodeProcess {
 public:
  explicit NodeProcess(NodeProcessOptions options);
  ~NodeProcess();

  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// One-shot start when every address in `options` is already known.
  /// Equivalent to StartServer() + ConnectAndStart(orderer, peer_nodes).
  Status Start();

  /// Phase 1: event loop, node construction, listening server. After this
  /// port() is valid (bind port 0 → ephemeral), so the process can publish
  /// its address before anyone else's is known.
  Status StartServer();

  /// Phase 2: dial the orderer and the peer mesh, then start the node.
  Status ConnectAndStart(const std::string& orderer_host,
                         uint16_t orderer_port,
                         std::vector<TcpPeerAddress> peer_nodes);

  void Stop();

  const std::string& name() const { return name_; }
  uint16_t port() const { return server_ ? server_->port() : 0; }
  DatabaseNode* node() { return node_.get(); }
  CertificateRegistry* registry() { return identities_.registry.get(); }
  TcpServer* server() { return server_.get(); }

 private:
  void OnRelay(const std::string& peer_name, const NetRelayBody& relay);
  void OnOrdererEvent(const Frame& frame);
  Frame OnReverseRequest(const Frame& frame);

  NodeProcessOptions options_;
  std::string name_;
  ClusterIdentities identities_;
  std::unique_ptr<SimNetwork> sim_;
  EventLoop loop_;
  std::unique_ptr<FrameClient> orderer_client_;
  std::vector<std::unique_ptr<FrameClient>> peer_clients_;
  std::unique_ptr<RemoteOrderer> remote_orderer_;
  std::unique_ptr<DatabaseNode> node_;
  std::unique_ptr<TcpServer> server_;
  DatabaseNode::SubscriptionId decision_sub_ = 0;
  bool started_ = false;
};

struct OrdererProcessOptions {
  ClusterLayout layout;
  OrdererConfig config;
  uint16_t listen_port = 0;
  /// How long to wait for every layout org's peer before ordering anyway.
  Micros peer_wait_timeout_us = 15'000'000;
};

/// Everything the orderer OS process hosts.
class OrdererProcess {
 public:
  explicit OrdererProcess(OrdererProcessOptions options);
  ~OrdererProcess();

  OrdererProcess(const OrdererProcess&) = delete;
  OrdererProcess& operator=(const OrdererProcess&) = delete;

  /// Bind + listen; peers can dial and authenticate from here on, but no
  /// block is cut yet. Nonblocking.
  Status StartServer();

  /// Wait (bounded) for one peer per layout org, adopt the longest chain
  /// any of them reported via the §3.6 catch-up RPC, then start ordering.
  /// On timeout, proceeds with whoever showed up.
  Status WaitPeersAndStartOrdering();

  void Stop();

  uint16_t port() const { return server_ ? server_->port() : 0; }
  OrderingService* ordering() { return ordering_.get(); }
  TcpServer* server() { return server_.get(); }

 private:
  struct PeerConn {
    uint64_t conn_id = 0;
    uint64_t reported_height = 0;
  };

  void OnPeerAuthenticated(uint64_t conn_id, const HelloBody& hello);
  void OnPeerClosed(uint64_t conn_id, const std::string& peer_name);
  void OnRelay(const std::string& peer_name, const NetRelayBody& relay);
  Status CatchUpFromPeer(uint64_t conn_id, uint64_t target_height);

  OrdererProcessOptions options_;
  ClusterIdentities identities_;
  std::unique_ptr<SimNetwork> sim_;
  EventLoop loop_;
  std::unique_ptr<OrderingService> ordering_;
  std::unique_ptr<TcpServer> server_;

  std::mutex peers_mu_;
  std::condition_variable peers_cv_;
  std::map<std::string, PeerConn> peer_conns_;  ///< name → live connection
  std::set<std::string> connected_endpoints_;   ///< ever ConnectPeer'd
  bool ordering_started_ = false;
};

/// Orderer-side request dispatch (kSubmit / kHeight / kFetchBlocks against
/// the ordering service). The node-side twin is DispatchRequestFrame in
/// core/transport.h.
Frame DispatchOrdererFrame(const Frame& request, OrderingService* ordering);

/// The full §3.7 governance deployment over any Transport (a multi-process
/// cluster has no BlockchainNetwork to drive it): create_deployTx by the
/// first admin session, approve_deployTx by every other org's admin,
/// submit_deployTx. Each step waits for ALL nodes so the next step's
/// snapshot covers it on whichever peer it lands.
Status DeployContractOverSessions(const std::vector<Session*>& admins,
                                  const std::string& deployment_sql,
                                  Micros step_timeout_us = 30'000'000);

}  // namespace brdb

#endif  // BRDB_NETWORK_CLUSTER_H_
