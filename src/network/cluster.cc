#include "network/cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace brdb {

namespace {
// Request-handler pool size of every node and orderer server.
constexpr size_t kDispatchThreads = 4;
}  // namespace

std::string ClusterClientName(const std::string& org, size_t k) {
  return "client" + std::to_string(k + 1) + "-" + org;
}

ClusterIdentities BuildClusterIdentities(const ClusterLayout& layout) {
  ClusterIdentities ids;
  ids.registry = std::make_shared<CertificateRegistry>();
  for (const std::string& org : layout.orgs) {
    ids.admins.push_back(
        Identity::Create(org, "admin-" + org, PrincipalRole::kAdmin));
    ids.peers.push_back(
        Identity::Create(org, "peer-" + org, PrincipalRole::kPeer));
    for (size_t k = 0; k < layout.clients_per_org; ++k) {
      ids.clients.push_back(Identity::Create(org, ClusterClientName(org, k),
                                             PrincipalRole::kClient));
    }
  }
  size_t n_orderers =
      layout.num_orderers == 0 ? layout.orgs.size() : layout.num_orderers;
  for (size_t i = 0; i < n_orderers; ++i) {
    const std::string& org = layout.orgs[i % layout.orgs.size()];
    ids.orderers.push_back(Identity::Create(
        org, "orderer-" + std::to_string(i + 1), PrincipalRole::kOrderer));
  }
  auto reg = [&](const Identity& id) {
    ids.registry->Register(id.name, id.organization, id.role,
                           id.keys.public_key);
  };
  for (const auto& id : ids.admins) reg(id);
  for (const auto& id : ids.peers) reg(id);
  for (const auto& id : ids.orderers) reg(id);
  for (const auto& id : ids.clients) reg(id);
  return ids;
}

// ---------------- RemoteOrderer ----------------

RemoteOrderer::RemoteOrderer(FrameClient* client, std::string node_endpoint,
                             Micros submit_timeout_us, Micros fetch_timeout_us)
    : client_(client),
      node_endpoint_(std::move(node_endpoint)),
      submit_timeout_us_(submit_timeout_us),
      fetch_timeout_us_(fetch_timeout_us) {}

Status RemoteOrderer::SubmitTransaction(const Transaction& tx) {
  if (client_ == nullptr) return Status::Unavailable("orderer not dialed");
  Frame req;
  req.kind = FrameKind::kSubmit;
  SubmitRequestBody body;
  body.encoded_txs.push_back(tx.Encode());
  req.body = body.Encode();
  auto resp = client_->CallBlocking(std::move(req), submit_timeout_us_);
  if (!resp.ok()) return resp.status();
  auto decoded = SubmitResponseBody::Decode(resp.value().body);
  if (!decoded.ok()) return decoded.status();
  if (!decoded.value().status.ok()) return decoded.value().status;
  if (decoded.value().tx_statuses.size() != 1) {
    return Status::Internal("submit response arity mismatch");
  }
  return decoded.value().tx_statuses[0];
}

void RemoteOrderer::SubmitCheckpointVote(const CheckpointVote& vote) {
  if (client_ == nullptr) return;
  NetRelayBody relay;
  relay.from = node_endpoint_;
  relay.to = "orderer";
  relay.type = kMsgVote;
  relay.payload = EncodeCheckpointVote(vote);
  Frame f;
  f.kind = FrameKind::kNetRelay;
  f.body = relay.Encode();
  (void)client_->Send(std::move(f));  // votes are lossy by design (§3.3.4)
}

BlockNum RemoteOrderer::Height() const {
  if (client_ == nullptr) return 0;
  Frame req;
  req.kind = FrameKind::kHeight;
  auto resp = client_->CallBlocking(std::move(req), fetch_timeout_us_);
  if (!resp.ok()) return 0;
  auto decoded = StatusResponseBody::Decode(resp.value().body);
  if (!decoded.ok() || !decoded.value().status.ok()) return 0;
  return static_cast<BlockNum>(decoded.value().height);
}

Result<Block> RemoteOrderer::GetBlock(BlockNum number) const {
  if (client_ == nullptr) return Status::Unavailable("orderer not dialed");
  Frame req;
  req.kind = FrameKind::kFetchBlocks;
  req.body = FetchBlocksBody{number, 1}.Encode();
  auto resp = client_->CallBlocking(std::move(req), fetch_timeout_us_);
  if (!resp.ok()) return resp.status();
  auto decoded = FetchBlocksResponseBody::Decode(resp.value().body);
  if (!decoded.ok()) return decoded.status();
  if (!decoded.value().status.ok()) return decoded.value().status;
  if (decoded.value().encoded_blocks.empty()) {
    return Status::NotFound("block not yet ordered");
  }
  return Block::Decode(decoded.value().encoded_blocks[0]);
}

// ---------------- orderer-side dispatch ----------------

Frame DispatchOrdererFrame(const Frame& request, OrderingService* ordering) {
  switch (request.kind) {
    case FrameKind::kSubmit: {
      auto body = SubmitRequestBody::Decode(request.body);
      SubmitResponseBody resp;
      if (!body.ok()) {
        resp.status = body.status();
      } else {
        for (const std::string& tx_bytes : body.value().encoded_txs) {
          auto tx = Transaction::Decode(tx_bytes);
          resp.tx_statuses.push_back(
              tx.ok() ? ordering->SubmitTransaction(tx.value()) : tx.status());
        }
      }
      Frame f;
      f.kind = FrameKind::kStatusResponse;
      f.body = resp.Encode();
      return f;
    }
    case FrameKind::kHeight: {
      Frame f;
      f.kind = FrameKind::kHeightResponse;
      f.body = StatusResponseBody{Status::OK(), ordering->Height()}.Encode();
      return f;
    }
    case FrameKind::kFetchBlocks: {
      auto body = FetchBlocksBody::Decode(request.body);
      FetchBlocksResponseBody resp;
      if (!body.ok()) {
        resp.status = body.status();
      } else {
        BlockNum height = ordering->Height();
        uint32_t count = std::min<uint32_t>(body.value().max_count,
                                            kMaxFetchBlocksPerResponse);
        for (BlockNum h = body.value().from_height;
             h <= height && resp.encoded_blocks.size() < count; ++h) {
          auto block = ordering->GetBlock(h);
          if (!block.ok()) break;  // return the contiguous prefix we have
          resp.encoded_blocks.push_back(block.value().Encode());
        }
      }
      Frame f;
      f.kind = FrameKind::kFetchBlocksResponse;
      f.body = resp.Encode();
      return f;
    }
    default: {
      Frame f;
      f.kind = FrameKind::kStatusResponse;
      f.body = StatusResponseBody{
          Status::InvalidArgument("unexpected frame kind for orderer"), 0}
                   .Encode();
      return f;
    }
  }
}

// ---------------- NodeProcess ----------------

NodeProcess::NodeProcess(NodeProcessOptions options)
    : options_(std::move(options)) {
  identities_ = BuildClusterIdentities(options_.layout);
  const std::string& org = options_.layout.orgs[options_.node_index];
  name_ = "peer-" + org;
  sim_ = std::make_unique<SimNetwork>(NetworkProfile::Instant());
}

NodeProcess::~NodeProcess() { Stop(); }

Status NodeProcess::Start() {
  BRDB_RETURN_NOT_OK(StartServer());
  return ConnectAndStart(options_.orderer_host, options_.orderer_port,
                         options_.peer_nodes);
}

Status NodeProcess::StartServer() {
  if (server_) return Status::OK();
  const Identity& self = identities_.peers[options_.node_index];
  BRDB_RETURN_NOT_OK(loop_.Start());

  remote_orderer_ =
      std::make_unique<RemoteOrderer>(nullptr, "peer:" + name_);

  // The database node, speaking to the local SimNetwork and the proxy.
  NodeConfig cfg = options_.node;
  cfg.name = name_;
  cfg.org = options_.layout.orgs[options_.node_index];
  node_ = std::make_unique<DatabaseNode>(cfg, self, identities_.registry,
                                         sim_.get(), remote_orderer_.get());
  for (const auto& id : identities_.admins) (void)node_->SeedCertificate(id);
  for (const auto& id : identities_.peers) (void)node_->SeedCertificate(id);
  for (const auto& id : identities_.orderers) {
    (void)node_->SeedCertificate(id);
  }

  // The server hosting client sessions and inbound peer relays.
  TcpServerOptions so;
  so.name = name_;
  so.keys = self.keys;
  so.registry = identities_.registry;
  so.dispatch_threads = kDispatchThreads;
  so.chain_height = [this] {
    return static_cast<uint64_t>(node_->block_store()->Height());
  };
  so.on_request = [this](const std::string& peer, ChannelPurpose purpose,
                         const Frame& frame) {
    (void)peer;
    (void)purpose;
    return DispatchRequestFrame(frame, node_.get(), remote_orderer_.get(),
                                options_.node.flow);
  };
  so.on_relay = [this](const std::string& peer, const NetRelayBody& relay) {
    OnRelay(peer, relay);
  };
  server_ = std::make_unique<TcpServer>(&loop_, std::move(so));
  BRDB_RETURN_NOT_OK(server_->Start(options_.listen_port));

  // Decisions stream to every subscribed session connection.
  decision_sub_ = node_->Subscribe([this](const TxnNotification& n) {
    DecisionEventBody body;
    body.peer = name_;
    body.txid = n.txid;
    body.status = n.status;
    body.block = n.block;
    Frame event;
    event.kind = FrameKind::kDecisionEvent;
    event.body = body.Encode();
    server_->PushToDecisionSubscribers(std::move(event));
  });
  return Status::OK();
}

Status NodeProcess::ConnectAndStart(const std::string& orderer_host,
                                    uint16_t orderer_port,
                                    std::vector<TcpPeerAddress> peer_nodes) {
  if (started_) return Status::OK();
  if (!server_) return Status::Internal("StartServer() first");
  const Identity& self = identities_.peers[options_.node_index];

  // Orderer connection (dialed; blocks and decisions flow back down it).
  FrameClientOptions oc;
  oc.name = name_;
  oc.keys = self.keys;
  oc.registry = identities_.registry;
  oc.purpose = ChannelPurpose::kPeerNode;
  oc.host = orderer_host;
  oc.port = orderer_port;
  oc.expected_server =
      identities_.orderers.empty() ? "" : identities_.orderers[0].name;
  oc.chain_height = [this] {
    return node_ ? static_cast<uint64_t>(node_->block_store()->Height()) : 0;
  };
  oc.on_event = [this](const Frame& frame) { OnOrdererEvent(frame); };
  oc.on_request = [this](const Frame& frame) {
    return OnReverseRequest(frame);
  };
  orderer_client_ = std::make_unique<FrameClient>(&loop_, std::move(oc));
  remote_orderer_->SetClient(orderer_client_.get());

  // Forwarder endpoints: a NetMessage addressed to a remote peer leaves
  // this process as a kNetRelay frame on that peer's connection. Unknown
  // or disconnected peers drop, exactly like SimNetwork's dead hosts.
  std::vector<std::string> remote_endpoints;
  for (const TcpPeerAddress& peer : peer_nodes) {
    FrameClientOptions pc;
    pc.name = name_;
    pc.keys = self.keys;
    pc.registry = identities_.registry;
    pc.purpose = ChannelPurpose::kPeerNode;
    pc.host = peer.host;
    pc.port = peer.port;
    pc.expected_server = peer.name;
    pc.on_request = [this](const Frame& frame) {
      return OnReverseRequest(frame);
    };
    auto client = std::make_unique<FrameClient>(&loop_, std::move(pc));
    FrameClient* raw = client.get();
    std::string endpoint = "peer:" + peer.name;
    remote_endpoints.push_back(endpoint);
    sim_->RegisterEndpoint(endpoint, [raw](const NetMessage& m) {
      NetRelayBody relay;
      relay.from = m.from;
      relay.to = m.to;
      relay.type = m.type;
      relay.payload = m.payload;
      Frame f;
      f.kind = FrameKind::kNetRelay;
      f.body = relay.Encode();
      (void)raw->Send(std::move(f));
    });
    peer_clients_.push_back(std::move(client));
  }
  node_->SetPeerEndpoints(std::move(remote_endpoints));

  orderer_client_->Connect();
  for (auto& client : peer_clients_) client->Connect();
  BRDB_RETURN_NOT_OK(node_->Start());
  started_ = true;
  return Status::OK();
}

void NodeProcess::Stop() {
  if (!started_) return;
  started_ = false;
  if (node_ && decision_sub_ != 0) {
    node_->Unsubscribe(decision_sub_);
    decision_sub_ = 0;
  }
  if (node_) node_->Stop();
  if (server_) server_->Stop();
  if (orderer_client_) orderer_client_->Shutdown();
  for (auto& client : peer_clients_) client->Shutdown();
  loop_.Stop();
}

void NodeProcess::OnRelay(const std::string& peer_name,
                          const NetRelayBody& relay) {
  // Only a peer-role channel may inject network messages, and only under
  // its own authenticated name — a compromised client key gains nothing.
  auto role = identities_.registry->RoleOf(peer_name);
  if (!role.ok() || (role.value() != PrincipalRole::kPeer &&
                     role.value() != PrincipalRole::kOrderer)) {
    return;
  }
  if (relay.from != "peer:" + peer_name && relay.from != peer_name) return;
  NetMessage m;
  m.from = relay.from;
  m.to = relay.to;
  m.type = relay.type;
  m.payload = relay.payload;
  sim_->Send(std::move(m));
}

void NodeProcess::OnOrdererEvent(const Frame& frame) {
  if (frame.kind != FrameKind::kNetRelay) return;
  auto relay = NetRelayBody::Decode(frame.body);
  if (!relay.ok()) return;
  // Down the orderer connection come block deliveries (kMsgBlock). The
  // channel is authenticated to the orderer, and block signatures are
  // verified again in EnqueueBlock, so injection is double-covered.
  NetMessage m;
  m.from = relay.value().from;
  m.to = relay.value().to;
  m.type = relay.value().type;
  m.payload = relay.value().payload;
  sim_->Send(std::move(m));
}

Frame NodeProcess::OnReverseRequest(const Frame& frame) {
  // Reverse RPC from a dialed server — today only the orderer's §3.6
  // catch-up fetch. Runs on the loop thread: block-store reads only.
  if (frame.kind == FrameKind::kFetchBlocks) {
    return DispatchRequestFrame(frame, node_.get(), remote_orderer_.get(),
                                options_.node.flow);
  }
  Frame f;
  f.kind = FrameKind::kStatusResponse;
  f.body = StatusResponseBody{
      Status::NotSupported("unexpected reverse request"), 0}
               .Encode();
  return f;
}

// ---------------- OrdererProcess ----------------

OrdererProcess::OrdererProcess(OrdererProcessOptions options)
    : options_(std::move(options)) {
  identities_ = BuildClusterIdentities(options_.layout);
  sim_ = std::make_unique<SimNetwork>(NetworkProfile::Instant());
  ordering_ = std::make_unique<SoloOrderer>(options_.config, sim_.get(),
                                            identities_.orderers[0]);
}

OrdererProcess::~OrdererProcess() { Stop(); }

Status OrdererProcess::StartServer() {
  BRDB_RETURN_NOT_OK(loop_.Start());
  TcpServerOptions so;
  so.name = identities_.orderers[0].name;
  so.keys = identities_.orderers[0].keys;
  so.registry = identities_.registry;
  so.dispatch_threads = kDispatchThreads;
  so.chain_height = [this] {
    return static_cast<uint64_t>(ordering_->Height());
  };
  so.on_request = [this](const std::string& peer, ChannelPurpose purpose,
                         const Frame& frame) {
    (void)peer;
    (void)purpose;
    return DispatchOrdererFrame(frame, ordering_.get());
  };
  so.on_relay = [this](const std::string& peer, const NetRelayBody& relay) {
    OnRelay(peer, relay);
  };
  so.on_authenticated = [this](uint64_t conn_id, const HelloBody& hello) {
    OnPeerAuthenticated(conn_id, hello);
  };
  so.on_closed = [this](uint64_t conn_id, const std::string& peer_name) {
    OnPeerClosed(conn_id, peer_name);
  };
  server_ = std::make_unique<TcpServer>(&loop_, std::move(so));
  return server_->Start(options_.listen_port);
}

void OrdererProcess::OnPeerAuthenticated(uint64_t conn_id,
                                         const HelloBody& hello) {
  if (static_cast<ChannelPurpose>(hello.purpose) !=
      ChannelPurpose::kPeerNode) {
    return;  // client sessions don't get blocks pushed
  }
  const std::string endpoint = "peer:" + hello.name;
  // Blocks addressed to this peer leave on its (newest) connection.
  TcpServer* server = server_.get();
  sim_->RegisterEndpoint(endpoint, [server, conn_id](const NetMessage& m) {
    NetRelayBody relay;
    relay.from = m.from;
    relay.to = m.to;
    relay.type = m.type;
    relay.payload = m.payload;
    Frame f;
    f.kind = FrameKind::kNetRelay;
    f.body = relay.Encode();
    server->Push(conn_id, std::move(f));
  });
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peer_conns_[hello.name] = PeerConn{conn_id, hello.chain_height};
    if (connected_endpoints_.insert(endpoint).second) {
      ordering_->ConnectPeer(endpoint);
    }
  }
  peers_cv_.notify_all();
}

void OrdererProcess::OnPeerClosed(uint64_t conn_id,
                                  const std::string& peer_name) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto it = peer_conns_.find(peer_name);
  // A reconnect may already have replaced the entry; only drop our own.
  if (it != peer_conns_.end() && it->second.conn_id == conn_id) {
    peer_conns_.erase(it);
    sim_->UnregisterEndpoint("peer:" + peer_name);
  }
}

void OrdererProcess::OnRelay(const std::string& peer_name,
                             const NetRelayBody& relay) {
  auto role = identities_.registry->RoleOf(peer_name);
  if (!role.ok() || role.value() != PrincipalRole::kPeer) return;
  if (relay.type == kMsgVote) {
    auto vote = DecodeCheckpointVote(relay.payload);
    // The vote's claimed peer must be the channel's authenticated identity.
    if (vote.ok() && vote.value().peer == peer_name) {
      ordering_->SubmitCheckpointVote(vote.value());
    }
    return;
  }
  // Anything else is orderer-internal traffic on the local sim.
  NetMessage m;
  m.from = relay.from;
  m.to = relay.to;
  m.type = relay.type;
  m.payload = relay.payload;
  sim_->Send(std::move(m));
}

Status OrdererProcess::CatchUpFromPeer(uint64_t conn_id,
                                       uint64_t target_height) {
  BlockStore staging;
  while (staging.Height() < static_cast<BlockNum>(target_height)) {
    Frame req;
    req.kind = FrameKind::kFetchBlocks;
    req.body = FetchBlocksBody{static_cast<uint64_t>(staging.Height() + 1),
                               kMaxFetchBlocksPerResponse}
                   .Encode();
    auto resp = server_->CallBlocking(conn_id, std::move(req), 10'000'000);
    if (!resp.ok()) return resp.status();
    auto decoded = FetchBlocksResponseBody::Decode(resp.value().body);
    if (!decoded.ok()) return decoded.status();
    if (!decoded.value().status.ok()) return decoded.value().status;
    if (decoded.value().encoded_blocks.empty()) break;  // peer has no more
    for (const std::string& bytes : decoded.value().encoded_blocks) {
      auto block = Block::Decode(bytes);
      if (!block.ok()) return block.status();
      BRDB_RETURN_NOT_OK(staging.Append(block.value()));
    }
  }
  return ordering_->SeedChain(staging);
}

Status OrdererProcess::WaitPeersAndStartOrdering() {
  const size_t expected = options_.layout.orgs.size();
  {
    std::unique_lock<std::mutex> lock(peers_mu_);
    peers_cv_.wait_for(lock,
                       std::chrono::microseconds(options_.peer_wait_timeout_us),
                       [&] { return peer_conns_.size() >= expected; });
  }
  // §3.6 whole-network restart: adopt the longest durable chain any peer
  // reported in its hello, so the next cut block extends it instead of
  // colliding at height 1.
  uint64_t best_height = 0;
  uint64_t best_conn = 0;
  std::string best_peer;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (const auto& [name, conn] : peer_conns_) {
      if (conn.reported_height > best_height) {
        best_height = conn.reported_height;
        best_conn = conn.conn_id;
        best_peer = name;
      }
    }
  }
  if (best_height > 0) {
    Status caught = CatchUpFromPeer(best_conn, best_height);
    if (!caught.ok()) {
      BRDB_LOG(kError, "orderer")
          << "catch-up from " << best_peer << " to height " << best_height
          << " failed: " << caught.ToString();
    } else {
      BRDB_LOG(kInfo, "orderer")
          << "adopted chain at height " << ordering_->Height() << " from "
          << best_peer;
    }
  }
  ordering_->Start();
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    ordering_started_ = true;
  }
  return Status::OK();
}

void OrdererProcess::Stop() {
  bool was_started;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    was_started = ordering_started_;
    ordering_started_ = false;
  }
  if (was_started) ordering_->Stop();
  if (server_) server_->Stop();
  loop_.Stop();
}

Status DeployContractOverSessions(const std::vector<Session*>& admins,
                                  const std::string& deployment_sql,
                                  Micros step_timeout_us) {
  if (admins.empty()) return Status::InvalidArgument("no admin sessions");
  auto settle = [&](TxnHandle h) -> Status {
    if (!h.submit_status().ok()) return h.submit_status();
    return h.WaitAllNodes(step_timeout_us);
  };
  Session* proposer = admins[0];
  BRDB_RETURN_NOT_OK(settle(
      proposer->Submit("create_deployTx", {Value::Text(deployment_sql)})));

  // Pinned read (not round-robin): the proposer just saw all nodes decide,
  // but governance reads must not depend on which peer a failover picks.
  auto id_r = proposer->QueryOn(0, "SELECT MAX(deploy_id) FROM pgdeploy");
  if (!id_r.ok()) return id_r.status();
  auto scalar = id_r.value().Scalar();
  if (!scalar.ok()) return scalar.status();
  Value deploy_id = scalar.value();

  for (size_t i = 1; i < admins.size(); ++i) {
    BRDB_RETURN_NOT_OK(settle(admins[i]->Submit("approve_deployTx",
                                                {deploy_id})));
  }
  return settle(proposer->Submit("submit_deployTx", {deploy_id}));
}

}  // namespace brdb
