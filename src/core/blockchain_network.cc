#include "core/blockchain_network.h"

#include "common/logging.h"

namespace brdb {

std::unique_ptr<BlockchainNetwork> BlockchainNetwork::Create(
    const NetworkOptions& options) {
  auto net = std::unique_ptr<BlockchainNetwork>(new BlockchainNetwork());
  net->options_ = options;
  net->registry_ = std::make_shared<CertificateRegistry>();
  net->net_ = std::make_unique<SimNetwork>(options.profile);
  if (options.chaos != nullptr) {
    net->net_->SetFaultInjector(options.chaos);
  }

  // Identities: per organization one admin and one peer; orderers are
  // spread round-robin over the organizations.
  std::vector<Identity> admin_ids, peer_ids, orderer_ids;
  for (const std::string& org : options.orgs) {
    admin_ids.push_back(
        Identity::Create(org, "admin-" + org, PrincipalRole::kAdmin));
    peer_ids.push_back(
        Identity::Create(org, "peer-" + org, PrincipalRole::kPeer));
  }
  size_t n_orderers =
      options.num_orderers == 0 ? options.orgs.size() : options.num_orderers;
  for (size_t i = 0; i < n_orderers; ++i) {
    const std::string& org = options.orgs[i % options.orgs.size()];
    orderer_ids.push_back(Identity::Create(
        org, "orderer-" + std::to_string(i + 1), PrincipalRole::kOrderer));
  }
  auto register_identity = [&](const Identity& id) {
    net->registry_->Register(id.name, id.organization, id.role,
                             id.keys.public_key);
  };
  for (const auto& id : admin_ids) register_identity(id);
  for (const auto& id : peer_ids) register_identity(id);
  for (const auto& id : orderer_ids) register_identity(id);

  // Ordering service.
  switch (options.orderer_type) {
    case OrdererType::kSolo:
      net->ordering_ = std::make_unique<SoloOrderer>(
          options.orderer_config, net->net_.get(), orderer_ids[0]);
      break;
    case OrdererType::kKafka:
      net->ordering_ = std::make_unique<KafkaOrderingService>(
          options.orderer_config, net->net_.get(), orderer_ids);
      break;
  }

  // Database nodes, one per organization.
  for (size_t i = 0; i < options.orgs.size(); ++i) {
    NodeConfig cfg = options.node;
    cfg.name = "peer-" + options.orgs[i];
    cfg.org = options.orgs[i];
    cfg.flow = options.flow;
    cfg.block_store_path =
        options.block_store_dir.empty()
            ? ""
            : options.block_store_dir + "/" + cfg.name + ".blocks";
    auto byz = options.byzantine_policies.find(i);
    cfg.byzantine = byz != options.byzantine_policies.end()
                        ? byz->second
                        : ByzantinePolicy();
    cfg.fault_injector = options.fault_injector_node == cfg.name
                             ? options.fault_injector
                             : nullptr;
    cfg.chaos = options.chaos;
    auto node = std::make_unique<DatabaseNode>(cfg, peer_ids[i],
                                               net->registry_,
                                               net->net_.get(),
                                               net->ordering_.get());
    net->nodes_.push_back(std::move(node));
  }

  // Peer endpoint wiring (EOP forwarding) and block delivery.
  std::vector<std::string> endpoints;
  for (const auto& node : net->nodes_) endpoints.push_back(node->endpoint());
  for (size_t i = 0; i < net->nodes_.size(); ++i) {
    std::vector<std::string> others;
    for (size_t j = 0; j < endpoints.size(); ++j) {
      if (j != i) others.push_back(endpoints[j]);
    }
    net->nodes_[i]->SetPeerEndpoints(std::move(others));
    net->ordering_->ConnectPeer(endpoints[i]);
  }

  // §3.7 bootstrap: every node records every identity in its pgcerts.
  for (const auto& node : net->nodes_) {
    for (const auto& id : admin_ids) (void)node->SeedCertificate(id);
    for (const auto& id : peer_ids) (void)node->SeedCertificate(id);
    for (const auto& id : orderer_ids) (void)node->SeedCertificate(id);
  }

  // One shared transport for every session on this network.
  std::vector<DatabaseNode*> node_ptrs;
  for (const auto& node : net->nodes_) node_ptrs.push_back(node.get());
  net->transport_ = std::make_shared<InProcessTransport>(
      net->ordering_.get(), node_ptrs);

  // Admin sessions.
  for (const auto& admin : admin_ids) {
    auto session = std::make_unique<Session>(admin, net->transport_);
    net->admins_[admin.organization] = session.get();
    net->sessions_.push_back(std::move(session));
  }
  return net;
}

BlockchainNetwork::~BlockchainNetwork() { Stop(); }

Status BlockchainNetwork::Start() {
  if (started_) return Status::OK();
  started_ = true;
  // Whole-network restart over durable ledgers: the orderer's in-memory
  // chain is empty, so adopt the longest peer chain before it assembles
  // anything — otherwise its "block 1" would be dropped as a duplicate by
  // every peer that already holds one.
  DatabaseNode* longest = nullptr;
  for (auto& node : nodes_) {
    if (node->block_store()->Height() == 0) continue;
    if (longest == nullptr ||
        node->block_store()->Height() > longest->block_store()->Height()) {
      longest = node.get();
    }
  }
  if (longest != nullptr) {
    Status seeded = ordering_->SeedChain(*longest->block_store());
    if (!seeded.ok()) {
      BRDB_LOG(kError, "network")
          << "orderer chain seeding failed: " << seeded.ToString();
    }
  }
  ordering_->Start();
  for (auto& node : nodes_) BRDB_RETURN_NOT_OK(node->Start());
  return Status::OK();
}

void BlockchainNetwork::Stop() {
  if (!started_) return;
  started_ = false;
  for (auto& node : nodes_) node->Stop();
  ordering_->Stop();
}

Session* BlockchainNetwork::CreateSession(const std::string& org,
                                          const std::string& name,
                                          SessionOptions options) {
  Identity id = Identity::Create(org, name, PrincipalRole::kClient);
  registry_->Register(id.name, id.organization, id.role, id.keys.public_key);
  auto session = std::make_unique<Session>(id, transport_, options);
  Session* ptr = session.get();
  sessions_.push_back(std::move(session));
  return ptr;
}

Session* BlockchainNetwork::AdminOf(const std::string& org) {
  auto it = admins_.find(org);
  return it == admins_.end() ? nullptr : it->second;
}

Status BlockchainNetwork::DeployContract(const std::string& deployment_sql) {
  Session* proposer = AdminOf(options_.orgs[0]);
  if (proposer == nullptr) return Status::Internal("no admin session");

  // Each step waits for a majority commit (byzantine-minority tolerant),
  // then ensures every reachable node processed that block so the next
  // step's snapshot height covers it on whichever node it lands.
  // (Wait() returns a failed submission's status immediately.)
  auto settle = [&](TxnHandle h) -> Status {
    BRDB_RETURN_NOT_OK(h.Wait());
    BlockNum height = h.CommitBlock();
    if (height > 0) (void)WaitForHeight(height, 5000000);
    return Status::OK();
  };

  BRDB_RETURN_NOT_OK(settle(
      proposer->Submit("create_deployTx", {Value::Text(deployment_sql)})));

  // Pinned read: governance must not depend on a round-robin pick landing
  // on a well-behaved peer (a byzantine node may have skipped the commit).
  auto id_r = proposer->QueryOn(0, "SELECT MAX(deploy_id) FROM pgdeploy");
  if (!id_r.ok()) return id_r.status();
  auto scalar = id_r.value().Scalar();
  if (!scalar.ok()) return scalar.status();
  Value deploy_id = scalar.value();

  for (size_t i = 1; i < options_.orgs.size(); ++i) {
    BRDB_RETURN_NOT_OK(settle(
        AdminOf(options_.orgs[i])->Submit("approve_deployTx", {deploy_id})));
  }
  return settle(proposer->Submit("submit_deployTx", {deploy_id}));
}

Status BlockchainNetwork::RegisterNativeContract(const std::string& name,
                                                 NativeContractFn fn) {
  for (auto& node : nodes_) {
    BRDB_RETURN_NOT_OK(node->contracts()->RegisterNative(name, fn));
  }
  return Status::OK();
}

Status BlockchainNetwork::WaitForHeight(BlockNum height, Micros timeout_us) {
  const auto& clock = RealClock::Shared();
  Micros deadline = clock->NowMicros() + timeout_us;
  for (;;) {
    bool all = true;
    for (auto& node : nodes_) {
      if (node->Height() < height) {
        all = false;
        break;
      }
    }
    if (all) return Status::OK();
    if (clock->NowMicros() > deadline) {
      return Status::Unavailable("timeout waiting for height " +
                                 std::to_string(height));
    }
    clock->SleepMicros(1000);
  }
}

void BlockchainNetwork::WaitIdle(Micros settle_us, Micros timeout_us) {
  const auto& clock = RealClock::Shared();
  Micros deadline = clock->NowMicros() + timeout_us;
  uint64_t last_total = 0;
  Micros stable_since = clock->NowMicros();
  for (;;) {
    uint64_t total = 0;
    for (auto& node : nodes_) {
      total += node->metrics()->txns_committed() +
               node->metrics()->txns_aborted();
    }
    Micros now = clock->NowMicros();
    if (total != last_total) {
      last_total = total;
      stable_since = now;
    } else if (now - stable_since >= settle_us) {
      return;
    }
    if (now > deadline) return;
    clock->SleepMicros(5000);
  }
}

}  // namespace brdb
