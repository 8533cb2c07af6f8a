// Multi-process cluster runtime (network/cluster.h) over in-process
// loopback TCP sockets — the same NodeProcess/OrdererProcess objects
// brdb_noded wraps, several per test binary:
//   * determinism: the same workload over TcpTransport and over
//     InProcessTransport produces byte-identical per-node decisions and
//     per-block write-set hashes;
//   * failover: killing one node mid-workload leaves the rest live, the
//     Session retries submits to healthy peers, and the PeerSelector
//     cooldown expires without wedging anything;
//   * restart: a whole-cluster shutdown over durable stores catches the
//     orderer up from the longest peer chain (§3.6) before it cuts again.
#include "network/cluster.h"

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "contracts/workload_contracts.h"
#include "core/blockchain_network.h"
#include "network/chaos.h"

namespace brdb {
namespace {

struct ClusterConfig {
  TransactionFlow flow = TransactionFlow::kOrderThenExecute;
  size_t block_size = 8;
  Micros block_timeout_us = 150'000;
  std::string block_store_dir;  ///< "" = in-memory stores
};

/// An in-process socket cluster: one OrdererProcess + one NodeProcess per
/// org, each listening on an ephemeral loopback port — exactly what
/// scripts/run_cluster.sh runs as five OS processes.
class SocketCluster {
 public:
  explicit SocketCluster(ClusterConfig config) : config_(std::move(config)) {}

  ~SocketCluster() { Stop(); }

  Status Start() {
    OrdererProcessOptions oopts;
    oopts.layout = layout_;
    oopts.config.block_size = config_.block_size;
    oopts.config.block_timeout_us = config_.block_timeout_us;
    orderer_ = std::make_unique<OrdererProcess>(oopts);
    BRDB_RETURN_NOT_OK(orderer_->StartServer());

    for (size_t i = 0; i < layout_.orgs.size(); ++i) {
      NodeProcessOptions nopts;
      nopts.layout = layout_;
      nopts.node_index = i;
      nopts.node.flow = config_.flow;
      if (!config_.block_store_dir.empty()) {
        nopts.node.block_store_path =
            config_.block_store_dir + "/peer-" + layout_.orgs[i];
      }
      auto node = std::make_unique<NodeProcess>(std::move(nopts));
      BRDB_RETURN_NOT_OK(node->StartServer());
      BRDB_RETURN_NOT_OK(RegisterWorkloadContracts(node->node()->contracts()));
      nodes_.push_back(std::move(node));
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      std::vector<TcpPeerAddress> others;
      for (size_t j = 0; j < nodes_.size(); ++j) {
        if (j == i) continue;
        others.push_back(TcpPeerAddress{nodes_[j]->name(), "127.0.0.1",
                                        nodes_[j]->port()});
      }
      BRDB_RETURN_NOT_OK(nodes_[i]->ConnectAndStart(
          "127.0.0.1", orderer_->port(), std::move(others)));
    }
    return orderer_->WaitPeersAndStartOrdering();
  }

  void Stop() {
    for (auto& node : nodes_) {
      if (node) node->Stop();
    }
    if (orderer_) orderer_->Stop();
  }

  /// Kill one node the way `kill -9` kills a brdb_noded process: its
  /// server, clients and node all go away at once.
  void KillNode(size_t i) {
    nodes_[i]->Stop();
    nodes_[i].reset();
  }

  std::shared_ptr<TcpTransport> MakeTransport(
      const Identity& as, Micros cooldown_us = 1'000'000,
      NetworkFaultInjector* injector = nullptr) {
    TcpTransportOptions topts;
    topts.client_name = as.name;
    topts.client_keys = as.keys;
    topts.registry = BuildClusterIdentities(layout_).registry;
    topts.flow = config_.flow;
    topts.cooldown_us = cooldown_us;
    topts.fault_injector = injector;
    for (auto& node : nodes_) {
      topts.peers.push_back(
          TcpPeerAddress{node->name(), "127.0.0.1", node->port()});
    }
    auto transport = std::make_shared<TcpTransport>(std::move(topts));
    if (!transport->Start().ok()) return nullptr;
    return transport;
  }

  const ClusterLayout& layout() const { return layout_; }
  NodeProcess* node(size_t i) { return nodes_[i].get(); }
  size_t num_nodes() const { return nodes_.size(); }
  OrdererProcess* orderer() { return orderer_.get(); }

 private:
  ClusterConfig config_;
  ClusterLayout layout_;  // default: org1..org4, 1 orderer
  std::unique_ptr<OrdererProcess> orderer_;
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
};

/// Everything the determinism comparison captures from one run.
struct RunFingerprint {
  BlockNum height = 0;
  /// node name → per-block write-set hashes 1..height.
  std::map<std::string, std::vector<std::string>> block_hashes;
  /// txid → node name → decided status code.
  std::map<std::string, std::map<std::string, StatusCode>> decisions;
};

void CaptureNode(DatabaseNode* node, RunFingerprint* fp) {
  BlockNum height = node->block_store()->Height();
  if (fp->height == 0) fp->height = height;
  EXPECT_EQ(fp->height, height) << node->name();
  auto& hashes = fp->block_hashes[node->name()];
  for (BlockNum b = 1; b <= height; ++b) {
    hashes.push_back(node->checkpoints()->LocalHash(b));
  }
}

void RecordDecisions(const std::vector<TxnHandle>& handles,
                     RunFingerprint* fp) {
  for (const TxnHandle& h : handles) {
    for (const auto& [node, st] : h.NodeStatuses()) {
      fp->decisions[h.txid()][node] = st.code();
    }
  }
}

/// The workload both transports run: deploy the kv table through the full
/// governance flow, then submit `batches` x `block_size` simple-contract
/// invocations with an all-nodes barrier between batches (so block
/// boundaries do not depend on transport timing).
Status RunWorkload(const std::vector<Session*>& admins, Session* client,
                   size_t batches, size_t batch_size,
                   std::vector<TxnHandle>* handles) {
  BRDB_RETURN_NOT_OK(DeployContractOverSessions(
      admins, "CREATE TABLE kv (k INT PRIMARY KEY, payload TEXT)",
      /*step_timeout_us=*/10'000'000));
  int key = 0;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<Invocation> batch;
    for (size_t i = 0; i < batch_size; ++i, ++key) {
      batch.push_back(Invocation{
          "simple",
          {Value::Int(key), Value::Text("p" + std::to_string(key))}});
    }
    std::vector<TxnHandle> hs = client->SubmitBatch(std::move(batch));
    for (TxnHandle& h : hs) {
      BRDB_RETURN_NOT_OK(h.submit_status());
      BRDB_RETURN_NOT_OK(h.WaitAllNodes(10'000'000));
      handles->push_back(h);
    }
  }
  return Status::OK();
}

TEST(TcpClusterTest, DeterminismMatchesInProcessTransport) {
  constexpr size_t kBatches = 3;
  constexpr size_t kBatchSize = 8;

  // ---- run 1: four NodeProcesses + OrdererProcess over loopback TCP ----
  RunFingerprint tcp_fp;
  {
    SocketCluster cluster(ClusterConfig{});
    ASSERT_TRUE(cluster.Start().ok());
    ClusterIdentities ids = BuildClusterIdentities(cluster.layout());
    auto transport =
        cluster.MakeTransport(ids.clients[0]);  // client1-org1 channel
    ASSERT_NE(nullptr, transport);
    ASSERT_TRUE(transport->WaitReady(10'000'000));

    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<Session*> admins;
    for (const Identity& admin : ids.admins) {
      sessions.push_back(std::make_unique<Session>(admin, transport));
      admins.push_back(sessions.back().get());
    }
    auto client = std::make_unique<Session>(ids.clients[0], transport);

    std::vector<TxnHandle> handles;
    Status run = RunWorkload(admins, client.get(), kBatches, kBatchSize,
                             &handles);
    ASSERT_TRUE(run.ok()) << run.ToString();
    RecordDecisions(handles, &tcp_fp);
    for (size_t i = 0; i < cluster.num_nodes(); ++i) {
      CaptureNode(cluster.node(i)->node(), &tcp_fp);
    }
    client.reset();
    sessions.clear();
    transport.reset();
    cluster.Stop();
  }

  // ---- run 2: the same identities and workload over InProcessTransport --
  RunFingerprint ref_fp;
  {
    NetworkOptions opts;
    opts.orgs = {"org1", "org2", "org3", "org4"};
    opts.flow = TransactionFlow::kOrderThenExecute;
    opts.orderer_type = OrdererType::kSolo;
    opts.num_orderers = 1;
    opts.orderer_config.block_size = ClusterConfig{}.block_size;
    opts.orderer_config.block_timeout_us = ClusterConfig{}.block_timeout_us;
    opts.profile = NetworkProfile::Instant();
    auto net = BlockchainNetwork::Create(opts);
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      ASSERT_TRUE(
          RegisterWorkloadContracts(net->node(i)->contracts()).ok());
    }
    ASSERT_TRUE(net->Start().ok());

    // Same client identity as the TCP run (Identity::Create is
    // deterministic, so the signatures and txids line up exactly).
    std::vector<Session*> admins;
    for (const std::string& org : opts.orgs) {
      admins.push_back(net->AdminOf(org));
    }
    Session* client =
        net->CreateSession("org1", ClusterClientName("org1", 0));

    std::vector<TxnHandle> handles;
    Status run = RunWorkload(admins, client, kBatches, kBatchSize, &handles);
    ASSERT_TRUE(run.ok()) << run.ToString();
    RecordDecisions(handles, &ref_fp);
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      CaptureNode(net->node(i), &ref_fp);
    }
    net->Stop();
  }

  // ---- byte-identical across transports ----
  ASSERT_GT(tcp_fp.height, 0u);
  EXPECT_EQ(ref_fp.height, tcp_fp.height);
  ASSERT_EQ(ref_fp.block_hashes.size(), tcp_fp.block_hashes.size());
  for (const auto& [node, hashes] : ref_fp.block_hashes) {
    auto it = tcp_fp.block_hashes.find(node);
    ASSERT_NE(tcp_fp.block_hashes.end(), it) << node;
    EXPECT_EQ(hashes, it->second) << "write-set hash divergence on " << node;
  }
  ASSERT_EQ(ref_fp.decisions.size(), tcp_fp.decisions.size());
  for (const auto& [txid, by_node] : ref_fp.decisions) {
    auto it = tcp_fp.decisions.find(txid);
    ASSERT_NE(tcp_fp.decisions.end(), it) << txid;
    EXPECT_EQ(by_node, it->second) << "decision divergence for " << txid;
  }
}

TEST(TcpClusterTest, NodeFailureSessionFailoverAndCooldown) {
  ClusterConfig config;
  config.block_size = 1;  // every tx decides immediately
  config.block_timeout_us = 50'000;
  SocketCluster cluster(config);
  ASSERT_TRUE(cluster.Start().ok());
  ClusterIdentities ids = BuildClusterIdentities(cluster.layout());

  constexpr Micros kCooldownUs = 300'000;
  auto transport = cluster.MakeTransport(ids.clients[0], kCooldownUs);
  ASSERT_NE(nullptr, transport);
  ASSERT_TRUE(transport->WaitReady(10'000'000));

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<Session*> admins;
  for (const Identity& admin : ids.admins) {
    sessions.push_back(std::make_unique<Session>(admin, transport));
    admins.push_back(sessions.back().get());
  }
  Session client(ids.clients[0], transport);
  ASSERT_TRUE(DeployContractOverSessions(
                  admins, "CREATE TABLE kv (k INT PRIMARY KEY, payload TEXT)")
                  .ok());

  int key = 0;
  auto submit_one = [&]() -> Status {
    TxnHandle h = client.Submit(
        "simple", {Value::Int(key), Value::Text("v" + std::to_string(key))});
    ++key;
    if (!h.submit_status().ok()) return h.submit_status();
    return h.Wait(20'000'000);  // majority: 3 of 4 nodes is enough
  };

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(submit_one().ok()) << "warmup tx " << i;
  }

  // kill -9 equivalent: one node process disappears mid-workload.
  cluster.KillNode(3);

  // Every subsequent submit must still reach the orderer via a healthy
  // peer: a dead-peer pick reports "not sent" and the transport retries.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(submit_one().ok()) << "post-kill tx " << i;
  }

  // Reads round-robin across peers; with one dead they must fail over
  // transparently (more probes than peers so the dead slot comes up).
  for (int i = 0; i < 8; ++i) {
    auto height = transport->Height();
    ASSERT_TRUE(height.ok()) << height.status().ToString();
  }

  // Cooldown expiry: wait out the cooldown so the selector re-offers the
  // dead peer, then keep committing — retry + re-cooldown must be seamless.
  RealClock::Shared()->SleepMicros(kCooldownUs + 100'000);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(submit_one().ok()) << "post-cooldown tx " << i;
  }

  // The three survivors all committed every transaction.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cluster.node(i)->node()->block_store()->Height(),
              cluster.node(0)->node()->block_store()->Height());
  }
}

// A NetworkFaultInjector armed on the transport's FrameClients fires
// connection resets right after a request frame is written. Read-only
// queries are idempotent, so TcpTransport::Query must ride out the reset
// by retrying the SAME call on the next peer — the caller never sees it —
// while the reset connection re-dials under bounded backoff.
TEST(TcpClusterTest, QueryRetriesAcrossInjectedMidRequestResets) {
  ClusterConfig config;
  config.block_size = 1;
  config.block_timeout_us = 50'000;
  SocketCluster cluster(config);
  ASSERT_TRUE(cluster.Start().ok());
  ClusterIdentities ids = BuildClusterIdentities(cluster.layout());

  NetworkFaultInjector inj;
  constexpr Micros kCooldownUs = 100'000;
  auto transport = cluster.MakeTransport(ids.clients[0], kCooldownUs, &inj);
  ASSERT_NE(nullptr, transport);
  ASSERT_TRUE(transport->WaitReady(10'000'000));

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<Session*> admins;
  for (const Identity& admin : ids.admins) {
    sessions.push_back(std::make_unique<Session>(admin, transport));
    admins.push_back(sessions.back().get());
  }
  Session client(ids.clients[0], transport);
  ASSERT_TRUE(DeployContractOverSessions(
                  admins, "CREATE TABLE kv (k INT PRIMARY KEY, payload TEXT)")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    TxnHandle h = client.Submit(
        "simple", {Value::Int(i), Value::Text("v" + std::to_string(i))});
    ASSERT_TRUE(h.submit_status().ok());
    // Every node, not a majority: the round-robin COUNT(*) reads below must
    // not reach a node still one block behind.
    ASSERT_TRUE(h.WaitAllNodes(20'000'000).ok());
  }

  QueryRequest q;
  q.user = ids.clients[0].name;
  q.sql = "SELECT COUNT(*) FROM kv";

  // One reset armed against one peer: round-robin reads WILL pick that
  // peer, eat the reset mid-request, and transparently fail over. More
  // probes than peers guarantees the armed slot comes up.
  inj.ArmConnectionResets(cluster.node(0)->name(), 1);
  for (int i = 0; i < 8; ++i) {
    auto r = transport->Query(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r.value().rows.empty());
    EXPECT_EQ(r.value().rows[0][0].AsInt(), 3);
  }
  EXPECT_EQ(1u, inj.resets_fired());

  // The reset connection reconnects under bounded backoff; once the
  // selector cooldown expires the peer serves reads again — arm another
  // reset and repeat to prove the full cycle is repeatable.
  RealClock::Shared()->SleepMicros(kCooldownUs + 200'000);
  inj.ArmConnectionResets(cluster.node(0)->name(), 1);
  for (int i = 0; i < 8; ++i) {
    auto r = transport->Query(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(2u, inj.resets_fired());
}

TEST(TcpClusterTest, WholeClusterRestartCatchesUpOrderer) {
  auto dir = std::filesystem::temp_directory_path() / "brdb_tcp_cluster_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ClusterConfig config;
  config.block_size = 4;
  config.block_timeout_us = 100'000;
  config.block_store_dir = dir.string();

  BlockNum height_before = 0;
  std::vector<std::string> hashes_before;
  {
    SocketCluster cluster(config);
    ASSERT_TRUE(cluster.Start().ok());
    ClusterIdentities ids = BuildClusterIdentities(cluster.layout());
    auto transport = cluster.MakeTransport(ids.clients[0]);
    ASSERT_NE(nullptr, transport);
    ASSERT_TRUE(transport->WaitReady(10'000'000));
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<Session*> admins;
    for (const Identity& admin : ids.admins) {
      sessions.push_back(std::make_unique<Session>(admin, transport));
      admins.push_back(sessions.back().get());
    }
    auto client = std::make_unique<Session>(ids.clients[0], transport);
    std::vector<TxnHandle> handles;
    ASSERT_TRUE(
        RunWorkload(admins, client.get(), /*batches=*/2, /*batch_size=*/4,
                    &handles)
            .ok());
    height_before = cluster.node(0)->node()->block_store()->Height();
    ASSERT_GT(height_before, 0u);
    for (BlockNum b = 1; b <= height_before; ++b) {
      hashes_before.push_back(
          cluster.node(0)->node()->checkpoints()->LocalHash(b));
    }
    client.reset();
    sessions.clear();
    cluster.Stop();
  }

  // Whole-cluster restart: a fresh orderer process has an EMPTY in-memory
  // chain and must adopt the longest durable peer chain via the reverse
  // kFetchBlocks RPC before cutting anything new.
  {
    SocketCluster cluster(config);
    ASSERT_TRUE(cluster.Start().ok());
    EXPECT_EQ(height_before, cluster.orderer()->ordering()->Height())
        << "orderer did not catch up from the peers' durable chains";
    for (size_t i = 0; i < cluster.num_nodes(); ++i) {
      EXPECT_EQ(height_before,
                cluster.node(i)->node()->block_store()->Height());
    }

    // New work extends the recovered chain instead of colliding at 1.
    ClusterIdentities ids = BuildClusterIdentities(cluster.layout());
    auto transport = cluster.MakeTransport(ids.clients[1]);
    ASSERT_NE(nullptr, transport);
    ASSERT_TRUE(transport->WaitReady(10'000'000));
    auto client = std::make_unique<Session>(ids.clients[1], transport);
    std::vector<TxnHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(client->Submit(
          "simple",
          {Value::Int(1000 + i), Value::Text("post-restart")}));
    }
    for (TxnHandle& h : handles) {
      ASSERT_TRUE(h.submit_status().ok());
      ASSERT_TRUE(h.WaitAllNodes(30'000'000).ok());
    }
    BlockNum height_after = cluster.node(0)->node()->block_store()->Height();
    EXPECT_GT(height_after, height_before);
    // The prefix is untouched: same write-set hashes as before the restart.
    for (BlockNum b = 1; b <= height_before; ++b) {
      EXPECT_EQ(hashes_before[b - 1],
                cluster.node(0)->node()->checkpoints()->LocalHash(b));
    }
    client.reset();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace brdb
