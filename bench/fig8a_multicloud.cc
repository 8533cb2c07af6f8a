// Figure 8(a): single-cloud (LAN) vs multi-cloud (WAN) deployment for both
// flows with the complex-join contract.
// Paper shape: WAN adds ~100 ms latency but throughput is essentially
// unchanged (blocks are ~100 KB; bandwidth is not the bottleneck).
//
// This port runs the workload over REAL loopback TCP sockets — one
// OrdererProcess plus four NodeProcesses (the exact objects brdb_noded
// wraps, and what scripts/run_cluster.sh runs as five OS processes), with
// a TcpTransport-backed Session as the load generator — alongside the
// simulated LAN and WAN profiles for the paper's deployment contrast.
// Results, including per-request commit-latency percentiles, are written
// to BENCH_fig8a.json (path overridable via a positional argument).
//
// With `--peers-file=<path>` the load generator instead dials a LIVE
// external cluster — the peers file scripts/run_cluster.sh prints on
// stdout — and runs one case against it (transport label "tcp-external").
// `--flow=ote|eop` must match the cluster's flow and `--orgs=` its org
// list (identities are derived, not exchanged, so both sides must agree
// on the layout); the cluster must be fresh, since the bench deploys the
// evaluation schema. Without the flag the in-process loopback cluster
// remains the default ("tcp-loopback").
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "network/cluster.h"

using namespace brdb;
using namespace brdb::bench;

namespace {

constexpr double kRate = 100;     // offered load, tx/s
constexpr int kTotal = 200;       // transactions per case
constexpr size_t kBlockSize = 50;
constexpr Micros kBlockTimeoutUs = 100'000;
static const char* kRegions[] = {"emea", "amer", "apac", "latam"};

struct CaseResult {
  std::string transport;  ///< "tcp-loopback" | "tcp-external" | "sim-*"
  std::string flow;       ///< "OE" | "EOP"
  LoadResult load;
  bool ok = false;
};

// ---------------------------------------------------------------------------
// Simulated-profile cases (the original LAN vs WAN contrast).
// ---------------------------------------------------------------------------

CaseResult RunSimCase(TransactionFlow flow, const char* flow_name,
                      NetworkProfile profile, const char* profile_name,
                      int* key) {
  CaseResult out;
  out.transport = profile_name;
  out.flow = flow_name;
  NetworkOptions opts = BenchOptions(flow, kBlockSize, kBlockTimeoutUs);
  opts.profile = profile;
  auto net = BlockchainNetwork::Create(opts);
  if (!RegisterWorkloadContracts(net.get()).ok() || !net->Start().ok()) {
    return out;
  }
  Session* client = net->CreateSession("org1", "loadgen");
  Session* seeder = net->CreateSession("org1", "seeder");
  if (!DeployWorkloadSchema(net.get(), seeder).ok()) return out;
  int base = *key;
  *key += kTotal;
  out.load = RunLoad(net.get(), client, "complex_join", kRate, kTotal,
                     [&](int i) {
                       return std::vector<Value>{
                           Value::Int(base + i),
                           Value::Text(kRegions[(base + i) % 4])};
                     });
  net->Stop();
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// Real-socket case: in-process loopback cluster over network/cluster.h.
// ---------------------------------------------------------------------------

/// Majority-commit latency tracker over a Transport decision subscription —
/// the socket twin of bench_common.h's LatencyTracker (which hooks
/// BlockchainNetwork nodes directly).
class SocketLatencyTracker {
 public:
  explicit SocketLatencyTracker(size_t peers) : majority_(peers / 2 + 1) {}

  static std::shared_ptr<SocketLatencyTracker> Create(Transport* transport) {
    auto tracker =
        std::make_shared<SocketLatencyTracker>(transport->peer_count());
    tracker->sub_ = transport->Subscribe(
        [tracker](const std::string&, const TxnNotification& n) {
          tracker->OnDecision(n);
        });
    return tracker;
  }

  /// `scheduled_us` is the intended open-loop send instant (coordinated
  /// omission: generator lag is system queueing the percentiles must
  /// include). 0 falls back to now.
  void OnSubmit(const std::string& txid, Micros scheduled_us = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    submit_us_[txid] =
        scheduled_us != 0 ? scheduled_us : RealClock::Shared()->NowMicros();
  }

  LatencyTracker::Stats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    LatencyTracker::Stats s;
    s.committed = committed_;
    s.aborted = aborted_;
    if (committed_ > 0) {
      s.mean_latency_ms = static_cast<double>(latency_us_total_) / 1000.0 /
                          static_cast<double>(committed_);
    }
    std::vector<uint64_t> sorted = latencies_us_;
    std::sort(sorted.begin(), sorted.end());
    s.p50_latency_ms = LatencyTracker::PercentileMs(sorted, 50);
    s.p95_latency_ms = LatencyTracker::PercentileMs(sorted, 95);
    s.p99_latency_ms = LatencyTracker::PercentileMs(sorted, 99);
    return s;
  }

 private:
  void OnDecision(const TxnNotification& n) {
    std::lock_guard<std::mutex> lock(mu_);
    auto sub = submit_us_.find(n.txid);
    if (sub == submit_us_.end()) return;  // deploy/seed traffic
    auto& prog = progress_[n.txid];
    if (n.status.ok()) {
      if (++prog.commits == majority_) {
        ++committed_;
        uint64_t latency_us = static_cast<uint64_t>(
            RealClock::Shared()->NowMicros() - sub->second);
        latency_us_total_ += latency_us;
        latencies_us_.push_back(latency_us);
      }
    } else {
      if (++prog.aborts == majority_) ++aborted_;
    }
  }

  struct Progress {
    size_t commits = 0;
    size_t aborts = 0;
  };

  size_t majority_;
  uint64_t sub_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, Micros> submit_us_;
  std::map<std::string, Progress> progress_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t latency_us_total_ = 0;
  std::vector<uint64_t> latencies_us_;
};

/// One OrdererProcess + one NodeProcess per org on ephemeral loopback
/// ports — the library-level equivalent of scripts/run_cluster.sh.
class SocketCluster {
 public:
  explicit SocketCluster(TransactionFlow flow) : flow_(flow) {}
  ~SocketCluster() { Stop(); }

  Status Start() {
    OrdererProcessOptions oopts;
    oopts.layout = layout_;
    oopts.config.block_size = kBlockSize;
    oopts.config.block_timeout_us = kBlockTimeoutUs;
    orderer_ = std::make_unique<OrdererProcess>(oopts);
    BRDB_RETURN_NOT_OK(orderer_->StartServer());

    for (size_t i = 0; i < layout_.orgs.size(); ++i) {
      NodeProcessOptions nopts;
      nopts.layout = layout_;
      nopts.node_index = i;
      nopts.node.flow = flow_;
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

  std::shared_ptr<TcpTransport> MakeTransport(const Identity& as) {
    TcpTransportOptions topts;
    topts.client_name = as.name;
    topts.client_keys = as.keys;
    topts.registry = BuildClusterIdentities(layout_).registry;
    topts.flow = flow_;
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

 private:
  TransactionFlow flow_;
  ClusterLayout layout_;  // org1..org4, 1 orderer
  std::unique_ptr<OrdererProcess> orderer_;
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
};

/// §3.7 governance deploy of the evaluation schema, then join-table
/// seeding — the socket equivalent of bench_common.h's
/// DeployWorkloadSchema, over Sessions instead of a BlockchainNetwork.
Status DeploySchemaOverSockets(const std::vector<Session*>& admins,
                               Session* seeder, int num_customers = 20,
                               int num_orders = 100) {
  for (const std::string& stmt : WorkloadSchemaStatements()) {
    BRDB_RETURN_NOT_OK(DeployContractOverSessions(admins, stmt));
  }
  std::vector<TxnHandle> handles;
  for (int i = 0; i < num_customers; ++i) {
    handles.push_back(seeder->Submit(
        "seed_customer", {Value::Int(i), Value::Text(kRegions[i % 4])}));
  }
  for (int i = 0; i < num_orders; ++i) {
    handles.push_back(seeder->Submit(
        "seed_order", {Value::Int(i), Value::Int(i % num_customers),
                       Value::Int(10 + i % 90)}));
  }
  for (TxnHandle& h : handles) {
    BRDB_RETURN_NOT_OK(h.submit_status());
    BRDB_RETURN_NOT_OK(h.WaitAllNodes(30'000'000));
  }
  return Status::OK();
}

/// Offered-rate load loop shared by the in-process and external socket
/// cases: paced complex_join submissions, majority-commit latencies from
/// the transport's decision subscription, drain, stats into `out->load`.
void RunLoadOverTransport(Session* client, Transport* transport, int* key,
                          CaseResult* out) {
  auto tracker = SocketLatencyTracker::Create(transport);
  const auto& clock = RealClock::Shared();
  int base = *key;
  *key += kTotal;

  Micros start = clock->NowMicros();
  Micros gap = static_cast<Micros>(1e6 / kRate);
  std::vector<TxnHandle> handles;
  for (int i = 0; i < kTotal; ++i) {
    Micros target = start + static_cast<Micros>(i) * gap;
    Micros now = clock->NowMicros();
    if (target > now) clock->SleepMicros(target - now);
    TxnHandle h = client->Submit(
        "complex_join", {Value::Int(base + i),
                         Value::Text(kRegions[(base + i) % 4])});
    if (h.submit_status().ok()) {
      tracker->OnSubmit(h.txid(), target);
      handles.push_back(std::move(h));
    }
  }
  Micros submit_end = clock->NowMicros();
  // Drain: a majority decision on every submitted transaction. The tracker
  // timestamps commits as notifications arrive, so waiting in submission
  // order does not skew the latency samples.
  for (TxnHandle& h : handles) (void)h.Wait(30'000'000);
  Micros drain_end = clock->NowMicros();

  auto stats = tracker->Snapshot();
  double submit_s = static_cast<double>(submit_end - start) / 1e6;
  double total_s = static_cast<double>(drain_end - start) / 1e6;
  out->load.offered_tps = static_cast<double>(kTotal) / submit_s;
  out->load.committed_tps = static_cast<double>(stats.committed) / total_s;
  out->load.mean_latency_ms = stats.mean_latency_ms;
  out->load.p50_latency_ms = stats.p50_latency_ms;
  out->load.p95_latency_ms = stats.p95_latency_ms;
  out->load.p99_latency_ms = stats.p99_latency_ms;
  out->load.committed = stats.committed;
  out->load.aborted = stats.aborted;
}

CaseResult RunSocketCase(TransactionFlow flow, const char* flow_name,
                         int* key) {
  CaseResult out;
  out.transport = "tcp-loopback";
  out.flow = flow_name;

  SocketCluster cluster(flow);
  if (!cluster.Start().ok()) return out;
  ClusterIdentities ids = BuildClusterIdentities(cluster.layout());
  auto transport = cluster.MakeTransport(ids.clients[0]);
  if (!transport || !transport->WaitReady(10'000'000)) return out;

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<Session*> admins;
  for (const Identity& admin : ids.admins) {
    sessions.push_back(std::make_unique<Session>(admin, transport));
    admins.push_back(sessions.back().get());
  }
  Session client(ids.clients[0], transport);
  if (!DeploySchemaOverSockets(admins, &client).ok()) {
    cluster.Stop();
    return out;
  }

  cluster.node(0)->node()->metrics()->Reset();
  RunLoadOverTransport(&client, transport.get(), key, &out);
  out.load.node0 = cluster.node(0)->node()->metrics()->Snapshot();

  transport.reset();
  sessions.clear();
  cluster.Stop();
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// External-cluster case: dial a live scripts/run_cluster.sh cluster.
// ---------------------------------------------------------------------------

/// Parse a run_cluster.sh peers file ("<name> <port>" per line; the
/// cluster is loopback, so every address is 127.0.0.1). Orderer lines are
/// dropped: the load generator only speaks to the nodes.
std::vector<TcpPeerAddress> ReadPeersFile(const std::string& path) {
  std::ifstream in(path);
  std::vector<TcpPeerAddress> nodes;
  std::string name;
  long port;
  while (in >> name >> port) {
    if (name.rfind("orderer-", 0) == 0) continue;
    nodes.push_back(
        TcpPeerAddress{name, "127.0.0.1", static_cast<uint16_t>(port)});
  }
  return nodes;
}

CaseResult RunExternalCase(TransactionFlow flow, const char* flow_name,
                           const ClusterLayout& layout,
                           std::vector<TcpPeerAddress> peers, int* key) {
  CaseResult out;
  out.transport = "tcp-external";
  out.flow = flow_name;

  // Same derived identity set as the external brdb_noded processes:
  // BuildClusterIdentities is a pure function of the layout, so agreeing
  // on the org list is all it takes to authenticate.
  ClusterIdentities ids = BuildClusterIdentities(layout);
  TcpTransportOptions topts;
  topts.client_name = ids.clients[0].name;
  topts.client_keys = ids.clients[0].keys;
  topts.registry = ids.registry;
  topts.flow = flow;
  topts.peers = std::move(peers);
  auto transport = std::make_shared<TcpTransport>(std::move(topts));
  if (!transport->Start().ok() || !transport->WaitReady(10'000'000)) {
    std::fprintf(stderr, "cannot reach the external cluster\n");
    return out;
  }

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<Session*> admins;
  for (const Identity& admin : ids.admins) {
    sessions.push_back(std::make_unique<Session>(admin, transport));
    admins.push_back(sessions.back().get());
  }
  Session client(ids.clients[0], transport);
  if (!DeploySchemaOverSockets(admins, &client).ok()) {
    std::fprintf(stderr,
                 "schema deploy failed (is the cluster fresh, and do "
                 "--flow/--orgs match it?)\n");
    return out;
  }

  RunLoadOverTransport(&client, transport.get(), key, &out);
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// JSON report.
// ---------------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<CaseResult>& cases) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"figure\": \"8a\",\n";
  out << "  \"workload\": \"complex_join\",\n";
  out << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"offered_rate_tps\": " << kRate << ",\n";
  out << "  \"transactions_per_case\": " << kTotal << ",\n";
  out << "  \"block_size\": " << kBlockSize << ",\n";
  out << "  \"block_timeout_us\": " << kBlockTimeoutUs << ",\n";
  out << "  \"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"transport\": \"%s\", \"flow\": \"%s\", \"ok\": %s, "
        "\"offered_tps\": %.1f, \"committed_tps\": %.1f, "
        "\"committed\": %" PRIu64 ", \"aborted\": %" PRIu64 ", "
        "\"latency_ms\": {\"mean\": %.2f, \"p50\": %.2f, \"p95\": %.2f, "
        "\"p99\": %.2f}}%s",
        c.transport.c_str(), c.flow.c_str(), c.ok ? "true" : "false",
        c.load.offered_tps, c.load.committed_tps, c.load.committed,
        c.load.aborted, c.load.mean_latency_ms, c.load.p50_latency_ms,
        c.load.p95_latency_ms, c.load.p99_latency_ms,
        i + 1 < cases.size() ? "," : "");
    out << buf << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void PrintCase(const CaseResult& c) {
  std::printf("%-4s %-14s %-10.1f %-10.2f %-10.2f %-10.2f %-10.2f\n",
              c.flow.c_str(), c.transport.c_str(), c.load.committed_tps,
              c.load.mean_latency_ms, c.load.p50_latency_ms,
              c.load.p95_latency_ms, c.load.p99_latency_ms);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fig8a.json";
  std::string peers_file;
  std::string flow_arg = "ote";
  std::string orgs_arg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--peers-file=", 0) == 0) {
      peers_file = a.substr(13);
    } else if (a.rfind("--flow=", 0) == 0) {
      flow_arg = a.substr(7);
    } else if (a.rfind("--orgs=", 0) == 0) {
      orgs_arg = a.substr(7);
    } else {
      json_path = a;
    }
  }
  int key = 3000000;

  if (!peers_file.empty()) {
    ClusterLayout layout;
    if (!orgs_arg.empty()) {
      layout.orgs.clear();
      std::stringstream ss(orgs_arg);
      std::string org;
      while (std::getline(ss, org, ',')) {
        if (!org.empty()) layout.orgs.push_back(org);
      }
    }
    TransactionFlow flow = flow_arg == "eop"
                               ? TransactionFlow::kExecuteOrderParallel
                               : TransactionFlow::kOrderThenExecute;
    const char* flow_name = flow_arg == "eop" ? "EOP" : "OE";
    std::vector<TcpPeerAddress> peers = ReadPeersFile(peers_file);
    if (peers.empty()) {
      std::fprintf(stderr, "no node entries in %s\n", peers_file.c_str());
      return 1;
    }
    std::printf("Figure 8(a): load against external cluster (%zu nodes, "
                "%s)\n",
                peers.size(), flow_name);
    std::printf("%-4s %-14s %-10s %-10s %-10s %-10s %-10s\n", "flow",
                "transport", "tps", "mean_ms", "p50_ms", "p95_ms",
                "p99_ms");
    std::vector<CaseResult> cases;
    cases.push_back(
        RunExternalCase(flow, flow_name, layout, std::move(peers), &key));
    PrintCase(cases.back());
    WriteJson(json_path, cases);
    std::printf("wrote %s\n", json_path.c_str());
    return cases.back().ok ? 0 : 1;
  }

  std::printf("Figure 8(a): loopback TCP vs simulated LAN/WAN deployment\n");
  std::printf("%-4s %-14s %-10s %-10s %-10s %-10s %-10s\n", "flow",
              "transport", "tps", "mean_ms", "p50_ms", "p95_ms", "p99_ms");
  std::vector<CaseResult> cases;
  struct Case {
    TransactionFlow flow;
    const char* name;
  };
  for (const Case& c : {Case{TransactionFlow::kOrderThenExecute, "OE"},
                        Case{TransactionFlow::kExecuteOrderParallel, "EOP"}}) {
    cases.push_back(RunSocketCase(c.flow, c.name, &key));
    PrintCase(cases.back());
    cases.push_back(RunSimCase(c.flow, c.name, NetworkProfile::Lan(),
                               "sim-lan", &key));
    PrintCase(cases.back());
    cases.push_back(RunSimCase(c.flow, c.name, NetworkProfile::Wan(),
                               "sim-wan", &key));
    PrintCase(cases.back());
    const LoadResult& lan = cases[cases.size() - 2].load;
    const LoadResult& wan = cases.back().load;
    std::printf("%-4s WAN latency increase: %.2f ms (paper: ~100 ms)\n",
                c.name, wan.mean_latency_ms - lan.mean_latency_ms);
    std::fflush(stdout);
  }
  WriteJson(json_path, cases);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
