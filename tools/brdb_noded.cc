// brdb_noded: hosts one database node or the ordering service as its own
// OS process. scripts/run_cluster.sh launches five of these (4 nodes + 1
// orderer) into a loopback TCP cluster.
//
// Port discovery: every process binds port 0 (unless --port is given),
// writes "<name> <port>" to --port-file, and then polls --peers-file for
// the full address list the launcher assembles from everyone's port file.
//
//   brdb_noded --role=orderer --orgs=org1,org2,org3,org4
//       --port-file=/tmp/c/orderer.port
//   brdb_noded --role=node --index=0 --orgs=org1,org2,org3,org4
//       --flow=ote --port-file=/tmp/c/node0.port --peers-file=/tmp/c/peers
//
// The orderer is a SoloOrderer and waits for one node per org. An unknown
// flag, a --flow other than ote|eop, or an integer flag that does not
// parse exits 2 before anything binds a port.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "contracts/workload_contracts.h"
#include "network/chaos.h"
#include "network/cluster.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

constexpr const char* kUsage =
    "usage: brdb_noded --role=node|orderer [--orgs=a,b,...] [--port=N]\n"
    "  [--port-file=PATH] [--clients-per-org=N]\n"
    "  orderer: [--block-size=N] [--block-timeout-us=N]"
    " [--peer-wait-timeout-us=N]\n"
    "  node:    [--index=N] [--flow=ote|eop] [--peers-file=PATH]"
    " [--peers-wait-timeout-us=N]\n"
    "           [--executor-threads=N] [--pipeline-depth=N]"
    " [--block-store=DIR]\n"
    "           [--chaos-schedule=S|@FILE] [--chaos-seed=N]\n";

/// Every accepted flag; the integer ones must parse in full.
struct FlagSpec {
  const char* name;
  bool integer;
};
constexpr FlagSpec kFlags[] = {
    {"role", false},
    {"orgs", false},
    {"clients-per-org", true},
    {"port", true},
    {"port-file", false},
    // orderer
    {"block-size", true},
    {"block-timeout-us", true},
    {"peer-wait-timeout-us", true},
    // node
    {"index", true},
    {"flow", false},
    {"peers-file", false},
    {"peers-wait-timeout-us", true},
    {"executor-threads", true},
    {"pipeline-depth", true},
    {"block-store", false},
    {"chaos-schedule", false},
    {"chaos-seed", true},
};

[[noreturn]] void UsageError(const std::string& what) {
  std::fprintf(stderr, "brdb_noded: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

bool IsInteger(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  (void)std::strtol(text.c_str(), &end, 10);
  return !text.empty() && errno == 0 && *end == '\0';
}

struct Args {
  std::map<std::string, std::string> kv;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  /// Only called for flags ParseArgs already checked to be integers.
  long GetInt(const std::string& key, long def) const {
    auto it = kv.find(key);
    return it == kv.end() ? def : std::strtol(it->second.c_str(), nullptr, 10);
  }
};

/// Parse and validate the whole command line; exits 2 with the usage text
/// on the first argument it cannot accept.
Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) UsageError("unexpected argument " + arg);
    size_t eq = arg.find('=');
    std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (key == f.name) spec = &f;
    }
    if (spec == nullptr) UsageError("unknown flag --" + key);
    if (spec->integer && !IsInteger(value)) {
      UsageError("--" + key + " needs an integer, got '" + value + "'");
    }
    args.kv[key] = value;
  }
  std::string role = args.Get("role", "node");
  if (role != "node" && role != "orderer") {
    UsageError("unknown --role=" + role + " (node|orderer)");
  }
  std::string flow = args.Get("flow", "ote");
  if (flow != "ote" && flow != "eop") {
    UsageError("unknown --flow=" + flow + " (ote|eop)");
  }
  return args;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void WritePortFile(const std::string& path, const std::string& name,
                   uint16_t port) {
  if (path.empty()) return;
  // Write-then-rename so the launcher never reads a half-written file.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << name << " " << port << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

struct PeerLine {
  std::string name;
  uint16_t port = 0;
};

/// Poll `path` until it lists at least `expected` entries (or timeout).
std::vector<PeerLine> WaitPeersFile(const std::string& path, size_t expected,
                                    brdb::Micros timeout_us) {
  const auto& clock = brdb::RealClock::Shared();
  brdb::Micros deadline = clock->NowMicros() + timeout_us;
  while (clock->NowMicros() < deadline && !g_stop) {
    std::ifstream in(path);
    std::vector<PeerLine> lines;
    std::string name;
    long port;
    while (in >> name >> port) {
      lines.push_back(PeerLine{name, static_cast<uint16_t>(port)});
    }
    if (lines.size() >= expected) return lines;
    clock->SleepMicros(50'000);
  }
  return {};
}

/// Node-side chaos arming. The schedule comes from --chaos-schedule= (or
/// the BRDB_CHAOS_SCHEDULE environment variable run_cluster.sh exports):
/// inline text with ';' as the line separator, or "@<path>" to read a
/// file. A node process can only act on events that name itself — it arms
/// just the byzantine windows matching its own name and leaves network
/// faults (partitions, kills, resets) to harnesses that own a transport
/// or injector. Seed comes from --chaos-seed= / BRDB_CHAOS_SEED for
/// symmetry with those harnesses (unused here: byzantine arming is not
/// probabilistic). Returns nullptr when no schedule is configured; exits
/// on a malformed one — a typo'd fault script must not silently become a
/// fault-free run.
std::unique_ptr<brdb::ChaosRunner> MaybeStartChaos(const Args& args,
                                                   brdb::DatabaseNode* node) {
  std::string sched = args.Get("chaos-schedule");
  if (sched.empty()) {
    const char* env = std::getenv("BRDB_CHAOS_SCHEDULE");
    if (env != nullptr) sched = env;
  }
  if (sched.empty()) return nullptr;

  // "@<path>" loads a file — but inline schedule lines ALSO start with
  // '@' ("@500ms kill ..."), so only a value with no whitespace and no
  // ';' can be a file reference.
  std::string text;
  bool is_file = sched[0] == '@' &&
                 sched.find(' ') == std::string::npos &&
                 sched.find(';') == std::string::npos;
  if (is_file) {
    std::ifstream in(sched.substr(1));
    if (!in) {
      std::fprintf(stderr, "cannot read chaos schedule file %s\n",
                   sched.c_str() + 1);
      std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    text = sched;
    std::replace(text.begin(), text.end(), ';', '\n');
  }
  auto parsed = brdb::ChaosSchedule::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad chaos schedule: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  if (parsed.value().events.empty()) {
    std::fprintf(stderr, "chaos schedule is empty\n");
    std::exit(2);
  }

  brdb::ChaosTargets targets;
  std::string self = node->name();
  targets.set_byzantine = [node, self](const std::string& target,
                                       const brdb::ByzantinePolicy& policy) {
    if (self.find(target) != std::string::npos) {
      std::fprintf(stderr, "brdb_noded %s: byzantine policy -> %s\n",
                   self.c_str(),
                   policy.any() ? policy.ToString().c_str() : "honest");
      node->SetByzantinePolicy(policy);
    }
  };
  auto runner = std::make_unique<brdb::ChaosRunner>(std::move(parsed).value(),
                                                    std::move(targets));
  runner->Start();
  std::fprintf(stderr, "brdb_noded %s: chaos schedule armed (seed %ld)\n",
               self.c_str(),
               args.GetInt("chaos-seed",
                           std::getenv("BRDB_CHAOS_SEED") != nullptr
                               ? std::strtol(std::getenv("BRDB_CHAOS_SEED"),
                                             nullptr, 10)
                               : 42));
  return runner;
}

int RunOrderer(const Args& args, const brdb::ClusterLayout& layout) {
  brdb::OrdererProcessOptions opts;
  opts.layout = layout;
  opts.listen_port = static_cast<uint16_t>(args.GetInt("port", 0));
  opts.peer_wait_timeout_us = args.GetInt("peer-wait-timeout-us", 15'000'000);
  opts.config.block_size = static_cast<size_t>(args.GetInt("block-size", 100));
  opts.config.block_timeout_us = args.GetInt("block-timeout-us", 100'000);

  brdb::OrdererProcess orderer(opts);
  brdb::Status st = orderer.StartServer();
  if (!st.ok()) {
    std::fprintf(stderr, "orderer start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  WritePortFile(args.Get("port-file"), "orderer-1", orderer.port());
  std::fprintf(stderr, "brdb_noded orderer-1 listening on %u\n",
               orderer.port());
  st = orderer.WaitPeersAndStartOrdering();
  if (!st.ok()) {
    std::fprintf(stderr, "ordering start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "brdb_noded orderer-1 ordering started at height %llu\n",
               static_cast<unsigned long long>(orderer.ordering()->Height()));
  while (!g_stop) brdb::RealClock::Shared()->SleepMicros(50'000);
  orderer.Stop();
  return 0;
}

int RunNode(const Args& args, const brdb::ClusterLayout& layout) {
  brdb::NodeProcessOptions opts;
  opts.layout = layout;
  opts.node_index = static_cast<size_t>(args.GetInt("index", 0));
  if (opts.node_index >= layout.orgs.size()) {
    std::fprintf(stderr, "--index out of range\n");
    return 1;
  }
  opts.node.flow = args.Get("flow", "ote") == "eop"
                  ? brdb::TransactionFlow::kExecuteOrderParallel
                  : brdb::TransactionFlow::kOrderThenExecute;
  opts.listen_port = static_cast<uint16_t>(args.GetInt("port", 0));
  opts.node.executor_threads =
      static_cast<size_t>(args.GetInt("executor-threads", 8));
  opts.node.pipeline_depth =
      static_cast<size_t>(args.GetInt("pipeline-depth", 0));
  opts.node.block_store_path = args.Get("block-store");

  brdb::NodeProcess node(opts);
  brdb::Status st = node.StartServer();
  if (!st.ok()) {
    std::fprintf(stderr, "node start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Identical workload contract set in every process — the determinism
  // invariant starts at registration.
  st = brdb::RegisterWorkloadContracts(node.node()->contracts());
  if (!st.ok()) {
    std::fprintf(stderr, "contract registration failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  WritePortFile(args.Get("port-file"), node.name(), node.port());
  std::fprintf(stderr, "brdb_noded %s listening on %u\n", node.name().c_str(),
               node.port());

  // Everyone's addresses (orderer + all nodes, this one included).
  std::vector<PeerLine> peers = WaitPeersFile(
      args.Get("peers-file"), layout.orgs.size() + 1,
      args.GetInt("peers-wait-timeout-us", 30'000'000));
  if (peers.empty()) {
    std::fprintf(stderr, "timed out waiting for %s\n",
                 args.Get("peers-file").c_str());
    return 1;
  }
  uint16_t orderer_port = 0;
  std::vector<brdb::TcpPeerAddress> peer_nodes;
  for (const PeerLine& line : peers) {
    if (line.name.rfind("orderer-", 0) == 0) {
      orderer_port = line.port;
    } else if (line.name != node.name()) {
      peer_nodes.push_back(brdb::TcpPeerAddress{line.name, "127.0.0.1",
                                                line.port});
    }
  }
  if (orderer_port == 0) {
    std::fprintf(stderr, "no orderer in peers file\n");
    return 1;
  }
  st = node.ConnectAndStart("127.0.0.1", orderer_port, std::move(peer_nodes));
  if (!st.ok()) {
    std::fprintf(stderr, "node connect failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::unique_ptr<brdb::ChaosRunner> chaos = MaybeStartChaos(args, node.node());
  while (!g_stop) brdb::RealClock::Shared()->SleepMicros(50'000);
  if (chaos) chaos->Stop();
  node.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  Args args = ParseArgs(argc, argv);

  brdb::ClusterLayout layout;
  std::string orgs = args.Get("orgs");
  if (!orgs.empty()) layout.orgs = SplitCsv(orgs);
  layout.clients_per_org =
      static_cast<size_t>(args.GetInt("clients-per-org", 16));

  if (args.Get("role", "node") == "orderer") return RunOrderer(args, layout);
  return RunNode(args, layout);
}
