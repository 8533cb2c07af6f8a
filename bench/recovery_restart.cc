// Recovery benchmark (crash-safe durability PR): build a durable chain
// with periodic state checkpoints, then measure cold-restart wall time and
// replayed-blocks/second as a function of the block suffix the restarting
// network must replay — newest checkpoint (short suffix) down to genesis
// (full replay). Emits BENCH_recovery.json.
//
// The acceptance bar: restarting from a checkpoint must be strictly faster
// than genesis replay whenever the suffix is <= 25% of the chain.
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/blockchain_network.h"

using namespace brdb;
namespace fs = std::filesystem;

namespace {

constexpr int kChainPuts = 60;              // ~64 blocks with governance
constexpr size_t kStateCheckpointEvery = 2;  // build-phase cadence
constexpr int kRepetitions = 3;              // keep the best (min wall)

NetworkOptions Options(size_t state_checkpoint_interval) {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kOrderThenExecute;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = 4;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.state_checkpoint_interval = state_checkpoint_interval;
  return opts;
}

Status RegisterPut(BlockchainNetwork* net) {
  return net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
}

std::vector<std::string> NodeStoreDirs(const std::string& dir) {
  return {dir + "/peer-org1.blocks", dir + "/peer-org2.blocks",
          dir + "/peer-org3.blocks"};
}

/// Reset every node's checkpoints/ from its stash, dropping checkpoints
/// above `max_height` (0 = no checkpoints at all: genesis replay).
void PrepareCheckpoints(const std::string& dir, BlockNum max_height) {
  for (const std::string& store : NodeStoreDirs(dir)) {
    fs::remove_all(store + "/checkpoints");
    if (max_height == 0) continue;
    fs::create_directories(store + "/checkpoints");
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(store + "/checkpoints.stash", ec)) {
      if (entry.path().extension() != ".ckpt") continue;
      BlockNum h = std::strtoull(entry.path().stem().c_str(), nullptr, 10);
      if (h > max_height) continue;
      fs::copy_file(entry.path(),
                    store + "/checkpoints/" + entry.path().filename().string());
    }
  }
}

struct RunResult {
  double wall_ms = 0;
  BlockNum restored_height = 0;
  BlockNum replayed = 0;
};

/// One measured cold restart over the prepared directories: open the
/// stores, restore the newest surviving checkpoint (if any), replay the
/// suffix, and wait until every node reaches `target_height`.
RunResult MeasureRestart(const std::string& dir, BlockNum target_height) {
  // A huge write interval keeps the restore path enabled (a writer must
  // exist) while guaranteeing the measured run never rewrites checkpoint
  // files the next scenario depends on.
  NetworkOptions opts = Options(/*state_checkpoint_interval=*/1000000);
  opts.block_store_dir = dir;
  auto t0 = std::chrono::steady_clock::now();
  auto net = BlockchainNetwork::Create(opts);
  if (!RegisterPut(net.get()).ok()) std::abort();
  // Deterministic identity: replayed signatures verify against it.
  (void)net->CreateSession("org1", "alice");
  if (!net->Start().ok()) std::abort();
  if (!net->WaitForHeight(target_height, 120000000).ok()) std::abort();
  auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.restored_height =
      net->node(0)->metrics()->Snapshot().restored_checkpoint_height;
  r.replayed = target_height - r.restored_height;
  net->Stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_recovery.json";
  const unsigned host_cores = std::thread::hardware_concurrency();
  const std::string dir =
      (fs::temp_directory_path() /
       ("brdb_recovery_bench_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  std::printf("recovery bench: building a durable chain (host cores: %u)\n",
              host_cores);
  BlockNum chain = 0;
  {
    NetworkOptions opts = Options(kStateCheckpointEvery);
    opts.block_store_dir = dir;
    auto net = BlockchainNetwork::Create(opts);
    if (!RegisterPut(net.get()).ok() || !net->Start().ok()) return 1;
    if (!net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
             .ok()) {
      return 1;
    }
    Session* alice = net->CreateSession("org1", "alice");
    for (int i = 0; i < kChainPuts; ++i) {
      TxnHandle t = alice->Submit("put", {Value::Int(i), Value::Int(i * 3)});
      if (!t.submit_status().ok() || !t.Wait().ok()) return 1;
    }
    net->WaitIdle();
    chain = net->node(0)->Height();
    if (!net->WaitForHeight(chain, 60000000).ok()) return 1;
    net->Stop();  // drains in-flight checkpoint captures, fsyncs the logs
  }
  for (const std::string& store : NodeStoreDirs(dir)) {
    fs::remove_all(store + "/checkpoints.stash");
    fs::copy(store + "/checkpoints", store + "/checkpoints.stash",
             fs::copy_options::recursive);
  }
  std::printf("chain: %llu blocks, checkpoints every %zu\n",
              static_cast<unsigned long long>(chain), kStateCheckpointEvery);

  struct Scenario {
    const char* name;
    double suffix_frac;  // fraction of the chain to replay (1.0 = genesis)
  };
  const Scenario scenarios[] = {
      {"suffix_10pct", 0.10}, {"suffix_25pct", 0.25}, {"suffix_50pct", 0.50},
      {"suffix_75pct", 0.75}, {"genesis", 1.0},
  };

  struct Row {
    std::string name;
    double suffix_frac;
    RunResult best;
  };
  std::vector<Row> rows;
  std::printf("%-14s %-16s %-10s %-10s %-12s\n", "scenario", "restored_at",
              "replayed", "wall_ms", "blocks/s");
  for (const Scenario& s : scenarios) {
    BlockNum target =
        s.suffix_frac >= 1.0
            ? 0
            : chain - static_cast<BlockNum>(s.suffix_frac * chain);
    PrepareCheckpoints(dir, target);
    RunResult best;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      RunResult r = MeasureRestart(dir, chain);
      if (rep == 0 || r.wall_ms < best.wall_ms) best = r;
    }
    double bps = best.replayed / (best.wall_ms / 1000.0);
    std::printf("%-14s %-16llu %-10llu %-10.1f %-12.1f\n", s.name,
                static_cast<unsigned long long>(best.restored_height),
                static_cast<unsigned long long>(best.replayed), best.wall_ms,
                bps);
    std::fflush(stdout);
    rows.push_back({s.name, s.suffix_frac, best});
  }
  fs::remove_all(dir);

  auto wall_of = [&](const char* name) -> double {
    for (const Row& r : rows) {
      if (r.name == name) return r.best.wall_ms;
    }
    return 0;
  };
  const double genesis_ms = wall_of("genesis");
  const double at25_ms = wall_of("suffix_25pct");
  const double at10_ms = wall_of("suffix_10pct");
  const bool faster_at_25 = at25_ms < genesis_ms;
  const bool faster_at_10 = at10_ms < genesis_ms;
  std::printf(
      "checkpointed restart vs genesis replay: 25%% suffix %.1f ms vs %.1f "
      "ms (%s), 10%% suffix %.1f ms (%s)\n",
      at25_ms, genesis_ms, faster_at_25 ? "faster" : "NOT FASTER", at10_ms,
      faster_at_10 ? "faster" : "NOT FASTER");

  FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f,
               "  \"workload\": {\"chain_blocks\": %llu, "
               "\"state_checkpoint_every\": %zu, \"fsync_policy\": "
               "\"always\", \"repetitions\": %d},\n",
               static_cast<unsigned long long>(chain), kStateCheckpointEvery,
               kRepetitions);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"suffix_frac\": %.2f, "
                 "\"restored_height\": %llu, \"blocks_replayed\": %llu, "
                 "\"recovery_wall_ms\": %.1f, \"blocks_per_sec\": %.1f}%s\n",
                 r.name.c_str(), r.suffix_frac,
                 static_cast<unsigned long long>(r.best.restored_height),
                 static_cast<unsigned long long>(r.best.replayed),
                 r.best.wall_ms,
                 r.best.replayed / (r.best.wall_ms / 1000.0),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"genesis_replay_ms\": %.1f,\n", genesis_ms);
  std::fprintf(f, "  \"checkpoint_faster_at_25pct_suffix\": %s,\n",
               faster_at_25 ? "true" : "false");
  std::fprintf(f, "  \"checkpoint_faster_at_10pct_suffix\": %s\n}\n",
               faster_at_10 ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return faster_at_25 && faster_at_10 ? 0 : 1;
}
