// Figure 8(b) — ordering/execution scalability of the commit path.
//
// The paper's headline claim is that execute-order-in-parallel scales
// transaction execution across executor backends while SSI keeps replicas
// serializable. This bench isolates that claim on the transaction layer:
// N executor threads run the concurrent phase (MVCC reads, SIREAD and
// predicate registration, rw-edge recording, versioned writes) and a
// single coordinator runs the serial block-order commit-validation phase —
// exactly the node's block pipeline without network/ordering noise.
//
// Three axes of the SAME code are compared:
//   single_mutex (stripes=1): every TxnManager structure behind one lock,
//     the design this repo shipped with;
//   striped (default): sharded registry + striped SIREAD/predicate maps;
//   pipeline depth d in {1, 2, 4}: how many blocks may be in flight at
//     once — block B's transactions may execute while blocks B-1..B-d+1
//     are still in the serial commit phase (depth 1 = the legacy fully
//     serial execute-then-commit alternation).
//
// Transactions use the paper's EOP snapshots: block B's transactions read
// at block height B-4 (clients submit against a slightly stale committed
// height while blocks are in flight), which is what makes overlapped
// execution legal — and the block-aware SSI rules are what keep the
// commit/abort decisions BYTE-IDENTICAL across depths: a conflict with an
// earlier in-flight block manifests as a recorded rw edge when execution
// overlapped it, or as a stale/phantom read when it did not; both abort
// (txn/txn_manager.h). `--check-determinism` verifies exactly that and is
// wired into scripts/check.sh.
//
// Workload per transaction: one 32-row indexed range scan (SIREAD per
// visible row, one predicate, the usual rw-edge probes) and one
// read-modify-write update of the first scanned row. Keys are drawn from
// a per-block slice of the 4096-row table (slices rotate with period 8,
// wider than the deepest pipeline, so steady throughput is measurable),
// except every 16th transaction, which hits a shared hot range to keep
// deterministic cross-block conflicts in the mix. Aborts are counted but
// only commits enter the throughput.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "storage/database.h"
#include "txn/txn_context.h"
#ifndef BRDB_SEED_BASELINE
#include "ledger/checkpoint.h"
#endif

using namespace brdb;

namespace {

// 16384 rows over 8 slices keeps a block's 96 transactions sparse enough
// within their 2048-row slice that intra-block rw chains stay short
// (throughput should measure commits, not block-aware pivot aborts).
constexpr int kRows = 16384;
constexpr int kScanWidth = 32;
constexpr int kBlockSize = 96;
constexpr int kBlocks = 40;
constexpr int kSlices = 8;              // key-space rotation period
constexpr int kSliceRows = kRows / kSlices;
constexpr BlockNum kSnapshotLag = 4;    // snapshot height = block - lag
constexpr int kHotEvery = 16;           // 1-in-16 txns hit the hot range
// Best-of-N per configuration: the repetition with the least scheduler
// interference is the honest estimate on a shared box.
constexpr int kRepetitions = 3;

TableSchema AccountsSchema() {
  return TableSchema("accounts",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"balance", ValueType::kInt, false, false, false,
                       false}});
}

struct RunResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  double seconds = 0;
  double tps() const { return committed / (seconds > 0 ? seconds : 1); }
};

/// One executed-but-uncommitted transaction handed to the coordinator.
struct Executed {
  std::unique_ptr<TxnContext> ctx;
  bool exec_ok = false;
};

/// Execute one transaction. Content is a pure function of (block, idx) so
/// the workload is identical across thread counts, stripe counts and
/// pipeline depths.
void ExecuteTxn(Database* db, Table* accounts, BlockNum block, int idx,
                Executed* out) {
  Rng rng(0x8b00 + static_cast<uint64_t>(block) * 1315423911ULL +
          static_cast<uint64_t>(idx));
  BlockNum h = block > kSnapshotLag ? block - kSnapshotLag : 1;
  int64_t lo_key;
  if (idx % kHotEvery == 0) {
    lo_key = 0;  // shared hot range: deterministic cross-block conflicts
  } else {
    int64_t slice = static_cast<int64_t>(block % kSlices);
    lo_key = slice * kSliceRows +
             static_cast<int64_t>(rng.Uniform(kSliceRows - kScanWidth));
  }
  auto ctx = std::make_unique<TxnContext>(
      db, db->txn_manager()->Begin(Snapshot::AtBlockHeight(h)),
      TxnMode::kNormal);
  Value lo = Value::Int(lo_key);
  Value hi = Value::Int(lo_key + kScanWidth - 1);
  RowId target = kInvalidRowId;
  int64_t target_balance = 0, target_key = 0;
  Status st = ctx->ScanRange(accounts, 0, &lo, true, &hi, true,
                             [&](RowId id, const Row& values) {
                               if (target == kInvalidRowId) {
                                 target = id;
                                 target_key = values[0].AsInt();
                                 target_balance = values[1].AsInt();
                               }
                               return true;
                             });
  if (st.ok() && target != kInvalidRowId) {
    st = ctx->Update(accounts, target,
                     {Value::Int(target_key),
                      Value::Int(target_balance + 1)});
  }
  out->exec_ok = st.ok();
  out->ctx = std::move(ctx);
}

/// `signature`, when non-null, accumulates one line per block with the
/// ordered commit/abort decisions and the block's write-set hash — the
/// byte-identical-across-configurations contract `--check-determinism`
/// enforces.
RunResult RunConfig(size_t stripes, size_t threads, size_t depth,
                    std::string* signature = nullptr) {
#ifdef BRDB_SEED_BASELINE
  // Pre-change build (scripts/run_benches.sh compiles this bench against
  // the seed commit to produce the true before numbers): the seed
  // TxnManager has no striping knob — one mutex, period.
  (void)stripes;
  (void)signature;
  Database db;
#else
  Database db{TxnManagerOptions{stripes}};
#endif
  Table* accounts = db.CreateTable(AccountsSchema()).value();
  {
    TxnContext seed(&db,
                    db.txn_manager()->Begin(
                        Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                    TxnMode::kInternal);
    for (int i = 0; i < kRows; ++i) {
      (void)seed.Insert(accounts, {Value::Int(i), Value::Int(1000)});
    }
    (void)seed.CommitInternal(1);
  }

  RunResult result;
  Micros t0 = RealClock::Shared()->NowMicros();

  // Shared pipeline state: workers pull transactions (globally ordered by
  // block) and may run up to `depth` blocks ahead of the serial committer.
  constexpr size_t kTotal = static_cast<size_t>(kBlocks) * kBlockSize;
  std::mutex mu;
  std::condition_variable cv;
  BlockNum committed_block = 1;  // the seed "block"
  std::vector<int> remaining(kBlocks, kBlockSize);
  std::atomic<size_t> next_task{0};
  std::vector<std::vector<Executed>> executed(kBlocks);
  for (auto& v : executed) v.resize(kBlockSize);
  // Snapshots only reach back kSnapshotLag blocks, so deeper windows add
  // no legal overlap.
  const BlockNum overlap =
      static_cast<BlockNum>(std::min<size_t>(depth, kSnapshotLag));

  auto worker = [&] {
    for (;;) {
      size_t t = next_task.fetch_add(1);
      if (t >= kTotal) return;
      size_t bi = t / kBlockSize;
      BlockNum block = static_cast<BlockNum>(bi) + 2;
      BlockNum gate = block > overlap ? block - overlap : 1;
      {
        // Window admission: block B executes once B-depth committed (and
        // with it the B-4 snapshot it reads at). depth 1 = serial.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return committed_block >= gate; });
      }
      ExecuteTxn(&db, accounts, block, static_cast<int>(t % kBlockSize),
                 &executed[bi][t % kBlockSize]);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--remaining[bi] == 0) cv.notify_all();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);

  // Serial phase: block-order commit validation, as the paper requires.
  for (size_t bi = 0; bi < static_cast<size_t>(kBlocks); ++bi) {
    BlockNum block_num = static_cast<BlockNum>(bi) + 2;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return remaining[bi] == 0; });
    }
    std::vector<Executed>& entries = executed[bi];
    std::vector<TxnId> members;
    members.reserve(entries.size());
    for (const Executed& e : entries) members.push_back(e.ctx->id());
#ifndef BRDB_SEED_BASELINE
    std::vector<std::string> write_sets;
    if (signature != nullptr) {
      signature->append("block ");
      signature->append(std::to_string(block_num));
      signature->append(": ");
    }
#endif
    for (size_t pos = 0; pos < entries.size(); ++pos) {
      Executed& e = entries[pos];
      if (!e.exec_ok) {
        e.ctx->Abort(Status::Aborted("execution failed"));
        ++result.aborted;
#ifndef BRDB_SEED_BASELINE
        if (signature != nullptr) signature->push_back('-');
#endif
        continue;
      }
      Status st = e.ctx->CommitSerially(SsiPolicy::kBlockAware, block_num,
                                        static_cast<int>(pos), members);
      if (st.ok()) {
        ++result.committed;
#ifndef BRDB_SEED_BASELINE
        if (signature != nullptr) {
          write_sets.push_back(e.ctx->EncodeWriteSet());
          signature->push_back('+');
        }
#endif
      } else {
        ++result.aborted;
#ifndef BRDB_SEED_BASELINE
        if (signature != nullptr) signature->push_back('-');
#endif
      }
    }
#ifndef BRDB_SEED_BASELINE
    if (signature != nullptr) {
      signature->append(" ws=");
      signature->append(
          CheckpointManager::ComputeWriteSetHash(block_num, write_sets));
      signature->push_back('\n');
    }
#endif
    {
      std::lock_guard<std::mutex> lock(mu);
      committed_block = block_num;
    }
    cv.notify_all();
    db.txn_manager()->GarbageCollect();
  }
  for (auto& t : pool) t.join();

  result.seconds =
      static_cast<double>(RealClock::Shared()->NowMicros() - t0) / 1e6;
  return result;
}

struct Entry {
  std::string mode;
  size_t stripes;
  size_t threads;
  size_t depth;
  RunResult r;
};

/// `scripts/check.sh` gate: the ordered commit/abort decisions AND the
/// per-block write-set hashes must be byte-identical across pipeline
/// depths — pipelining may only change WHEN transactions execute, never
/// what is decided or what state commits.
int CheckDeterminism() {
#ifdef BRDB_SEED_BASELINE
  // Seed tree: no write-set encoding — counts only.
  const std::vector<size_t> depths = {1, 2, 4};
  const size_t threads = 4;
  bool ok = true;
  RunResult base;
  for (size_t i = 0; i < depths.size(); ++i) {
    RunResult r = RunConfig(/*stripes=*/0, threads, depths[i]);
    std::printf("depth %zu: committed %" PRIu64 " aborted %" PRIu64 "\n",
                depths[i], r.committed, r.aborted);
    if (i == 0) {
      base = r;
    } else if (r.committed != base.committed ||
               r.aborted != base.aborted) {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: commit/abort counts diverge across pipeline "
                 "depths\n");
    return 1;
  }
  std::printf("determinism check passed: counts identical across depths "
              "{1, 2, 4}\n");
  return 0;
#else
  const std::vector<size_t> depths = {1, 2, 4};
  const size_t threads = 4;
  bool ok = true;
  std::string base_sig;
  RunResult base;
  for (size_t i = 0; i < depths.size(); ++i) {
    std::string sig;
    RunResult r = RunConfig(/*stripes=*/0, threads, depths[i], &sig);
    std::printf("depth %zu: committed %" PRIu64 " aborted %" PRIu64 "\n",
                depths[i], r.committed, r.aborted);
    if (i == 0) {
      base = r;
      base_sig = sig;
    } else if (sig != base_sig) {
      ok = false;
      std::fprintf(stderr,
                   "FAIL: decision/write-set signature diverges at depth "
                   "%zu (committed %" PRIu64 " vs %" PRIu64 ")\n",
                   depths[i], r.committed, base.committed);
    }
  }
  if (!ok) return 1;
  std::printf(
      "determinism check passed: decisions and per-block write-set hashes "
      "byte-identical across depths {1, 2, 4}\n");
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check-determinism") == 0) {
    return CheckDeterminism();
  }
  const char* json_path = argc > 1 ? argv[1] : "BENCH_fig8b.json";
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf(
      "Figure 8(b): execute-order-in-parallel throughput vs executor "
      "threads (host cores: %u)\n",
      host_cores);
  std::printf("%-18s %-8s %-6s %-10s %-10s %-10s\n", "mode", "threads",
              "depth", "committed", "aborted", "tps");

  std::vector<Entry> entries;
#ifdef BRDB_SEED_BASELINE
  // The seed has neither striping nor a pipeline: one configuration axis.
  for (size_t threads : thread_counts) {
    entries.push_back({"seed_single_mutex", 1, threads, 1, RunResult{}});
  }
#else
  for (size_t threads : thread_counts) {
    entries.push_back({"single_mutex", 1, threads, 1, RunResult{}});
  }
  for (size_t depth : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : thread_counts) {
      entries.push_back({"striped", 0, threads, depth, RunResult{}});
    }
  }
#endif
  // Round-robin the repetitions across configurations so a slow window on
  // a shared machine cannot bias one configuration's whole sample.
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (Entry& e : entries) {
      RunResult r = RunConfig(e.stripes, e.threads, e.depth);
      if (r.tps() > e.r.tps()) e.r = r;
    }
  }
  for (const Entry& e : entries) {
    std::printf("%-18s %-8zu %-6zu %-10" PRIu64 " %-10" PRIu64 " %-10.0f\n",
                e.mode.c_str(), e.threads, e.depth, e.r.committed,
                e.r.aborted, e.r.tps());
  }
  std::fflush(stdout);

  auto tps_of = [&](const std::string& mode, size_t threads,
                    size_t depth) -> double {
    for (const Entry& e : entries) {
      if (e.mode == mode && e.threads == threads && e.depth == depth) {
        return e.r.tps();
      }
    }
    return 0;
  };
  double base4 = tps_of("single_mutex", 4, 1);
  double striped4 = tps_of("striped", 4, 1);
  double piped4 = tps_of("striped", 4, 4);
  double speedup = base4 > 0 ? striped4 / base4 : 0;
  double pipe_speedup = striped4 > 0 ? piped4 / striped4 : 0;
  std::printf("speedup at 4 threads (striped / single_mutex): %.2fx\n",
              speedup);
  std::printf("pipeline speedup at 4 threads (depth 4 / depth 1): %.2fx\n",
              pipe_speedup);

  FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig8b_ordering_scalability\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f,
               "  \"workload\": {\"rows\": %d, \"scan_width\": %d, "
               "\"block_size\": %d, \"blocks\": %d, \"slices\": %d, "
               "\"snapshot_lag\": %d, \"hot_every\": %d},\n",
               kRows, kScanWidth, kBlockSize, kBlocks, kSlices,
               static_cast<int>(kSnapshotLag), kHotEvery);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"stripes\": %zu, \"threads\": "
                 "%zu, \"depth\": %zu, \"committed\": %" PRIu64
                 ", \"aborted\": %" PRIu64 ", \"tps\": %.1f}%s\n",
                 e.mode.c_str(), e.stripes, e.threads, e.depth,
                 e.r.committed, e.r.aborted, e.r.tps(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_at_4_threads\": %.2f,\n", speedup);
  std::fprintf(f, "  \"pipeline_speedup_at_4_threads\": %.2f\n}\n",
               pipe_speedup);
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
