// perfbench: one open-loop benchmark for the whole commit path.
//
// Drives an in-process 3-organization BlockchainNetwork (Kafka orderer, LAN
// SimNetwork profile, file-backed block stores with the default fsync
// policy) through the public Session API, on a fixed arrival schedule:
//
//   oe_ingest  order-then-execute `simple` inserts into kv. Ordering,
//              signature checks, pgledger writes, durable append and the
//              serial commit do the work; contract execution is tiny.
//   eop_join   execute-order-in-parallel `complex_join` over the seeded
//              customers/orders tables: SQL join execution and SSI read
//              tracking dominate while ordering is nearly idle.
//   htap_mix   order-then-execute `seed_order` inserts into orders: the
//              columnar history builder and the reader's vectorized scans
//              read the table the commit path appends to.
//
// Every workload runs the same open-loop reader (fig6 join and fig7
// group-by, 100 queries/s), so every run reports the same end-to-end
// metrics; on oe_ingest and eop_join its results are checked exactly
// against the seeded rows. Write latency runs from each transaction's
// *scheduled* send instant to its majority-commit decision; read latency
// from the scheduled instant to the reply. p50s are over the whole load;
// tails (commit p99 and the per-layer query p90/p99) are the median over
// the load's seconds of each second's percentile. Query tails swing with
// the host's CPU contention (steal bursts move them by up to 70% between
// runs), so only the query median is a bounded end-to-end metric.
// cpu_ms_per_commit is the process CPU time from load start to drain end,
// less the reader threads' own, per committed write. Every knob not named
// in the workload table stays at the program default.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--git-sha <sha>] [--source-sha <sha>]
//   perfbench --smoke [--workdir <dir>]
//
// --trace 0 sets up the network three times (setup_s is the median), runs
// the load once and prints the end-to-end metrics. --trace 1 runs the load
// twice on fresh networks, untraced then traced (an observer endpoint
// connected to the orderer stamps when each block leaves ordering), and
// prints the per-layer metrics plus the tracing overhead. --smoke runs a
// short traced configuration of every workload. After each load phase the
// run checks node heights, checkpoint votes, row counts, append failures
// and row-vs-columnar query parity. Human-readable lines go to
// stdout first; the last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when the run completed (even if a check failed), non-zero
// when it could not run; a watchdog ends the process after 165 s.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "contracts/workload_contracts.h"
#include "core/blockchain_network.h"

namespace {

namespace fs = std::filesystem;
using brdb::BlockchainNetwork;
using brdb::BlockNum;
using brdb::MetricsSnapshot;
using brdb::Session;
using brdb::Status;
using brdb::StatusCode;
using brdb::TransactionFlow;
using brdb::TxnHandle;
using brdb::TxnNotification;
using brdb::Value;
using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

double MsBetween(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- fixed benchmark constants ----

/// Block-cut timer. Every workload's rate and block size cut blocks on
/// size well inside this timer; kMinSizeCutShare flags a run that did not.
constexpr brdb::Micros kBlockTimeoutUs = 100000;
/// A run is invalid when fewer blocks than this share were cut on size
/// (latency would measure the cut timer), or when the write generator ran
/// later than kMaxLagP99Ms at p99 (latency would measure the generator).
constexpr double kMinSizeCutShare = 0.9;
constexpr double kMaxLagP99Ms = 20.0;
/// Traced run: the stage means must sum to the end-to-end mean within
/// max(kTraceSumToleranceMs, kTraceSumToleranceShare * mean).
constexpr double kTraceSumToleranceMs = 0.05;
constexpr double kTraceSumToleranceShare = 0.01;
constexpr int kSeedCustomers = 100;
constexpr int kSeedOrders = 1000;
constexpr int kSmokeSeedOrders = 300;
/// Hard wall-clock budget of one process, below the 180 s a run may take.
constexpr auto kWatchdog = std::chrono::seconds(165);
const char* const kRegions[] = {"emea", "amer", "apac", "latam"};
const char* const kObserverEndpoint = "perfbench-observer";

const std::string kFig6Sql =
    "SELECT COALESCE(SUM(o.amount), 0) FROM orders o "
    "JOIN customers c ON o.cust = c.cust_id WHERE c.region = $1";
const std::string kFig7Sql =
    "SELECT c.region, SUM(o.amount) AS total FROM orders o "
    "JOIN customers c ON o.cust = c.cust_id "
    "WHERE c.cust_id >= $1 AND c.cust_id <= $2 "
    "GROUP BY c.region ORDER BY total DESC, c.region ASC";

// ---- workloads ----

struct Workload {
  const char* name;
  TransactionFlow flow;
  const char* contract;
  size_t block_size;
  double write_tps;
  double read_qps;
  const char* count_table;  ///< rows must equal committed writes (+ seeded)
};

// Rates keep the process near one of a 4-core host's cores: on a shared VM
// the idle cores absorb varying steal time, which otherwise swings latency
// from run to run. Every rate cuts a full block well inside the 100 ms
// timer (oe_ingest: 25 txns per 25 ms, eop_join: 4 per 80 ms, htap_mix: 25
// per 50 ms).
const Workload kWorkloads[] = {
    {"oe_ingest", TransactionFlow::kOrderThenExecute, "simple", 25, 1000.0,
     100.0, "kv"},
    {"eop_join", TransactionFlow::kExecuteOrderParallel, "complex_join", 4,
     50.0, 100.0, "region_totals"},
    {"htap_mix", TransactionFlow::kOrderThenExecute, "seed_order", 25, 500.0,
     100.0, "orders"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* FlowName(TransactionFlow flow) {
  return flow == TransactionFlow::kOrderThenExecute ? "order_then_execute"
                                                    : "execute_order_parallel";
}

// ---- inputs, all derived from --seed ----

struct ReadOp {
  const std::string* sql = nullptr;
  std::vector<Value> params;
  std::string expect;  ///< RenderRows of the exact result ("" = unknown)
};

/// Canonical text of a result's rows, for comparing against expectations.
std::string RenderRows(const std::vector<brdb::Row>& rows) {
  std::string out;
  for (const brdb::Row& row : rows) {
    for (const Value& v : row) out += v.ToString() + ",";
    out += ";";
  }
  return out;
}

struct Inputs {
  std::vector<std::string> customer_region;  ///< index = cust_id
  std::vector<int64_t> order_cust;           ///< index = order_id
  std::vector<int64_t> order_amount;
  std::vector<std::vector<Value>> writes;  ///< one per scheduled write
  std::vector<ReadOp> reads;               ///< one per scheduled read
};

Inputs MakeInputs(const Workload& w, uint64_t seed, int seed_orders,
                  size_t n_writes, size_t n_reads) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](uint64_t n) { return static_cast<int64_t>(rng() % n); };
  Inputs in;
  for (int c = 0; c < kSeedCustomers; ++c) {
    in.customer_region.push_back(kRegions[pick(4)]);
  }
  for (int o = 0; o < seed_orders; ++o) {
    in.order_cust.push_back(pick(kSeedCustomers));
    in.order_amount.push_back(10 + pick(90));
  }
  // Keys are a seeded permutation, so inserts land all over the index.
  std::vector<int64_t> keys(n_writes);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), rng);
  const std::string contract = w.contract;
  for (size_t i = 0; i < n_writes; ++i) {
    if (contract == "simple") {
      std::string payload(64, ' ');
      for (char& ch : payload) ch = static_cast<char>('a' + pick(26));
      in.writes.push_back({Value::Int(keys[i]), Value::Text(payload)});
    } else if (contract == "complex_join") {
      in.writes.push_back(
          {Value::Int(keys[i]), Value::Text(kRegions[pick(4)])});
    } else {
      in.writes.push_back({Value::Int(seed_orders + keys[i]),
                           Value::Int(pick(kSeedCustomers)),
                           Value::Int(10 + pick(90))});
    }
  }
  // The reader sends two fig6 joins to every fig7 group-by, so the median
  // falls inside one query's distribution instead of between the two. Where
  // the
  // workload leaves orders untouched their exact results follow from the
  // seeded rows; on htap_mix orders grow under the reader, so only the
  // result shape is checked there (and row-vs-columnar parity at the end).
  const bool static_orders = contract != "seed_order";
  for (size_t j = 0; j < n_reads; ++j) {
    ReadOp op;
    if (j % 3 != 2) {
      std::string region = kRegions[pick(4)];
      op.sql = &kFig6Sql;
      op.params = {Value::Text(region)};
      int64_t sum = 0;
      for (size_t o = 0; o < in.order_cust.size(); ++o) {
        if (in.customer_region[static_cast<size_t>(in.order_cust[o])] ==
            region) {
          sum += in.order_amount[o];
        }
      }
      if (static_orders) op.expect = RenderRows({{Value::Int(sum)}});
    } else {
      // A fixed-width customer range keeps every fig7 query's work alike,
      // so the query tail does not depend on which ranges a seed drew.
      int64_t lo = pick(kSeedCustomers / 2);
      int64_t hi = lo + kSeedCustomers / 2 - 1;
      op.sql = &kFig7Sql;
      op.params = {Value::Int(lo), Value::Int(hi)};
      std::map<std::string, int64_t> totals;
      for (size_t o = 0; o < in.order_cust.size(); ++o) {
        int64_t cust = in.order_cust[o];
        if (cust >= lo && cust <= hi) {
          totals[in.customer_region[static_cast<size_t>(cust)]] +=
              in.order_amount[o];
        }
      }
      std::vector<std::pair<std::string, int64_t>> ranked(totals.begin(),
                                                          totals.end());
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      std::vector<brdb::Row> rows;
      for (const auto& [region, total] : ranked) {
        rows.push_back({Value::Text(region), Value::Int(total)});
      }
      if (static_orders) op.expect = RenderRows(rows);
    }
    in.reads.push_back(std::move(op));
  }
  return in;
}

// ---- small statistics helpers ----

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Tail latency that one bad second cannot swing: the median, over the
/// load's whole seconds (by scheduled send instant), of each second's
/// `pct` percentile. On a shared host a single stall otherwise decides a
/// run's tail.
double WindowedPercentile(const std::vector<double>& ms,
                          const std::vector<double>& at_s, double load_s,
                          double pct) {
  size_t windows = std::max<size_t>(1, static_cast<size_t>(load_s));
  std::vector<std::vector<double>> per(windows);
  for (size_t i = 0; i < ms.size(); ++i) {
    size_t k = static_cast<size_t>(at_s[i]);
    per[std::min(k, windows - 1)].push_back(ms[i]);
  }
  std::vector<double> tails;
  for (auto& v : per) {
    if (!v.empty()) tails.push_back(Percentile(std::move(v), pct));
  }
  return Median(std::move(tails));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

// ---- watchdog: the hard per-process deadline ----

class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, budget, [this] { return done_; })) {
            std::fprintf(stderr,
                         "perfbench: hard deadline of %lld s exceeded; "
                         "aborting without a result\n",
                         static_cast<long long>(budget.count()));
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// ---- the network under test ----

struct Cluster {
  std::unique_ptr<BlockchainNetwork> net;
  Session* writer = nullptr;
  Session* reader = nullptr;
  std::string dir;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    if (net != nullptr) net->Stop();
    net.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
};

/// Network start, the nine governance deploys of the evaluation schema, and
/// seeding of customers and orders — the work setup_s times.
Status SetUp(const Workload& w, const Inputs& in, const std::string& dir,
             Cluster* c) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  c->dir = dir;
  brdb::NetworkOptions opts;
  opts.flow = w.flow;
  opts.orderer_config.block_size = w.block_size;
  opts.orderer_config.block_timeout_us = kBlockTimeoutUs;
  opts.block_store_dir = dir;
  c->net = BlockchainNetwork::Create(opts);
  for (size_t i = 0; i < c->net->num_nodes(); ++i) {
    BRDB_RETURN_NOT_OK(
        brdb::RegisterWorkloadContracts(c->net->node(i)->contracts()));
  }
  BRDB_RETURN_NOT_OK(c->net->Start());
  for (const std::string& stmt : brdb::WorkloadSchemaStatements()) {
    BRDB_RETURN_NOT_OK(c->net->DeployContract(stmt));
  }
  Session* seeder = c->net->CreateSession("org1", "seeder");
  std::vector<brdb::Invocation> seed;
  for (size_t i = 0; i < in.customer_region.size(); ++i) {
    seed.push_back({"seed_customer",
                    {Value::Int(static_cast<int64_t>(i)),
                     Value::Text(in.customer_region[i])}});
  }
  for (size_t i = 0; i < in.order_cust.size(); ++i) {
    seed.push_back({"seed_order",
                    {Value::Int(static_cast<int64_t>(i)),
                     Value::Int(in.order_cust[i]),
                     Value::Int(in.order_amount[i])}});
  }
  std::vector<TxnHandle> handles;
  const size_t kChunk = 100;
  for (size_t i = 0; i < seed.size(); i += kChunk) {
    std::vector<brdb::Invocation> chunk(
        seed.begin() + static_cast<std::ptrdiff_t>(i),
        seed.begin() + static_cast<std::ptrdiff_t>(
                           std::min(seed.size(), i + kChunk)));
    for (TxnHandle& h : seeder->SubmitBatch(std::move(chunk))) {
      handles.push_back(std::move(h));
    }
  }
  for (TxnHandle& h : handles) BRDB_RETURN_NOT_OK(h.WaitAllNodes(60000000));
  c->writer = c->net->CreateSession("org1", "loadgen");
  c->reader = c->net->CreateSession("org2", "reader");
  return Status::OK();
}

// ---- decision tracking (majority commit, as the paper defines it) ----

class DecisionBook {
 public:
  explicit DecisionBook(size_t nodes) : majority_(nodes / 2 + 1) {}

  struct Decision {
    size_t commits = 0;
    size_t aborts = 0;
    bool decided = false;
    bool committed = false;
    StatusCode abort_code = StatusCode::kOk;
    TimePoint at{};
  };

  void OnDecision(const TxnNotification& n) {
    TimePoint now = SteadyClock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Decision& d = decisions_[n.txid];
    if (d.decided) return;
    if (n.status.ok()) {
      if (++d.commits < majority_) return;
      d.committed = true;
    } else {
      if (++d.aborts < majority_) return;
      d.abort_code = n.status.code();
    }
    d.decided = true;
    d.at = now;
    ++decided_;
    cv_.notify_all();
  }

  /// Wait until `expected` transactions are decided or `deadline` passes.
  void WaitDecided(size_t expected, TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return decided_ >= expected; });
  }

  /// Copy of the decision for `txid` (undecided default when unseen).
  Decision Get(const std::string& txid) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = decisions_.find(txid);
    return it == decisions_.end() ? Decision() : it->second;
  }

 private:
  const size_t majority_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Decision> decisions_;
  size_t decided_ = 0;
};

/// Trace observer: a SimNetwork endpoint the orderer delivers every block
/// to. The handler only stamps and copies; decoding happens after the run.
struct Observer {
  std::mutex mu;
  std::vector<std::pair<TimePoint, std::string>> blocks;
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Row-store vs columnar execution of one SELECT on `node` at its current
/// snapshot: status, column names, row count and every row's encoding must
/// be byte-identical.
Status CheckQueryParity(brdb::DatabaseNode* node, const std::string& user,
                        const std::string& sql,
                        const std::vector<Value>& params) {
  auto row = node->Query(user, sql, params, brdb::QueryPath::kForceRow);
  auto col = node->Query(user, sql, params, brdb::QueryPath::kDefault);
  if (!row.ok() || !col.ok()) {
    return Status::Internal(
        "parity: \"" + sql + "\" failed: row=" +
        (row.ok() ? "OK" : row.status().ToString()) +
        " columnar=" + (col.ok() ? "OK" : col.status().ToString()));
  }
  const brdb::sql::ResultSet& a = row.value();
  const brdb::sql::ResultSet& b = col.value();
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) {
    return Status::Internal("parity: shape diverged for \"" + sql + "\": " +
                            std::to_string(a.rows.size()) + " vs " +
                            std::to_string(b.rows.size()) + " rows");
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (brdb::EncodeRow(a.rows[i]) != brdb::EncodeRow(b.rows[i])) {
      return Status::Internal("parity: row " + std::to_string(i) +
                              " diverged for \"" + sql + "\"");
    }
  }
  return Status::OK();
}

// ---- one measured load phase ----

struct WriteRec {
  std::string txid;
  TimePoint scheduled{};
  TimePoint sent{};
  TimePoint returned{};
  bool attempted = false;
  bool submit_ok = false;
};

struct ReadRec {
  double latency_ms = 0;
  double service_ms = 0;  ///< send to reply
  double lag_ms = 0;
  bool ok = false;
  bool wrong = false;  ///< replied with a result that contradicts the seed
};

struct PhaseResult {
  // end to end
  size_t writes_scheduled = 0;
  size_t writes_attempted = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t submit_rejected = 0;
  size_t undecided = 0;
  size_t reads_attempted = 0;
  size_t reads_failed = 0;
  size_t reads_wrong = 0;
  size_t abort_ssi = 0, abort_constraint = 0, abort_other = 0;
  std::vector<double> commit_ms;  ///< per committed txn, schedule order
  std::vector<double> commit_at_s;  ///< its scheduled instant after load start
  std::vector<double> query_ms;
  std::vector<double> query_at_s;
  std::vector<double> query_service_ms;
  std::vector<double> lag_ms;       ///< writer: send instant - scheduled
  std::vector<double> read_lag_ms;  ///< readers: the same for queries
  std::vector<double> submit_us;
  double cpu_ms = 0;  ///< process CPU in the phase, less the reader threads
  double load_s = 0;
  double drain_s = 0;
  // layers
  double transport_bytes = 0;
  double net_messages = 0;
  double net_bytes = 0;
  double ledger_bytes = 0;
  size_t blocks = 0;
  size_t size_cut_blocks = 0;
  size_t block_txns = 0;
  std::vector<MetricsSnapshot> final_nodes;
  /// Traced: every node's snapshot at each tenth of the load.
  std::vector<std::vector<MetricsSnapshot>> tenths;
  uint64_t height_spread_max = 0;
  uint64_t builder_lag_max = 0;
  uint64_t vectorized = 0, row_fallback = 0, zone_pruned = 0, sealed = 0;
  // trace stages, over committed txns the observer saw
  size_t stamped = 0;
  std::vector<double> stage_lag_ms, stage_submit_ms, stage_order_ms,
      stage_majority_ms;
  // checks
  std::vector<std::string> failures;
};

struct PhaseConfig {
  double seconds = 10;
  bool traced = false;
  int seed_orders = kSeedOrders;
};

void Fail(PhaseResult* r, const std::string& what) {
  r->failures.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

/// Correctness checks after the load drained: equal heights, agreeing
/// checkpoint votes over the measured blocks, committed counts equal to row
/// counts on every node, no failed durable appends, and row-vs-columnar
/// parity of the reader's queries with the columnar path actually used.
void RunChecks(const Workload& w, const PhaseConfig& pc, Cluster* c,
               BlockNum first_block, BlockNum last_measured, PhaseResult* r) {
  BlockchainNetwork* net = c->net.get();
  const size_t n = net->num_nodes();
  // A closing transaction carries every node's outstanding checkpoint
  // votes for the measured blocks into one last block.
  if (!net->WaitForHeight(last_measured, 10000000).ok()) {
    Fail(r, "nodes did not reach the orderer height " +
                std::to_string(last_measured));
    return;
  }
  TxnHandle closing = c->writer->Submit(
      "seed_customer", {Value::Int(kSeedCustomers),
                        Value::Text("closing")});
  Status closed = closing.WaitAllNodes(10000000);
  if (!closed.ok()) {
    Fail(r, "closing transaction: " + closed.ToString());
    return;
  }
  BlockNum final_height = net->ordering()->Height();
  if (!net->WaitForHeight(final_height, 10000000).ok()) {
    Fail(r, "nodes did not reach the final height");
  }
  for (size_t i = 0; i < n; ++i) {
    brdb::DatabaseNode* node = net->node(i);
    if (node->Height() != final_height) {
      Fail(r, node->name() + " height " + std::to_string(node->Height()) +
                  " != " + std::to_string(final_height));
    }
    if (!node->checkpoints()->Divergences().empty()) {
      Fail(r, node->name() + " observed checkpoint divergence");
    }
    for (BlockNum b = first_block; b <= last_measured; ++b) {
      if (node->CheckpointMatches(b) != n - 1) {
        Fail(r, node->name() + " block " + std::to_string(b) + ": " +
                    std::to_string(node->CheckpointMatches(b)) + "/" +
                    std::to_string(n - 1) + " peer votes agree");
        break;
      }
    }
  }
  size_t expect_rows = r->committed;
  if (std::string(w.count_table) == "orders") {
    expect_rows += static_cast<size_t>(pc.seed_orders);
  }
  const std::string count_sql =
      std::string("SELECT COUNT(*) FROM ") + w.count_table;
  for (size_t i = 0; i < n; ++i) {
    auto res = c->reader->QueryOn(i, count_sql);
    auto rows = res.ok() ? res.value().Scalar() : res.status();
    if (!rows.ok() || rows.value().AsInt() !=
                          static_cast<int64_t>(expect_rows)) {
      Fail(r, net->node(i)->name() + ": " + count_sql + " = " +
                  (rows.ok() ? rows.value().ToString()
                             : rows.status().ToString()) +
                  ", committed writes imply " + std::to_string(expect_rows));
    }
  }
  uint64_t append_failures = 0;
  for (size_t i = 0; i < n; ++i) {
    append_failures += net->node(i)->metrics()->Snapshot().block_append_failures;
  }
  if (append_failures != 0) {
    Fail(r, "ledger.append_failures = " + std::to_string(append_failures));
  }
  // Row-vs-columnar parity of the reader's queries; a zero vectorized share
  // would mean the columnar layer went unmeasured.
  brdb::DatabaseNode* node = net->node(0);
  const std::string user = c->reader->name();
  std::vector<std::pair<const std::string*, std::vector<Value>>> probes;
  for (const char* region : kRegions) {
    probes.push_back({&kFig6Sql, {Value::Text(region)}});
  }
  probes.push_back({&kFig7Sql, {Value::Int(0), Value::Int(99)}});
  probes.push_back({&kFig7Sql, {Value::Int(10), Value::Int(59)}});
  for (const auto& [sql, params] : probes) {
    Status parity = CheckQueryParity(node, user, *sql, params);
    if (!parity.ok()) Fail(r, parity.ToString());
  }
  if (r->vectorized == 0) {
    Fail(r, "query.vectorized_share is 0: the columnar path went "
            "unmeasured");
  }
}

/// Reader threads: the writer takes one core's worth of generator, the
/// readers at most three more, never more threads than cores.
size_t ReaderThreads() {
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<size_t>(std::clamp<long>(cores - 1, 1, 3));
}

/// Run one open-loop load phase on a set-up cluster, drain it against a
/// hard deadline, collect every measurement and run the checks.
PhaseResult RunPhase(const Workload& w, const PhaseConfig& pc, Inputs* in,
                     Cluster* c) {
  PhaseResult r;
  BlockchainNetwork* net = c->net.get();
  const size_t n = net->num_nodes();

  auto book = std::make_shared<DecisionBook>(n);
  uint64_t subscription = net->transport()->Subscribe(
      [book](const std::string&, const TxnNotification& note) {
        book->OnDecision(note);
      });
  auto observer = std::make_shared<Observer>();
  if (pc.traced) {
    net->network()->RegisterEndpoint(
        kObserverEndpoint, [observer](const brdb::NetMessage& m) {
          TimePoint now = SteadyClock::now();
          std::lock_guard<std::mutex> lock(observer->mu);
          ++observer->messages;
          observer->bytes += m.payload.size();
          if (m.type == brdb::kMsgBlock) {
            observer->blocks.emplace_back(now, m.payload);
          }
        });
    net->ordering()->ConnectPeer(kObserverEndpoint);
  }

  // Baselines: counters before the load, metrics windows restarted.
  const BlockNum first_block = net->ordering()->Height() + 1;
  std::vector<uint64_t> sealed_before;
  for (size_t i = 0; i < n; ++i) {
    sealed_before.push_back(
        net->node(i)->metrics()->Snapshot().columnar_segments_sealed);
    net->node(i)->metrics()->Reset();
  }
  const brdb::TransportCounters& tc = net->transport()->counters();
  const uint64_t transport0 = tc.bytes_sent.load() + tc.bytes_received.load();
  const uint64_t messages0 = net->network()->messages_delivered();
  const uint64_t net_bytes0 = net->network()->bytes_delivered();
  const uint64_t dir_bytes0 = DirectoryBytes(c->dir);

  const size_t n_writes = in->writes.size();
  const size_t n_reads = in->reads.size();
  std::vector<WriteRec> writes(n_writes);
  std::vector<ReadRec> reads(n_reads);
  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  const TimePoint t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  const auto load_span = std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(pc.seconds));
  const TimePoint load_end = t0 + load_span;
  // Past this instant the generators stop sending; what is left counts as
  // failed instead of stretching the run.
  const TimePoint give_up = load_end + std::chrono::seconds(5);
  auto instant = [t0](size_t i, double rate) {
    return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };

  std::thread writer([&] {
    for (size_t i = 0; i < n_writes; ++i) {
      WriteRec& rec = writes[i];
      rec.scheduled = instant(i, w.write_tps);
      std::this_thread::sleep_until(rec.scheduled);
      rec.sent = SteadyClock::now();
      if (rec.sent > give_up) break;
      rec.attempted = true;
      TxnHandle h = c->writer->Submit(w.contract, std::move(in->writes[i]));
      rec.returned = SteadyClock::now();
      rec.submit_ok = h.submit_status().ok();
      rec.txid = h.txid();
    }
  });
  // Readers: scheduled query j goes to thread j % readers, so a slow query
  // delays only its own thread's later queries (and they count the wait).
  const size_t readers = ReaderThreads();
  std::atomic<bool> reported_wrong{false};
  // Queries execute on the calling thread (the in-process transport's
  // server leg is a function call), so these threads' CPU is the read side.
  std::vector<double> reader_cpu_ms(readers, 0.0);
  std::vector<std::thread> reader_threads;
  for (size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      const double thread_cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
      for (size_t j = t; j < n_reads; j += readers) {
        const ReadOp& op = in->reads[j];
        TimePoint scheduled = instant(j, w.read_qps);
        std::this_thread::sleep_until(scheduled);
        TimePoint sent = SteadyClock::now();
        if (sent > give_up) break;
        auto res = c->reader->Query(*op.sql, op.params);
        ReadRec& rec = reads[j];
        TimePoint done = SteadyClock::now();
        rec.latency_ms = MsBetween(scheduled, done);
        rec.service_ms = MsBetween(sent, done);
        rec.lag_ms = MsBetween(scheduled, sent);
        rec.ok = res.ok();
        if (!res.ok()) continue;
        const brdb::sql::ResultSet& rs = res.value();
        if (!op.expect.empty()) {
          rec.wrong = RenderRows(rs.rows) != op.expect;
          if (rec.wrong && !reported_wrong.exchange(true)) {
            std::fprintf(stderr, "perfbench: \"%s\" returned %s, seeded "
                         "rows imply %s\n", op.sql->c_str(),
                         RenderRows(rs.rows).c_str(), op.expect.c_str());
          }
        } else if (op.sql == &kFig6Sql) {
          rec.wrong = rs.rows.size() != 1 || rs.columns.size() != 1;
        } else {
          rec.wrong = rs.rows.empty() || rs.rows.size() > 4;
        }
      }
      reader_cpu_ms[t] = CpuMs(CLOCK_THREAD_CPUTIME_ID) - thread_cpu0;
    });
  }

  // Traced runs sample heights, builder lag and, at each tenth of the load,
  // every node's metrics (windowed tet).
  std::atomic<bool> sampling{pc.traced};
  std::thread sampler([&] {
    size_t next_tenth = 1;
    while (sampling.load()) {
      TimePoint now = SteadyClock::now();
      BlockNum lo = ~BlockNum{0}, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        BlockNum h = net->node(i)->Height();
        lo = std::min(lo, h);
        hi = std::max(hi, h);
        if (net->node(i)->history_builder() != nullptr) {
          r.builder_lag_max = std::max<uint64_t>(
              r.builder_lag_max, net->node(i)->history_builder()->lag());
        }
      }
      r.height_spread_max = std::max<uint64_t>(r.height_spread_max, hi - lo);
      if (next_tenth <= 10 &&
          now >= t0 + load_span * static_cast<double>(next_tenth) / 10.0) {
        std::vector<MetricsSnapshot> s;
        for (size_t i = 0; i < n; ++i) {
          s.push_back(net->node(i)->metrics()->Snapshot());
        }
        r.tenths.push_back(std::move(s));
        ++next_tenth;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  writer.join();
  size_t submitted = 0;
  for (const WriteRec& rec : writes) submitted += rec.submit_ok ? 1 : 0;
  const TimePoint drain_deadline =
      std::max(load_end, SteadyClock::now()) + std::chrono::seconds(15);
  book->WaitDecided(submitted, drain_deadline);
  for (std::thread& t : reader_threads) t.join();
  const TimePoint drain_end = SteadyClock::now();
  sampling.store(false);
  sampler.join();
  r.cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0 -
             std::accumulate(reader_cpu_ms.begin(), reader_cpu_ms.end(), 0.0);
  r.load_s = MsBetween(t0, load_end) / 1000.0;
  r.drain_s = MsBetween(load_end, drain_end) / 1000.0;

  net->transport()->Unsubscribe(subscription);
  if (pc.traced) net->network()->UnregisterEndpoint(kObserverEndpoint);
  uint64_t observer_messages = 0, observer_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(observer->mu);
    observer_messages = observer->messages;
    observer_bytes = observer->bytes;
  }
  r.transport_bytes = static_cast<double>(tc.bytes_sent.load() +
                                          tc.bytes_received.load() -
                                          transport0);
  r.net_messages = static_cast<double>(net->network()->messages_delivered() -
                                       messages0 - observer_messages);
  r.net_bytes = static_cast<double>(net->network()->bytes_delivered() -
                                    net_bytes0 - observer_bytes);
  r.ledger_bytes = static_cast<double>(DirectoryBytes(c->dir)) -
                   static_cast<double>(dir_bytes0);
  for (size_t i = 0; i < n; ++i) {
    MetricsSnapshot s = net->node(i)->metrics()->Snapshot();
    r.vectorized += s.vectorized_scans;
    r.row_fallback += s.row_fallback_scans;
    r.zone_pruned += s.zone_map_pruned_segments;
    r.sealed = std::max<uint64_t>(
        r.sealed, s.columnar_segments_sealed - sealed_before[i]);
    r.final_nodes.push_back(std::move(s));
  }

  // Per-transaction outcomes, in schedule order.
  r.writes_scheduled = n_writes;
  for (const WriteRec& rec : writes) {
    if (!rec.attempted) continue;
    ++r.writes_attempted;
    r.lag_ms.push_back(MsBetween(rec.scheduled, rec.sent));
    r.submit_us.push_back(MsBetween(rec.sent, rec.returned) * 1000.0);
    if (!rec.submit_ok) {
      ++r.submit_rejected;
      continue;
    }
    DecisionBook::Decision d = book->Get(rec.txid);
    if (!d.decided) {
      ++r.undecided;
    } else if (d.committed) {
      ++r.committed;
      r.commit_ms.push_back(MsBetween(rec.scheduled, d.at));
      r.commit_at_s.push_back(MsBetween(t0, rec.scheduled) / 1000.0);
    } else {
      ++r.aborted;
      if (d.abort_code == StatusCode::kSerializationFailure ||
          d.abort_code == StatusCode::kWriteConflict) {
        ++r.abort_ssi;
      } else if (d.abort_code == StatusCode::kConstraintViolation ||
                 d.abort_code == StatusCode::kAlreadyExists) {
        ++r.abort_constraint;
      } else {
        ++r.abort_other;
      }
    }
  }
  r.reads_attempted = n_reads;
  for (size_t j = 0; j < n_reads; ++j) {
    const ReadRec& rec = reads[j];
    if (!rec.ok || rec.wrong) {
      ++r.reads_failed;
      r.reads_wrong += rec.wrong ? 1 : 0;
      continue;
    }
    r.query_ms.push_back(rec.latency_ms);
    r.query_at_s.push_back(static_cast<double>(j) / w.read_qps);
    r.query_service_ms.push_back(rec.service_ms);
    r.read_lag_ms.push_back(rec.lag_ms);
  }

  // Blocks of the measured range, from node 0's durable store.
  const BlockNum last_block = net->ordering()->Height();
  for (BlockNum b = first_block; b <= last_block; ++b) {
    auto block = net->node(0)->block_store()->Get(b);
    if (!block.ok()) continue;
    size_t txns = block.value().transactions().size();
    ++r.blocks;
    r.block_txns += txns;
    r.size_cut_blocks += txns >= w.block_size ? 1 : 0;
  }

  // Trace: the first instant the observer saw each transaction's block.
  if (pc.traced) {
    std::unordered_map<std::string, TimePoint> seen;
    std::lock_guard<std::mutex> lock(observer->mu);
    for (const auto& [at, payload] : observer->blocks) {
      auto block = brdb::Block::Decode(payload);
      if (!block.ok() || block.value().number() < first_block) continue;
      for (const brdb::Transaction& tx : block.value().transactions()) {
        seen.emplace(tx.id(), at);
      }
    }
    for (const WriteRec& rec : writes) {
      if (!rec.submit_ok) continue;
      DecisionBook::Decision d = book->Get(rec.txid);
      auto it = seen.find(rec.txid);
      if (!d.committed || it == seen.end()) continue;
      ++r.stamped;
      r.stage_lag_ms.push_back(MsBetween(rec.scheduled, rec.sent));
      r.stage_submit_ms.push_back(MsBetween(rec.sent, rec.returned));
      r.stage_order_ms.push_back(MsBetween(rec.returned, it->second));
      r.stage_majority_ms.push_back(MsBetween(it->second, d.at));
    }
  }

  // Validity: latency must measure the system, not the cut timer or the
  // generator.
  double size_cut_share =
      r.blocks == 0 ? 0 : static_cast<double>(r.size_cut_blocks) /
                              static_cast<double>(r.blocks);
  double lag_p99 = Percentile(r.lag_ms, 99);
  if (size_cut_share < kMinSizeCutShare) {
    Fail(&r, "invalid run: consensus.size_cut_share " +
                 std::to_string(size_cut_share) + " < " +
                 std::to_string(kMinSizeCutShare));
  }
  if (lag_p99 > kMaxLagP99Ms) {
    Fail(&r, "invalid run: loadgen.lag_p99_ms " + std::to_string(lag_p99) +
                 " > " + std::to_string(kMaxLagP99Ms));
  }
  if (r.reads_wrong > 0) {
    Fail(&r, std::to_string(r.reads_wrong) +
                 " reads returned results contradicting the seeded data");
  }
  RunChecks(w, pc, c, first_block, last_block, &r);
  return r;
}

// ---- reporting ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

size_t Failed(const PhaseResult& r) {
  return (r.writes_scheduled - r.writes_attempted) + r.submit_rejected +
         r.aborted + r.undecided + r.reads_failed;
}

size_t Attempted(const PhaseResult& r) {
  return r.writes_scheduled + r.reads_attempted;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEndMetrics(const PhaseResult& r, double setup_s) {
  return {
      {"commit_p50_ms", Percentile(r.commit_ms, 50), "ms"},
      {"commit_p99_ms",
       WindowedPercentile(r.commit_ms, r.commit_at_s, r.load_s, 99), "ms"},
      {"cpu_ms_per_commit",
       Ratio(r.cpu_ms, static_cast<double>(r.committed)), "ms"},
      {"setup_s", setup_s, "s"},
      {"query_p50_ms", Percentile(r.query_ms, 50), "ms"},
  };
}

/// Mean tet over the window between two snapshots of one node, weighting
/// by transactions decided in between.
double WindowTetMs(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  double na = static_cast<double>(a.txns_committed + a.txns_aborted);
  double nb = static_cast<double>(b.txns_committed + b.txns_aborted);
  return Ratio(b.tet_ms * nb - a.tet_ms * na, nb - na);
}

/// The traced run's consistency check: the four stage means over the
/// commits the observer stamped must sum to the end-to-end mean over all
/// commits. Prints the comparison and records a failure when it does not.
struct TraceSum {
  double lag = 0, submit = 0, order = 0, majority = 0, e2e = 0;
  double sum() const { return lag + submit + order + majority; }
};

TraceSum CheckTraceSum(PhaseResult* r) {
  TraceSum t{Mean(r->stage_lag_ms), Mean(r->stage_submit_ms),
             Mean(r->stage_order_ms), Mean(r->stage_majority_ms),
             Mean(r->commit_ms)};
  const double gap = std::fabs(t.sum() - t.e2e);
  const double tolerance =
      std::max(kTraceSumToleranceMs, kTraceSumToleranceShare * t.e2e);
  std::printf("trace: stage means sum to %.4f ms vs end-to-end mean %.4f ms "
              "(gap %.4f ms, tolerance %.4f ms): %s\n",
              t.sum(), t.e2e, gap, tolerance,
              gap <= tolerance ? "within tolerance" : "OUT OF TOLERANCE");
  if (gap > tolerance) {
    Fail(r, "trace stage means do not sum to the end-to-end mean");
  }
  return t;
}

std::vector<Metric> PerLayerMetrics(const PhaseResult& r,
                                    const PhaseResult& untraced,
                                    const TraceSum& t) {
  auto node_max = [&](double MetricsSnapshot::*field) {
    double m = 0;
    for (const MetricsSnapshot& s : r.final_nodes) m = std::max(m, s.*field);
    return m;
  };
  double first_tenth = 0, last_tenth = 0;
  if (!r.tenths.empty()) {
    const auto& first = r.tenths.front();
    const auto& ninth = r.tenths.size() >= 9 ? r.tenths[8] : r.tenths.back();
    for (size_t i = 0; i < r.final_nodes.size(); ++i) {
      first_tenth = std::max(first_tenth, first[i].tet_ms);
      last_tenth =
          std::max(last_tenth, WindowTetMs(ninth[i], r.final_nodes[i]));
    }
  }
  uint64_t append_failures = 0;
  for (const MetricsSnapshot& s : r.final_nodes) {
    append_failures += s.block_append_failures;
  }
  const double writes = static_cast<double>(r.writes_attempted);
  const double committed = static_cast<double>(r.committed);
  const double nodes = static_cast<double>(r.final_nodes.size());
  const double p50_traced = Percentile(r.commit_ms, 50);
  const double p50_untraced = Percentile(untraced.commit_ms, 50);

  return {
      {"loadgen.lag_p99_ms", Percentile(r.lag_ms, 99), "ms"},
      {"loadgen.read_lag_p99_ms", Percentile(r.read_lag_ms, 99), "ms"},
      {"reader.query_p90_ms",
       WindowedPercentile(r.query_ms, r.query_at_s, r.load_s, 90), "ms"},
      {"reader.query_p99_ms",
       WindowedPercentile(r.query_ms, r.query_at_s, r.load_s, 99), "ms"},
      {"loadgen.failed_share",
       Ratio(static_cast<double>(Failed(r)), static_cast<double>(Attempted(r))),
       "share"},
      {"session.submit_us_p50", Percentile(r.submit_us, 50), "us"},
      {"session.submit_us_p99", Percentile(r.submit_us, 99), "us"},
      {"transport.bytes_per_txn", Ratio(r.transport_bytes, writes), "B"},
      {"network.messages_per_txn", Ratio(r.net_messages, writes), "count"},
      {"network.bytes_per_txn", Ratio(r.net_bytes, writes), "B"},
      {"consensus.order_wait_ms_p50", Percentile(r.stage_order_ms, 50), "ms"},
      {"consensus.order_wait_ms_p99", Percentile(r.stage_order_ms, 99), "ms"},
      {"consensus.txns_per_block",
       Ratio(static_cast<double>(r.block_txns),
             static_cast<double>(r.blocks)),
       "count"},
      {"consensus.size_cut_share",
       Ratio(static_cast<double>(r.size_cut_blocks),
             static_cast<double>(r.blocks)),
       "share"},
      {"node.block_to_majority_ms_p50", Percentile(r.stage_majority_ms, 50),
       "ms"},
      {"node.block_to_majority_ms_p99", Percentile(r.stage_majority_ms, 99),
       "ms"},
      {"node.stage_verify_ms", node_max(&MetricsSnapshot::stage_verify_ms),
       "ms"},
      {"node.stage_prepare_ms", node_max(&MetricsSnapshot::stage_prepare_ms),
       "ms"},
      {"node.stage_commit_ms", node_max(&MetricsSnapshot::stage_commit_ms),
       "ms"},
      {"node.bet_ms", node_max(&MetricsSnapshot::bet_ms), "ms"},
      {"node.bct_ms", node_max(&MetricsSnapshot::bct_ms), "ms"},
      {"node.su_pct", node_max(&MetricsSnapshot::su), "%"},
      {"node.pipeline_occupancy_avg",
       node_max(&MetricsSnapshot::pipeline_occupancy_avg), "blocks"},
      {"node.height_spread_blocks", static_cast<double>(r.height_spread_max),
       "blocks"},
      {"txn.tet_ms", node_max(&MetricsSnapshot::tet_ms), "ms"},
      {"txn.tet_first_tenth_ms", first_tenth, "ms"},
      {"txn.tet_last_tenth_ms", last_tenth, "ms"},
      {"txn.abort_share_ssi", Ratio(static_cast<double>(r.abort_ssi), writes),
       "share"},
      {"txn.abort_share_constraint",
       Ratio(static_cast<double>(r.abort_constraint), writes), "share"},
      {"txn.abort_share_other",
       Ratio(static_cast<double>(r.abort_other), writes), "share"},
      {"ledger.bytes_per_txn",
       Ratio(r.ledger_bytes, committed * nodes), "B"},
      {"ledger.append_failures", static_cast<double>(append_failures),
       "count"},
      {"history.builder_lag_max_blocks",
       static_cast<double>(r.builder_lag_max), "blocks"},
      {"history.segments_sealed", static_cast<double>(r.sealed), "count"},
      {"query.vectorized_share",
       Ratio(static_cast<double>(r.vectorized),
             static_cast<double>(r.vectorized + r.row_fallback)),
       "share"},
      {"query.zone_map_pruned_segments", static_cast<double>(r.zone_pruned),
       "count"},
      {"trace.loadgen_lag_ms_mean", t.lag, "ms"},
      {"trace.session_submit_ms_mean", t.submit, "ms"},
      {"trace.order_wait_ms_mean", t.order, "ms"},
      {"trace.block_to_majority_ms_mean", t.majority, "ms"},
      {"trace.stage_sum_ms", t.sum(), "ms"},
      {"trace.e2e_mean_ms", t.e2e, "ms"},
      {"trace.sum_gap_ms", std::fabs(t.sum() - t.e2e), "ms"},
      {"trace.stamped_share", Ratio(static_cast<double>(r.stamped), committed),
       "share"},
      {"trace.commit_p50_ms", p50_traced, "ms"},
      {"trace.untraced_commit_p50_ms", p50_untraced, "ms"},
      {"trace.overhead_ms", p50_traced - p50_untraced, "ms"},
  };
}

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf(
      "phase %s: scheduled=%zu attempted=%zu committed=%zu aborted=%zu "
      "rejected=%zu undecided=%zu reads=%zu read_failures=%zu blocks=%zu "
      "load=%.2fs drain=%.2fs whole_run_commit_p99=%.3fms "
      "whole_run_query_p99=%.3fms query_service_p50=%.3fms "
      "failed_share=%.6f checks=%s\n",
      label, r.writes_scheduled, r.writes_attempted, r.committed, r.aborted,
      r.submit_rejected, r.undecided, r.reads_attempted, r.reads_failed,
      r.blocks, r.load_s, r.drain_s, Percentile(r.commit_ms, 99),
      Percentile(r.query_ms, 99), Percentile(r.query_service_ms, 50),
      Ratio(static_cast<double>(Failed(r)), static_cast<double>(Attempted(r))),
      r.failures.empty() ? "pass" : "FAIL");
  for (const std::string& f : r.failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".perfbench_work";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

void PrintEnvelope(const Options& o, const Workload& w, const Inputs& in,
                   int setups, const Cluster& c) {
  brdb::DatabaseNode* node = c.net->node(0);
  std::printf(
      "envelope {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %.3f, \"trace\": %d, \"git_sha\": \"%s\", "
      "\"source_sha256\": \"%s\", \"host_cores\": %ld, \"config\": {"
      "\"orgs\": %zu, \"orderer\": \"kafka\", \"network_profile\": \"lan\", "
      "\"flow\": \"%s\", \"contract\": \"%s\", \"block_size\": %zu, "
      "\"block_timeout_ms\": %.1f, \"write_tps\": %.1f, \"read_qps\": %.1f, "
      "\"reader\": \"%s\", \"scheduled_writes\": %zu, \"scheduled_reads\": "
      "%zu, \"seed_customers\": %d, \"seed_orders\": %zu, \"setups\": %d, "
      "\"fsync_policy\": \"default(always)\", \"pipeline_depth\": %zu, "
      "\"partitions\": %zu, \"executor_threads\": %zu, \"analytics\": %s}, "
      "\"thresholds\": {\"min_size_cut_share\": %.2f, \"max_lag_p99_ms\": "
      "%.1f, \"trace_sum_tolerance_ms\": %.3f, "
      "\"trace_sum_tolerance_share\": %.3f}}\n",
      w.name, o.seed, o.seconds, o.trace ? 1 : 0, o.git_sha.c_str(),
      o.source_sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      c.net->num_nodes(), FlowName(w.flow), w.contract, w.block_size,
      static_cast<double>(kBlockTimeoutUs) / 1000.0, w.write_tps, w.read_qps,
      "fig6_fig7_analytics",
      in.writes.size(), in.reads.size(), kSeedCustomers,
      in.order_cust.size(), setups, node->pipeline_depth(),
      node->partitions(), node->config().executor_threads,
      node->column_store() != nullptr ? "true" : "false", kMinSizeCutShare,
      kMaxLagP99Ms, kTraceSumToleranceMs, kTraceSumToleranceShare);
}

Inputs InputsFor(const Workload& w, uint64_t seed, double seconds,
                 int seed_orders) {
  auto count = [seconds](double rate) {
    return static_cast<size_t>(std::llround(rate * seconds));
  };
  return MakeInputs(w, seed, seed_orders, count(w.write_tps),
                    count(w.read_qps));
}

/// Set up a fresh cluster for `w`, timing it. A failed attempt is torn
/// down, counted in `*failed_attempts` (which every run prints) and tried
/// again: the Kafka orderer can strand a lone governance transaction when a
/// time-to-cut marker races a cut, and that defect is reported rather than
/// allowed to void the whole run. Exits the process after kSetupAttempts
/// failures: without a network there is nothing to measure.
std::unique_ptr<Cluster> SetUpOrDie(const Workload& w, const Inputs& in,
                                    const std::string& dir, double* seconds,
                                    int* failed_attempts) {
  const int kSetupAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    auto c = std::make_unique<Cluster>();
    TimePoint start = SteadyClock::now();
    Status st = SetUp(w, in, dir, c.get());
    *seconds = MsBetween(start, SteadyClock::now()) / 1000.0;
    if (st.ok()) return c;
    ++*failed_attempts;
    std::fprintf(stderr, "perfbench: set-up attempt %d failed: %s\n",
                 attempt, st.ToString().c_str());
    if (attempt == kSetupAttempts) std::exit(1);
  }
}

int RunBenchmark(const Options& o) {
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n",
                 o.workload.c_str());
    return 2;
  }
  std::vector<Metric> metrics;
  bool correct = true;
  size_t attempted = 0, failed = 0;
  int failed_setups = 0;
  if (!o.trace) {
    // Several set-ups per run; the last network is the one measured.
    const int kSetups = 3;
    Inputs in = InputsFor(*w, o.seed, o.seconds, kSeedOrders);
    std::vector<double> setup_s;
    std::unique_ptr<Cluster> c;
    for (int k = 0; k < kSetups; ++k) {
      c.reset();
      double s = 0;
      c = SetUpOrDie(*w, in, o.workdir + "/setup-" + std::to_string(k), &s,
                     &failed_setups);
      setup_s.push_back(s);
      std::printf("setup %d: %.3f s\n", k, s);
    }
    PrintEnvelope(o, *w, in, kSetups, *c);
    PhaseConfig pc;
    pc.seconds = o.seconds;
    PhaseResult r = RunPhase(*w, pc, &in, c.get());
    c.reset();
    PrintPhase("measured", r);
    metrics = EndToEndMetrics(r, Median(setup_s));
    correct = r.failures.empty();
    attempted = Attempted(r);
    failed = Failed(r);
  } else {
    // Untraced then traced, each on a fresh network with identical inputs:
    // the traced p50 minus the untraced p50 is the tracing overhead.
    PhaseResult phases[2];
    for (int traced = 0; traced < 2; ++traced) {
      Inputs in = InputsFor(*w, o.seed, o.seconds, kSeedOrders);
      double s = 0;
      auto c = SetUpOrDie(*w, in,
                          o.workdir + "/trace-" + std::to_string(traced), &s,
                          &failed_setups);
      if (traced == 0) PrintEnvelope(o, *w, in, 1, *c);
      PhaseConfig pc;
      pc.seconds = o.seconds;
      pc.traced = traced == 1;
      phases[traced] = RunPhase(*w, pc, &in, c.get());
      c.reset();
      PrintPhase(traced == 1 ? "traced" : "untraced", phases[traced]);
    }
    metrics = PerLayerMetrics(phases[1], phases[0],
                              CheckTraceSum(&phases[1]));
    metrics.push_back({"setup.failed_attempts",
                       static_cast<double>(failed_setups), "count"});
    for (const PhaseResult& r : phases) {
      correct = correct && r.failures.empty();
      attempted += Attempted(r);
      failed += Failed(r);
    }
  }
  std::printf("setup: %d failed attempt(s)\n", failed_setups);
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

/// Short traced configuration of every workload with every check on.
int RunSmoke(const Options& o) {
  int broken = 0;
  for (const Workload& w : kWorkloads) {
    const double seconds = 1.5;
    Inputs in = InputsFor(w, o.seed, seconds, kSmokeSeedOrders);
    double s = 0;
    int failed_setups = 0;
    auto c = SetUpOrDie(w, in, o.workdir + "/smoke-" + w.name, &s,
                        &failed_setups);
    PhaseConfig pc;
    pc.seconds = seconds;
    pc.traced = true;
    pc.seed_orders = kSmokeSeedOrders;
    PhaseResult r = RunPhase(w, pc, &in, c.get());
    c.reset();
    CheckTraceSum(&r);
    if (r.committed == 0) Fail(&r, "nothing committed");
    std::printf("smoke %s: setup %.2f s (%d failed attempts), %s\n", w.name,
                s, failed_setups, r.failures.empty() ? "pass" : "FAIL");
    PrintPhase(w.name, r);
    broken += r.failures.empty() ? 0 : 1;
  }
  std::printf("smoke: %d of %zu workloads failed\n", broken,
              std::size(kWorkloads));
  return broken == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--workload" && next(&v)) {
      o->workload = v;
    } else if (a == "--seed" && next(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && next(&v)) {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && next(&v)) {
      o->trace = v == "1";
    } else if (a == "--workdir" && next(&v)) {
      o->workdir = v;
    } else if (a == "--git-sha" && next(&v)) {
      o->git_sha = v;
    } else if (a == "--source-sha" && next(&v)) {
      o->source_sha = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument \"%s\"\n", a.c_str());
      return false;
    }
  }
  if (!o->smoke && (o->workload.empty() || !(o->seconds > 0) ||
                    o->seconds > 60)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <1..60> --trace <0|1> | --smoke\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  brdb::SetLogLevel(brdb::LogLevel::kError);
  Watchdog watchdog(kWatchdog);
  int rc = o.smoke ? RunSmoke(o) : RunBenchmark(o);
  std::error_code ec;
  fs::remove_all(o.workdir, ec);
  return rc;
}
