// Shared harness for the paper-reproduction benchmarks.
//
// Provides the three evaluation smart contracts (§5: simple, complex-join,
// complex-group), schema deployment, an open-loop load generator that
// submits transactions at a fixed arrival rate, and latency/throughput
// accounting ("a transaction is committed in the network when a majority
// of nodes commit it").
//
// Scale note: the paper ran 3 orgs on 32-vCPU machines with a 1 s block
// timeout; these benches target a few-core host, so rates and timeouts are
// scaled down (~100 ms timeout). Absolute numbers are smaller; what should
// match the paper is the shape of each curve, not its scale.
#ifndef BRDB_BENCH_BENCH_COMMON_H_
#define BRDB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "contracts/workload_contracts.h"
#include "core/blockchain_network.h"

namespace brdb {
namespace bench {

inline NetworkOptions BenchOptions(TransactionFlow flow, size_t block_size,
                                   Micros block_timeout_us = 100000) {
  NetworkOptions opts;
  opts.flow = flow;
  opts.orderer_type = OrdererType::kKafka;
  opts.orderer_config.block_size = block_size;
  opts.orderer_config.block_timeout_us = block_timeout_us;
  opts.profile = NetworkProfile::Lan();
  opts.node.executor_threads = 8;
  return opts;
}

/// The paper's §5 workload contracts (shared with brdb_noded — see
/// contracts/workload_contracts.h).
inline Status RegisterWorkloadContracts(BlockchainNetwork* net) {
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    BRDB_RETURN_NOT_OK(
        ::brdb::RegisterWorkloadContracts(net->node(i)->contracts()));
  }
  return Status::OK();
}

/// Deploy the evaluation schema and seed the join tables.
inline Status DeployWorkloadSchema(BlockchainNetwork* net, Session* seeder,
                                   int num_customers = 20,
                                   int num_orders = 100) {
  for (const std::string& stmt : WorkloadSchemaStatements()) {
    BRDB_RETURN_NOT_OK(net->DeployContract(stmt));
  }

  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  std::vector<TxnHandle> txns;
  for (int i = 0; i < num_customers; ++i) {
    TxnHandle t = seeder->Submit(
        "seed_customer", {Value::Int(i), Value::Text(kRegions[i % 4])});
    if (!t.submit_status().ok()) return t.submit_status();
    txns.push_back(t);
  }
  for (int i = 0; i < num_orders; ++i) {
    TxnHandle t = seeder->Submit(
        "seed_order",
        {Value::Int(i), Value::Int(i % num_customers), Value::Int(10 + i % 90)});
    if (!t.submit_status().ok()) return t.submit_status();
    txns.push_back(t);
  }
  for (auto& t : txns) {
    BRDB_RETURN_NOT_OK(t.WaitAllNodes(30000000));
  }
  return Status::OK();
}

/// Tracks per-transaction latency to majority commit. Created through
/// Create(): node subscriptions capture shared ownership, because
/// notifications can still fire after the load loop returns (late blocks,
/// node shutdown) — a raw `this` capture would dangle.
class LatencyTracker {
 public:
  explicit LatencyTracker(size_t majority) : majority_(majority) {}

  static std::shared_ptr<LatencyTracker> Create(BlockchainNetwork* net) {
    auto tracker =
        std::make_shared<LatencyTracker>(net->num_nodes() / 2 + 1);
    for (size_t i = 0; i < net->num_nodes(); ++i) {
      net->node(i)->Subscribe([tracker](const TxnNotification& n) {
        tracker->OnDecision(n);
      });
    }
    return tracker;
  }

  /// Record a submission. `scheduled_us` is the *intended* send instant of
  /// the open-loop schedule, not the actual one: measuring from the actual
  /// submit time hides coordinated omission — when the system stalls, the
  /// generator falls behind and the queueing delay every stalled
  /// transaction suffered vanishes from the percentiles. 0 (tests,
  /// closed-loop callers) falls back to now.
  void OnSubmit(const std::string& txid, Micros scheduled_us = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    submit_us_[txid] =
        scheduled_us != 0 ? scheduled_us : RealClock::Shared()->NowMicros();
  }

  struct Stats {
    uint64_t committed = 0;
    uint64_t aborted = 0;
    double mean_latency_ms = 0;
    double p50_latency_ms = 0;
    double p95_latency_ms = 0;
    double p99_latency_ms = 0;
  };

  Stats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.committed = committed_;
    s.aborted = aborted_;
    if (committed_ > 0) {
      s.mean_latency_ms =
          static_cast<double>(latency_us_total_) / 1000.0 /
          static_cast<double>(committed_);
    }
    std::vector<uint64_t> sorted = latencies_us_;
    std::sort(sorted.begin(), sorted.end());
    s.p50_latency_ms = PercentileMs(sorted, 50);
    s.p95_latency_ms = PercentileMs(sorted, 95);
    s.p99_latency_ms = PercentileMs(sorted, 99);
    return s;
  }

  /// Nearest-rank percentile over an already-sorted sample of microsecond
  /// latencies, in milliseconds. 0 when the sample is empty.
  static double PercentileMs(const std::vector<uint64_t>& sorted_us,
                             double pct) {
    if (sorted_us.empty()) return 0;
    size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(pct / 100.0 *
                                static_cast<double>(sorted_us.size()))));
    return static_cast<double>(sorted_us[rank - 1]) / 1000.0;
  }

 private:
  void OnDecision(const TxnNotification& n) {
    std::lock_guard<std::mutex> lock(mu_);
    auto sub = submit_us_.find(n.txid);
    if (sub == submit_us_.end()) return;  // bootstrap traffic
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
  mutable std::mutex mu_;
  std::map<std::string, Micros> submit_us_;
  std::map<std::string, Progress> progress_;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  uint64_t latency_us_total_ = 0;
  std::vector<uint64_t> latencies_us_;  ///< per-commit, submission order
};

struct LoadResult {
  double offered_tps = 0;
  double committed_tps = 0;
  double mean_latency_ms = 0;
  double p50_latency_ms = 0;
  double p95_latency_ms = 0;
  double p99_latency_ms = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  MetricsSnapshot node0;
};

/// Open-loop generator: submit `total` transactions at `rate` tps, then
/// wait for the network to drain. `make_args` builds each call's argument
/// list from the sequence number.
template <typename MakeArgs>
LoadResult RunLoad(BlockchainNetwork* net, Session* client,
                   const std::string& contract, double rate, int total,
                   MakeArgs make_args) {
  auto tracker_ptr = LatencyTracker::Create(net);
  LatencyTracker& tracker = *tracker_ptr;
  const auto& clock = RealClock::Shared();
  net->node(0)->metrics()->Reset();

  Micros start = clock->NowMicros();
  Micros gap = static_cast<Micros>(1e6 / rate);
  for (int i = 0; i < total; ++i) {
    Micros target = start + static_cast<Micros>(i) * gap;
    Micros now = clock->NowMicros();
    if (target > now) clock->SleepMicros(target - now);
    TxnHandle t = client->Submit(contract, make_args(i));
    // Latency is measured from the scheduled start (`target`), not from
    // the post-Submit clock: the open-loop contract is that transaction i
    // *should* have been sent at start + i*gap, and any generator lag is
    // system-induced queueing the percentiles must include.
    if (t.submit_status().ok()) tracker.OnSubmit(t.txid(), target);
  }
  Micros submit_end = clock->NowMicros();
  net->WaitIdle(300000, 60000000);
  Micros drain_end = clock->NowMicros();

  LoadResult r;
  auto stats = tracker.Snapshot();
  double submit_s = static_cast<double>(submit_end - start) / 1e6;
  double total_s = static_cast<double>(drain_end - start) / 1e6;
  r.offered_tps = static_cast<double>(total) / submit_s;
  r.committed_tps = static_cast<double>(stats.committed) / total_s;
  r.mean_latency_ms = stats.mean_latency_ms;
  r.p50_latency_ms = stats.p50_latency_ms;
  r.p95_latency_ms = stats.p95_latency_ms;
  r.p99_latency_ms = stats.p99_latency_ms;
  r.committed = stats.committed;
  r.aborted = stats.aborted;
  r.node0 = net->node(0)->metrics()->Snapshot();
  return r;
}

inline std::vector<Value> SimpleArgs(int i) {
  return {Value::Int(i), Value::Text("payload-" + std::to_string(i) +
                                     std::string(64, 'x'))};
}

// ---- HTAP analytics harness (columnar ledger history, ROADMAP item 3) ----
//
// After an OLTP phase builds committed history, the same analytical SELECT
// is timed on both execution paths of DatabaseNode::Query — kForceRow (the
// legacy MVCC row-store scan) and kDefault (vectorized scan over sealed
// columnar segments + row-store tail) — and compared byte for byte.

struct AnalyticsStats {
  double tps = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t rows = 0;  ///< result rows across all iterations
};

/// Time `iters` executions of `sql` (params rotating per iteration) on one
/// query path. Closed-loop: analytics queries are client-synchronous, so
/// scheduled-instant accounting does not apply here.
inline Result<AnalyticsStats> RunAnalyticsPath(
    DatabaseNode* node, const std::string& user, const std::string& sql,
    const std::vector<std::vector<Value>>& params, int iters,
    QueryPath path) {
  const auto& clock = RealClock::Shared();
  std::vector<uint64_t> lat_us;
  lat_us.reserve(static_cast<size_t>(iters));
  AnalyticsStats s;
  Micros t0 = clock->NowMicros();
  for (int i = 0; i < iters; ++i) {
    Micros q0 = clock->NowMicros();
    auto r = node->Query(user, sql,
                         params[static_cast<size_t>(i) % params.size()],
                         path);
    if (!r.ok()) return r.status();
    lat_us.push_back(static_cast<uint64_t>(clock->NowMicros() - q0));
    s.rows += r.value().rows.size();
  }
  double wall_s = static_cast<double>(clock->NowMicros() - t0) / 1e6;
  s.tps = wall_s > 0 ? static_cast<double>(iters) / wall_s : 0;
  uint64_t total = 0;
  for (uint64_t us : lat_us) total += us;
  s.mean_ms = static_cast<double>(total) / 1000.0 /
              static_cast<double>(lat_us.size());
  std::sort(lat_us.begin(), lat_us.end());
  s.p50_ms = LatencyTracker::PercentileMs(lat_us, 50);
  s.p95_ms = LatencyTracker::PercentileMs(lat_us, 95);
  s.p99_ms = LatencyTracker::PercentileMs(lat_us, 99);
  return s;
}

/// Byte-identical comparison of the two query paths at the current
/// (quiesced) snapshot height. Any divergence — status, column names, row
/// count, or any row's encoding — is an InternalError naming the first
/// mismatch.
inline Status CheckQueryParity(DatabaseNode* node, const std::string& user,
                               const std::string& sql,
                               const std::vector<Value>& params) {
  auto row = node->Query(user, sql, params, QueryPath::kForceRow);
  auto col = node->Query(user, sql, params, QueryPath::kDefault);
  if (row.ok() != col.ok()) {
    return Status::Internal(
        "parity: status diverged for \"" + sql + "\": row=" +
        (row.ok() ? "OK" : row.status().ToString()) + " columnar=" +
        (col.ok() ? "OK" : col.status().ToString()));
  }
  if (!row.ok()) return Status::OK();  // both failed identically by class
  const sql::ResultSet& a = row.value();
  const sql::ResultSet& b = col.value();
  if (a.columns != b.columns) {
    return Status::Internal("parity: column names diverged for \"" +
                                 sql + "\"");
  }
  if (a.rows.size() != b.rows.size()) {
    return Status::Internal(
        "parity: row count diverged for \"" + sql + "\": row-store " +
        std::to_string(a.rows.size()) + " vs columnar " +
        std::to_string(b.rows.size()));
  }
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (EncodeRow(a.rows[i]) != EncodeRow(b.rows[i])) {
      auto row_str = [](const Row& r) {
        std::string s = "(";
        for (size_t j = 0; j < r.size(); ++j) {
          if (j > 0) s += ", ";
          s += r[j].ToString();
        }
        return s + ")";
      };
      std::string extra;
      if (std::getenv("PARITY_DEBUG") != nullptr) {
        std::multiset<std::string> ea, eb;
        for (const Row& r : a.rows) ea.insert(r[0].ToString());
        for (const Row& r : b.rows) eb.insert(r[0].ToString());
        extra = "; only-row-store {";
        for (const auto& k : ea) {
          auto it = eb.find(k);
          if (it != eb.end()) { eb.erase(it); continue; }
          extra += k + " ";
        }
        extra += "} only-columnar {";
        for (const auto& k : eb) extra += k + " ";
        extra += "}";
      }
      return Status::Internal("parity: row " + std::to_string(i) +
                              " diverged for \"" + sql + "\": row-store " +
                              row_str(a.rows[i]) + " vs columnar " +
                              row_str(b.rows[i]) + extra);
    }
  }
  return Status::OK();
}

/// One figure's analytics workload: the timed query plus the parity query
/// list (each with rotating parameter sets).
struct AnalyticsBench {
  const char* name;  ///< "fig6" / "fig7"
  std::string measured_sql;
  std::vector<std::vector<Value>> measured_params;
  std::vector<std::pair<std::string, std::vector<std::vector<Value>>>>
      parity_queries;
};

inline NetworkOptions AnalyticsOptions(size_t block_size,
                                       size_t segment_blocks) {
  // Single-org network: the analytics split is node-local, and seeding
  // history once instead of three times keeps the bench fast.
  NetworkOptions opts =
      BenchOptions(TransactionFlow::kOrderThenExecute, block_size, 50000);
  opts.orgs = {"org1"};
  opts.node.analytics_segment_blocks = segment_blocks;
  return opts;
}

/// Build committed history (customers + orders via the seed procedures),
/// quiesce, and force-seal everything up to the committed height so the
/// measured columnar run reads sealed segments, not the row-store tail.
inline Status BuildAnalyticsHistory(BlockchainNetwork* net, Session* seeder,
                                    int customers, int orders) {
  BRDB_RETURN_NOT_OK(DeployWorkloadSchema(net, seeder, customers, orders));
  net->WaitIdle(200000, 120000000);
  DatabaseNode* node = net->node(0);
  if (node->history_builder() != nullptr &&
      !node->history_builder()->WaitForWatermark(node->Height())) {
    return Status::Internal("history builder did not reach the commit "
                            "frontier");
  }
  return Status::OK();
}

/// The measured row-vs-columnar comparison; writes BENCH_<name>.json.
/// Returns 1 (process exit code) on any failure.
inline int RunAnalyticsPhase(const AnalyticsBench& spec,
                             const std::string& json_path) {
  int customers = 100;
  int orders = 4000;
  if (const char* env = std::getenv("ANALYTICS_ORDERS")) {
    int v = std::atoi(env);
    if (v > 0) orders = v;
  }
  auto net = BlockchainNetwork::Create(AnalyticsOptions(200, 0));
  if (!net->Start().ok()) return 1;
  Session* seeder = net->CreateSession("org1", "seeder");
  Status st = BuildAnalyticsHistory(net.get(), seeder, customers, orders);
  if (!st.ok()) {
    std::fprintf(stderr, "history build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  DatabaseNode* node = net->node(0);
  const std::string user = "seeder";

  // Warm both paths (plan cache, first-touch allocations).
  for (int i = 0; i < 5; ++i) {
    auto a = node->Query(user, spec.measured_sql, spec.measured_params[0],
                         QueryPath::kForceRow);
    auto b = node->Query(user, spec.measured_sql, spec.measured_params[0],
                         QueryPath::kDefault);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   (!a.ok() ? a.status() : b.status()).ToString().c_str());
      return 1;
    }
  }

  // Interleave measurement windows so both paths sample the same noise;
  // keep the best round per path.
  const int iters = 200;
  AnalyticsStats row_best, col_best;
  for (int round = 0; round < 2; ++round) {
    auto row = RunAnalyticsPath(node, user, spec.measured_sql,
                                spec.measured_params, iters,
                                QueryPath::kForceRow);
    auto col = RunAnalyticsPath(node, user, spec.measured_sql,
                                spec.measured_params, iters,
                                QueryPath::kDefault);
    if (!row.ok() || !col.ok()) {
      std::fprintf(stderr, "measurement failed: %s\n",
                   (!row.ok() ? row.status() : col.status())
                       .ToString().c_str());
      return 1;
    }
    if (row.value().tps > row_best.tps) row_best = row.value();
    if (col.value().tps > col_best.tps) col_best = col.value();
  }
  if (row_best.rows != col_best.rows) {
    std::fprintf(stderr, "result cardinality diverged between paths\n");
    return 1;
  }

  // Parity spot-check at the measured height (the full multi-height gate
  // is --check-parity / the parity test).
  for (const auto& [sql, param_sets] : spec.parity_queries) {
    for (const auto& p : param_sets) {
      Status parity = CheckQueryParity(node, user, sql, p);
      if (!parity.ok()) {
        std::fprintf(stderr, "%s\n", parity.ToString().c_str());
        return 1;
      }
    }
  }

  MetricsSnapshot m = node->metrics()->Snapshot();
  double speedup = row_best.tps > 0 ? col_best.tps / row_best.tps : 0;
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s_analytics\",\n", spec.name);
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"customers\": %d,\n  \"orders\": %d,\n", customers,
               orders);
  std::fprintf(f, "  \"height\": %" PRIu64 ",\n",
               static_cast<uint64_t>(node->Height()));
  std::fprintf(f, "  \"segments_sealed\": %" PRIu64 ",\n",
               m.columnar_segments_sealed);
  std::fprintf(f, "  \"builder_lag\": %" PRIu64 ",\n", m.columnar_builder_lag);
  std::fprintf(f, "  \"vectorized_scans\": %" PRIu64 ",\n",
               m.vectorized_scans);
  std::fprintf(f, "  \"row_fallback_scans\": %" PRIu64 ",\n",
               m.row_fallback_scans);
  std::fprintf(f, "  \"zone_map_pruned_segments\": %" PRIu64 ",\n",
               m.zone_map_pruned_segments);
  std::fprintf(f, "  \"iters_per_round\": %d,\n", iters);
  auto emit_path = [&](const char* key, const AnalyticsStats& s,
                       bool last) {
    std::fprintf(f,
                 "  \"%s\": {\"tps\": %.1f, \"mean_ms\": %.3f, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 key, s.tps, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms,
                 last ? "" : ",");
  };
  emit_path("row_store", row_best, false);
  emit_path("columnar", col_best, false);
  std::fprintf(f, "  \"columnar_speedup\": %.2f\n}\n", speedup);
  std::fclose(f);
  std::printf("%s analytics: row %.1f qps, columnar %.1f qps -> %.2fx "
              "(sealed segments: %" PRIu64 ", wrote %s)\n",
              spec.name, row_best.tps, col_best.tps, speedup,
              m.columnar_segments_sealed, json_path.c_str());
  net->Stop();
  return 0;
}

/// The --check-parity gate: grow history in stages and compare the two
/// paths byte for byte at each stage's snapshot height — some stages with
/// the watermark caught up (pure sealed reads), some with the builder
/// lagging (sealed + row-store tail). Non-zero exit on any divergence.
inline int RunParityGate(const AnalyticsBench& spec) {
  const int kStages = 4;
  const int kCustomersPerStage = 25;
  const int kOrdersPerStage = 150;
  auto net = BlockchainNetwork::Create(AnalyticsOptions(20, 4));
  if (!net->Start().ok()) return 1;
  Session* seeder = net->CreateSession("org1", "seeder");
  for (const std::string& stmt : WorkloadSchemaStatements()) {
    if (!net->DeployContract(stmt).ok()) return 1;
  }
  DatabaseNode* node = net->node(0);
  const std::string user = "seeder";
  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  int failures = 0;
  uint64_t last_vectorized = 0;
  for (int stage = 0; stage < kStages; ++stage) {
    std::vector<TxnHandle> txns;
    for (int i = 0; i < kCustomersPerStage; ++i) {
      int id = stage * kCustomersPerStage + i;
      TxnHandle t = seeder->Submit(
          "seed_customer", {Value::Int(id), Value::Text(kRegions[id % 4])});
      if (t.submit_status().ok()) txns.push_back(t);
    }
    for (int i = 0; i < kOrdersPerStage; ++i) {
      int id = stage * kOrdersPerStage + i;
      TxnHandle t = seeder->Submit(
          "seed_order",
          {Value::Int(id), Value::Int(id % ((stage + 1) * kCustomersPerStage)),
           Value::Int(10 + id % 90)});
      if (t.submit_status().ok()) txns.push_back(t);
    }
    for (auto& t : txns) {
      (void)t.WaitAllNodes(30000000);
    }
    net->WaitIdle(150000, 60000000);
    // Even stages: force the watermark to the commit frontier (pure sealed
    // reads). Odd stages: leave the builder wherever it is, so the scan
    // mixes sealed segments with the row-store tail.
    if (stage % 2 == 0 && node->history_builder() != nullptr) {
      node->history_builder()->WaitForWatermark(node->Height());
    }
    for (const auto& [sql, param_sets] : spec.parity_queries) {
      for (const auto& p : param_sets) {
        Status st = CheckQueryParity(node, user, sql, p);
        if (!st.ok()) {
          std::fprintf(stderr, "stage %d (height %" PRIu64 "): %s\n", stage,
                       static_cast<uint64_t>(node->Height()),
                       st.ToString().c_str());
          ++failures;
        }
      }
    }
    uint64_t vectorized = node->metrics()->Snapshot().vectorized_scans;
    if (vectorized <= last_vectorized) {
      std::fprintf(stderr,
                   "stage %d: columnar path not engaged (vectorized_scans "
                   "stuck at %" PRIu64 ") — parity gate would be vacuous\n",
                   stage, vectorized);
      ++failures;
    }
    last_vectorized = vectorized;
  }
  net->Stop();
  if (failures > 0) {
    std::fprintf(stderr, "%s parity gate: %d failure(s)\n", spec.name,
                 failures);
    return 1;
  }
  std::printf("%s parity gate: row and columnar paths byte-identical at "
              "every stage\n", spec.name);
  return 0;
}

}  // namespace bench
}  // namespace brdb

#endif  // BRDB_BENCH_BENCH_COMMON_H_
