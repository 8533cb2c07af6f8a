// Per-node metrics matching the paper's micro metrics (§5):
//   brr — block receive rate (blocks/s at the middleware)
//   bpr — block processing rate (blocks/s committed)
//   bpt — mean block processing time (ms). Under the block pipeline this
//         is the sum of the block's own stage durations (verify + prepare
//         + commit-stage wall); time spent merely queued behind another
//         block's commit is excluded, so sums stay comparable to the
//         serial baseline.
//   bet — mean block execution time (ms: start of execution of all txns in
//         a block until all suspend for commit)
//   bct — mean block commit time (ms: bpt - bet, measured directly)
//   tet — mean transaction execution time (ms)
//   mt  — missing transactions per second (EOP only)
//   su  — system utilization: fraction of wall time the block processor
//         was busy (bpr * bpt in the paper)
#ifndef BRDB_CORE_METRICS_H_
#define BRDB_CORE_METRICS_H_

#include <atomic>
#include <cstdint>

#include "common/clock.h"

namespace brdb {

struct MetricsSnapshot {
  double elapsed_s = 0;
  uint64_t blocks_received = 0;
  uint64_t blocks_processed = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t missing_txns = 0;

  double brr = 0;     // blocks/s
  double bpr = 0;     // blocks/s
  double bpt_ms = 0;  // ms/block
  double bet_ms = 0;  // ms/block
  double bct_ms = 0;  // ms/block
  double tet_ms = 0;  // ms/txn
  double mt = 0;      // missing txns/s
  double su = 0;      // % busy
  double commit_tps = 0;

  // Block-pipeline stage latencies (ms/block) and occupancy: how many
  // blocks were in flight (prepared, not yet committed) when each commit
  // started. avg == 1.0 means the pipeline ran serially; > 1 means
  // verify/execute of later blocks actually overlapped commits.
  double stage_verify_ms = 0;
  double stage_prepare_ms = 0;
  double stage_commit_ms = 0;
  double pipeline_occupancy_avg = 0;
  uint64_t pipeline_occupancy_max = 0;

  // Failed durable-store appends (each is retried on the next enqueue or
  // fetch poll; see DatabaseNode::DrainPendingLocked).
  uint64_t block_append_failures = 0;

  // Gauge: the retry delay (ms) chosen by the append backoff after the
  // most recent failure; 0 once an append succeeds again.
  uint64_t block_append_retry_backoff_ms = 0;

  // Durable state checkpoints written by this node (crash recovery).
  uint64_t state_checkpoints_written = 0;

  // Height of the checkpoint this node restored from at startup (0 = cold
  // start / genesis replay).
  uint64_t restored_checkpoint_height = 0;

  // Columnar analytics (HTAP split, storage/columnar.h). Sealed history
  // segments built off the commit stream, the builder's lag behind the
  // committed height (gauge, blocks), segments skipped entirely by zone
  // maps, and how many SELECTs ran on the vectorized columnar path vs.
  // started there but fell back to the row store.
  uint64_t columnar_segments_sealed = 0;
  uint64_t columnar_builder_lag = 0;
  uint64_t zone_map_pruned_segments = 0;
  uint64_t vectorized_scans = 0;
  uint64_t row_fallback_scans = 0;
};

class NodeMetrics {
 public:
  NodeMetrics() { Reset(); }

  void Reset() {
    start_us_.store(RealClock::Shared()->NowMicros());
    blocks_received_ = 0;
    blocks_processed_ = 0;
    txns_committed_ = 0;
    txns_aborted_ = 0;
    missing_txns_ = 0;
    processing_us_ = 0;
    execution_us_ = 0;
    commit_us_ = 0;
    txn_exec_us_ = 0;
    txns_executed_ = 0;
    stage_verify_us_ = 0;
    stage_prepare_us_ = 0;
    stage_commit_us_ = 0;
    pipeline_blocks_ = 0;
    occupancy_sum_ = 0;
    occupancy_max_ = 0;
    block_append_failures_ = 0;
    block_append_retry_backoff_ms_ = 0;
    state_checkpoints_written_ = 0;
    restored_checkpoint_height_ = 0;
    columnar_segments_sealed_ = 0;
    columnar_builder_lag_ = 0;
    zone_map_pruned_segments_ = 0;
    vectorized_scans_ = 0;
    row_fallback_scans_ = 0;
  }

  void OnBlockReceived() { blocks_received_.fetch_add(1); }
  void OnBlockProcessed(Micros processing_us, Micros execution_us,
                        Micros commit_us) {
    blocks_processed_.fetch_add(1);
    processing_us_.fetch_add(static_cast<uint64_t>(processing_us));
    execution_us_.fetch_add(static_cast<uint64_t>(execution_us));
    commit_us_.fetch_add(static_cast<uint64_t>(commit_us));
  }
  void OnTxnExecuted(Micros exec_us) {
    txns_executed_.fetch_add(1);
    txn_exec_us_.fetch_add(static_cast<uint64_t>(exec_us));
  }
  void OnTxnCommitted() { txns_committed_.fetch_add(1); }
  void OnTxnAborted() { txns_aborted_.fetch_add(1); }

  void OnMissingTxn() { missing_txns_.fetch_add(1); }
  void OnBlockAppendFailure() { block_append_failures_.fetch_add(1); }
  void SetBlockAppendRetryBackoffMs(uint64_t ms) {
    block_append_retry_backoff_ms_.store(ms);
  }
  void OnStateCheckpointWritten() { state_checkpoints_written_.fetch_add(1); }
  void OnCheckpointRestore(uint64_t height) {
    restored_checkpoint_height_.store(height);
  }
  void OnPipelineBlock(Micros verify_us, Micros prepare_us, Micros commit_us,
                       uint64_t occupancy) {
    pipeline_blocks_.fetch_add(1);
    stage_verify_us_.fetch_add(static_cast<uint64_t>(verify_us));
    stage_prepare_us_.fetch_add(static_cast<uint64_t>(prepare_us));
    stage_commit_us_.fetch_add(static_cast<uint64_t>(commit_us));
    occupancy_sum_.fetch_add(occupancy);
    uint64_t prev = occupancy_max_.load(std::memory_order_relaxed);
    while (prev < occupancy &&
           !occupancy_max_.compare_exchange_weak(prev, occupancy)) {
    }
  }

  /// Columnar-history gauges, published by the commit path after each
  /// block (seals happen on the background builder thread).
  void SetColumnarProgress(uint64_t segments_sealed, uint64_t builder_lag) {
    columnar_segments_sealed_.store(segments_sealed,
                                    std::memory_order_relaxed);
    columnar_builder_lag_.store(builder_lag, std::memory_order_relaxed);
  }

  // Counter cells handed to sql::ExecOptions::Columnar so the executor
  // increments node metrics directly.
  std::atomic<uint64_t>* vectorized_scans_cell() { return &vectorized_scans_; }
  std::atomic<uint64_t>* row_fallback_scans_cell() {
    return &row_fallback_scans_;
  }
  std::atomic<uint64_t>* zone_map_pruned_cell() {
    return &zone_map_pruned_segments_;
  }

  uint64_t txns_committed() const { return txns_committed_.load(); }
  uint64_t txns_aborted() const { return txns_aborted_.load(); }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    Micros now = RealClock::Shared()->NowMicros();
    s.elapsed_s =
        static_cast<double>(now - start_us_.load()) / 1e6;
    if (s.elapsed_s <= 0) s.elapsed_s = 1e-9;
    s.blocks_received = blocks_received_.load();
    s.blocks_processed = blocks_processed_.load();
    s.txns_committed = txns_committed_.load();
    s.txns_aborted = txns_aborted_.load();
    s.missing_txns = missing_txns_.load();
    s.brr = static_cast<double>(s.blocks_received) / s.elapsed_s;
    s.bpr = static_cast<double>(s.blocks_processed) / s.elapsed_s;
    if (s.blocks_processed > 0) {
      s.bpt_ms = static_cast<double>(processing_us_.load()) / 1000.0 /
                 static_cast<double>(s.blocks_processed);
      s.bet_ms = static_cast<double>(execution_us_.load()) / 1000.0 /
                 static_cast<double>(s.blocks_processed);
      s.bct_ms = static_cast<double>(commit_us_.load()) / 1000.0 /
                 static_cast<double>(s.blocks_processed);
    }
    uint64_t executed = txns_executed_.load();
    if (executed > 0) {
      s.tet_ms = static_cast<double>(txn_exec_us_.load()) / 1000.0 /
                 static_cast<double>(executed);
    }
    uint64_t pipeline_blocks = pipeline_blocks_.load();
    if (pipeline_blocks > 0) {
      double blocks = static_cast<double>(pipeline_blocks);
      s.stage_verify_ms =
          static_cast<double>(stage_verify_us_.load()) / 1000.0 / blocks;
      s.stage_prepare_ms =
          static_cast<double>(stage_prepare_us_.load()) / 1000.0 / blocks;
      s.stage_commit_ms =
          static_cast<double>(stage_commit_us_.load()) / 1000.0 / blocks;
      s.pipeline_occupancy_avg =
          static_cast<double>(occupancy_sum_.load()) / blocks;
    }
    s.pipeline_occupancy_max = occupancy_max_.load();
    s.block_append_failures = block_append_failures_.load();
    s.block_append_retry_backoff_ms = block_append_retry_backoff_ms_.load();
    s.state_checkpoints_written = state_checkpoints_written_.load();
    s.restored_checkpoint_height = restored_checkpoint_height_.load();
    s.columnar_segments_sealed = columnar_segments_sealed_.load();
    s.columnar_builder_lag = columnar_builder_lag_.load();
    s.zone_map_pruned_segments = zone_map_pruned_segments_.load();
    s.vectorized_scans = vectorized_scans_.load();
    s.row_fallback_scans = row_fallback_scans_.load();
    s.mt = static_cast<double>(s.missing_txns) / s.elapsed_s;
    s.su = 100.0 * static_cast<double>(processing_us_.load()) /
           (s.elapsed_s * 1e6);
    if (s.su > 100.0) s.su = 100.0;
    s.commit_tps = static_cast<double>(s.txns_committed) / s.elapsed_s;
    return s;
  }

 private:
  std::atomic<Micros> start_us_{0};
  std::atomic<uint64_t> blocks_received_{0};
  std::atomic<uint64_t> blocks_processed_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> missing_txns_{0};
  std::atomic<uint64_t> processing_us_{0};
  std::atomic<uint64_t> execution_us_{0};
  std::atomic<uint64_t> commit_us_{0};
  std::atomic<uint64_t> txn_exec_us_{0};
  std::atomic<uint64_t> txns_executed_{0};
  std::atomic<uint64_t> stage_verify_us_{0};
  std::atomic<uint64_t> stage_prepare_us_{0};
  std::atomic<uint64_t> stage_commit_us_{0};
  std::atomic<uint64_t> pipeline_blocks_{0};
  std::atomic<uint64_t> occupancy_sum_{0};
  std::atomic<uint64_t> occupancy_max_{0};
  std::atomic<uint64_t> block_append_failures_{0};
  std::atomic<uint64_t> block_append_retry_backoff_ms_{0};
  std::atomic<uint64_t> state_checkpoints_written_{0};
  std::atomic<uint64_t> restored_checkpoint_height_{0};
  std::atomic<uint64_t> columnar_segments_sealed_{0};
  std::atomic<uint64_t> columnar_builder_lag_{0};
  std::atomic<uint64_t> zone_map_pruned_segments_{0};
  std::atomic<uint64_t> vectorized_scans_{0};
  std::atomic<uint64_t> row_fallback_scans_{0};
};

}  // namespace brdb

#endif  // BRDB_CORE_METRICS_H_
