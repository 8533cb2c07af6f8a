// BlockPipeline: staged block processing with a bounded in-flight window.
//
// The paper's ordered-commit design serializes only the *commit* phase per
// block; verification and execution of later blocks may proceed as soon as
// their snapshots are decided (§3.3/§3.4). The seed's BlockProcessorLoop
// ran verify -> execute -> commit -> notify strictly one block at a time,
// so the executor pool and the batch signature verifier idled during every
// serial commit. This subsystem splits the loop into explicit stages:
//
//   stage 1  batch signature verification (SignatureVerifier)
//   stage 2  execution start + pgledger row writes + (implicit) wait for
//            execution completion
//   stage 3  serial block-order commit + registry ops + checkpointing +
//            decision notifications
//
// Stages 1+2 run on a dedicated prepare thread, stage 3 on a dedicated
// commit thread; at most `depth` blocks are in flight (prepared or
// committing) at once. depth = 1 reproduces the legacy serial loop
// exactly: block N+1's prepare is only admitted once block N committed.
// With depth >= 2, block N+1's signature verification and execution
// overlap block N's serial commit while stage 3 — and therefore every
// commit/abort decision and every notification — remains strictly
// block-ordered. Determinism across depths rests on the block-aware SSI
// rules (txn/txn_manager.h): a conflict with an earlier block manifests
// either as a recorded rw edge to a committed transaction (overlapped
// execution) or as a stale/phantom read (serial execution) — both abort.
#ifndef BRDB_CORE_BLOCK_PIPELINE_H_
#define BRDB_CORE_BLOCK_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "wire/block.h"

namespace brdb {

/// Per-transaction execution bookkeeping, owned by the pipeline's user
/// (DatabaseNode defines it in core/node.h); the pipeline only carries
/// the shared_ptrs between stages.
struct ExecEntry;

/// One block moving through the pipeline.
struct BlockWork {
  Block block;
  std::vector<std::shared_ptr<ExecEntry>> entries;
  Micros t0 = 0;          ///< prepare-stage start
  Micros verify_us = 0;   ///< stage-1 latency (batch signature verify)
  Micros prepare_us = 0;  ///< stage-2 latency (exec start + ledger rows)
  bool aborted = false;   ///< prepare interrupted by shutdown; skip commit
};

class BlockPipeline {
 public:
  struct Hooks {
    /// Fetch block `n`, or wait until something may have changed (the
    /// wake-up and gap-fetch logic lives in the owner). False = nothing
    /// ready yet (or stopping); the prepare loop simply calls again.
    std::function<bool(BlockNum n, Block* out)> fetch;
    /// Stages 1+2. Runs on the prepare thread, one block at a time, in
    /// block order. Must not block on stage 3 of any block >= this one.
    std::function<void(BlockWork*)> prepare;
    /// Stage 3. Runs on the commit thread, strictly in block order; the
    /// owner publishes its committed height and delivers notifications
    /// inside this hook (so their order matches block order).
    std::function<void(BlockWork*)> commit;
  };

  /// `depth` = max blocks in flight (prepared or committing) at once;
  /// 1 reproduces the legacy serial loop, 0 is clamped to 1.
  BlockPipeline(size_t depth, Hooks hooks);
  ~BlockPipeline();

  /// Start both stage threads; `committed_height` seeds the window (the
  /// owner's recovery height).
  void Start(BlockNum committed_height);

  /// Stop both threads. Blocks already prepared are still committed (the
  /// commit thread drains its queue) so a restart never re-runs stage 2
  /// for a block whose pgledger rows were already written.
  void Stop();

  size_t depth() const { return depth_; }
  BlockNum prepared_height() const;
  BlockNum committed_height() const;
  /// Blocks currently in flight (prepared, not yet committed) — the
  /// pipeline occupancy gauge.
  size_t InFlight() const;

 private:
  void PrepareLoop();
  void CommitLoop();

  const size_t depth_;
  Hooks hooks_;
  std::atomic<bool> running_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<BlockWork>> ready_;  ///< prepared, uncommitted
  bool prepare_exited_ = false;  ///< commit drains only after prepare quits
  BlockNum prepared_height_ = 0;
  BlockNum committed_height_ = 0;
  std::thread prepare_thread_;
  std::thread commit_thread_;
};

}  // namespace brdb

#endif  // BRDB_CORE_BLOCK_PIPELINE_H_
