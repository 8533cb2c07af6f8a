// TxnManager: transaction lifecycle, SIREAD bookkeeping, rw-dependency
// tracking and the paper's two commit-validation policies.
//
// Background (paper §3.2): an rw-dependency edge R -> W exists when reader R
// observed the version of an object that writer W replaced (or would match a
// predicate of R with a row W created). Every serialization-anomaly cycle
// contains two adjacent rw edges F -> N -> T ("farConflict -> nearConflict
// -> committing transaction"); aborting the pivot N breaks the cycle.
//
// Two policies implement the paper's variants:
//  * kAbortDuringCommit (order-then-execute, §3.3.3): classic Ports &
//    Grittner validation run serially in block order. All transactions of a
//    block finish execution before the first commit, so the dependency graph
//    is complete and identical on every node; serial validation in block
//    order therefore aborts the same transactions everywhere.
//  * kBlockAware (execute-order-in-parallel, §3.4.3, Table 2): additionally
//    considers whether near/far conflicts belong to the committing block,
//    aborting cross-block nearConflicts unconditionally (they could be a
//    stale read on another node) and resolving same-block pairs by their
//    deterministic position in the block.
//
// Concurrency architecture: executor threads doing MVCC reads and SSI
// bookkeeping run concurrently; only the commit-validation phase is serial
// (block order, as the paper requires for determinism). To keep the
// concurrent phase off a single mutex the state is striped:
//  * the transaction registry is sharded by TxnId (atomic id/CSN counters),
//  * predicate-reader lists (which double as the SIREAD locks) are striped
//    by table,
//  * each TxnInfo carries its own mutex for its conflict sets; state,
//    doom flag and commit CSN are published through atomics.
// Lock order is always "one shard/stripe mutex, then at most one TxnInfo
// conflict-slot mutex"; no two shard locks nest, so the scheme is
// deadlock-free. Stripe count 1 degenerates to the original single-mutex
// design and is kept selectable as the benchmark baseline.
//
// Partitioned execution (ROADMAP item 4) layers a coarser, deterministic
// sibling of the striping on top: with P partition groups every stripe
// vector holds P disjoint groups of stripes. A row's partition is a pure
// function of its partition-column value (storage/partition.h); a
// predicate pinned to one partition (equality on the partition column)
// lands in that partition's group and every other predicate in group 0,
// writes probe with the partition of the row they touch, and each TxnInfo
// keeps one conflict slot per partition plus a touched-partition bitmask.
// A transaction that only touched one partition validates against that
// slot alone — no cross-partition coordination; a multi-partition
// transaction merges its touched slots in ascending partition order at its
// (serial, block-ordered) commit slot. Because registration and probing use the same
// pure partition function, the merged edge set is the union over slots
// and therefore independent of P — commit/abort decisions and write-set
// hashes are byte-identical across partition counts {1, 2, 8} (check.sh
// invariant). P = 1 reproduces the pre-partitioning layout exactly,
// including TxnId allocation order.
#ifndef BRDB_TXN_TXN_MANAGER_H_
#define BRDB_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/table.h"
#include "txn/types.h"

namespace brdb {

/// Commit-validation policy (one per transaction flow).
enum class SsiPolicy {
  kAbortDuringCommit,  ///< order-then-execute
  kBlockAware,         ///< execute-order-in-parallel (paper Table 2)
};

/// A predicate read: "transaction T scanned `table` for rows whose
/// `column` value lies in [lo, hi]". A full scan is column = -1.
///
/// The same registration is the scan's SIREAD lock, relation- or
/// range-granular like PostgreSQL's (Ports & Grittner, VLDB 2012):
/// `horizon` is the table's version count at the instant the scan drew its
/// id list, and the scan read exactly the non-vacuumed versions below it
/// that the predicate covers. The cell is shared by every copy of the
/// registration, holds 0 until the scan publishes it
/// (TxnManager::PublishHorizon) and is accessed under the owning predicate
/// stripe's mutex. Null for predicates built outside a scan (tests).
struct PredicateRead {
  TableId table = 0;
  int column = -1;
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;
  std::shared_ptr<RowId> horizon;

  /// Whether the scan's id list could hold version `row`: always for
  /// kInvalidRowId (an insert probe, phantom coverage), else iff `row` lies
  /// below the published horizon.
  bool Reaches(RowId row) const {
    return row == kInvalidRowId || (horizon != nullptr && row < *horizon);
  }

  bool Covers(const Row& values) const {
    if (column < 0) return true;
    const Value& v = values[static_cast<size_t>(column)];
    if (lo.has_value()) {
      int c = v.Compare(*lo);
      if (c < 0 || (c == 0 && !lo_inclusive)) return false;
    }
    if (hi.has_value()) {
      int c = v.Compare(*hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) return false;
    }
    return true;
  }
};

/// Sublinear phantom-detection index over one table's registered predicate
/// reads. The seed walked every predicate of the table per write; this
/// partitions predicates so a write probes only the ones that could cover
/// its new values:
///  * full-table scans (column < 0) — always probed (they cover anything);
///  * per column, int-bounded ranges bucketed by `key >> kBucketShift` —
///    a write probes the single bucket of its value, so point lookups and
///    narrow ranges (the EOP-mandated index scans) cost O(bucket);
///  * per column, text-bounded ranges bucketed by a big-endian uint64 of
///    the first 8 bytes, under a shift ladder: each predicate registers at
///    the smallest byte-aligned shift whose bucket span stays narrow, so a
///    point lookup ("name = 'alice'") lands at shift 0 and a prefix range
///    ("k0000".."k0999", 5 shared lead bytes) a few levels up; a write
///    probes one bucket per populated level (at most 8);
///  * a per-column "wide" list for everything else (unbounded or
///    mixed-type bounds, ranges spanning > kMaxBucketSpan buckets at every
///    ladder level).
/// Matching candidates are still checked with PredicateRead::Covers, so the
/// rw-edge set is exactly the one the linear walk produced — bucketing only
/// prunes predicates that provably cannot cover the value (a double value
/// below 2^53 probes the bucket of its floor, which any covering int range
/// contains; NaN and magnitudes at or beyond 2^53, where int->double
/// comparison turns lossy, degenerate to probing every bucket; bool/text/
/// null values sit outside every both-int-bounded range, and non-text
/// values outside every both-text-bounded range, under Value::Compare's
/// type ordering — the uint64 prefix key is monotone in lexicographic
/// order, so a covering text range always contains the value's key).
/// Guarded by the owning stripe's mutex.
class PredicateIndex {
 public:
  void Add(TxnId reader, const PredicateRead& predicate);

  /// Append the readers of every predicate covering `values` to `out`
  /// (duplicates possible when one reader registered several covering
  /// predicates — exactly like the linear walk; edge insertion dedups).
  /// `row` = kInvalidRowId probes for new values (phantoms); a version id
  /// probes for the readers of that version (`values` are its values):
  /// only predicates whose horizon lies beyond it match.
  void Match(const Row& values, std::vector<TxnId>* out,
             RowId row = kInvalidRowId) const;

  /// Drop every predicate registered by one of `readers` (GC).
  void RemoveReaders(const std::unordered_set<TxnId>& readers);

  bool empty() const { return size_ == 0; }
  /// Stored entries (a range spanning several buckets counts once per
  /// bucket copy). Observability only.
  size_t size() const { return size_; }

 private:
  struct Entry {
    TxnId reader = 0;
    PredicateRead predicate;
  };
  struct ColumnIndex {
    std::unordered_map<int64_t, std::vector<Entry>> buckets;
    /// Text shift ladder: shift (0, 8, .., 56) -> prefix-key bucket ->
    /// entries. std::map: iteration probes the populated levels only, and
    /// there are at most 8.
    std::map<int, std::unordered_map<uint64_t, std::vector<Entry>>>
        text_levels;
    std::vector<Entry> wide;
  };

  static constexpr int kBucketShift = 6;  ///< 64-wide int key buckets
  /// Ranges spanning more buckets than this register in `wide` instead
  /// (bounds the per-predicate duplication to kMaxBucketSpan entries).
  static constexpr int64_t kMaxBucketSpan = 8;

  /// First 8 bytes of `s`, big-endian, zero-padded: monotone with respect
  /// to lexicographic order (s1 <= s2 implies Pack(s1) <= Pack(s2)).
  static uint64_t PackTextPrefix(const std::string& s);

  static void ProbeList(const std::vector<Entry>& entries, const Row& values,
                        RowId row, std::vector<TxnId>* out);

  std::vector<Entry> full_scans_;
  std::unordered_map<int, ColumnIndex> by_column_;
  size_t size_ = 0;
};

/// One entry of a transaction's write set.
struct WriteRecord {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  TableId table = 0;
  RowId new_row = kInvalidRowId;   ///< inserted version (insert/update)
  RowId base_row = kInvalidRowId;  ///< replaced/deleted version (update/delete)
};

/// One partition's share of a transaction's SSI dependency sets:
/// in = {R : R ->rw this}, out = {W : this ->rw W}, restricted to edges
/// whose conflicting access happened in this partition.
struct ConflictSlot {
  mutable std::mutex mu;
  std::set<TxnId> in;
  std::set<TxnId> out;
};

/// All state of one node-local transaction.
///
/// Thread-safety contract: `id`, `global_id`, `snapshot`, `begin_csn` and
/// `home_partition` are immutable after Begin(). `predicates` and `writes`
/// are written only by the owning executor thread (and read by the serial
/// commit phase, which the execution barrier orders after
/// execution). `state` and `doomed` are atomics; `commit_csn`/
/// `commit_block` are published by the release store of
/// `state = kCommitted`. `doom_reason` is guarded by `doom_mu`; each
/// conflict slot is guarded by its own mutex. `touched_partitions` is a
/// bitmask (bit p = this transaction read, wrote or scanned partition p);
/// `merge_ns` is written only by the serial commit thread.
struct TxnInfo {
  TxnId id = 0;
  std::string global_id;  ///< Transaction::id() carried in the block
  std::atomic<TxnState> state{TxnState::kActive};
  Snapshot snapshot;
  Csn begin_csn = 0;
  Csn commit_csn = 0;
  BlockNum commit_block = 0;  ///< block this txn committed in
  int block_pos = -1;         ///< position within the committing block
  uint32_t home_partition = 0;  ///< executor-group routing hint only

  // Doom: a decision by SSI/ww-resolution that this transaction must abort
  // when it reaches its commit point (or immediately if still executing).
  std::atomic<bool> doomed{false};
  mutable std::mutex doom_mu;
  Status doom_reason;  ///< guarded by doom_mu

  // Partition-local SSI dependency slots (num_slots == partition count;
  // allocated by Begin). std::mutex is not movable, so the slots live in a
  // fixed-size array rather than a vector.
  uint32_t num_slots = 0;
  std::unique_ptr<ConflictSlot[]> slots;
  std::atomic<uint64_t> touched_partitions{0};
  uint64_t merge_ns = 0;  ///< commit thread only: last conflict-merge cost

  void TouchPartition(uint32_t p) {
    touched_partitions.fetch_or(1ULL << p, std::memory_order_acq_rel);
  }
  void TouchAllPartitions() {
    uint64_t all =
        num_slots >= 64 ? ~0ULL : ((1ULL << num_slots) - 1);
    touched_partitions.fetch_or(all, std::memory_order_acq_rel);
  }

  /// Observability/tests: whether an edge to/from `other` exists in any
  /// slot (locks each slot in turn).
  bool HasInConflict(TxnId other) const;
  bool HasOutConflict(TxnId other) const;

  // Read/write sets (owner thread only). The predicates are also the
  // transaction's SIREAD locks (PredicateRead::horizon).
  std::vector<PredicateRead> predicates;
  std::vector<WriteRecord> writes;
};

/// What RecordPredicate returns: where the scan publishes its SIREAD
/// horizon (TxnManager::PublishHorizon). `horizon` points at the
/// registration's shared cell, which the reader's TxnInfo::predicates entry
/// keeps alive.
struct PredicateHandle {
  TableId table = 0;
  uint32_t group = 0;
  RowId* horizon = nullptr;
};

/// Tuning knobs for the transaction manager's lock striping.
struct TxnManagerOptions {
  /// Number of lock stripes for the registry shards and predicate maps.
  /// Rounded up to a power of two. 0 picks the default, which scales with
  /// the hardware: 4x the core count, clamped to
  /// [4, 128]. 1 reproduces the historical single-mutex behavior and is
  /// used as the benchmark baseline.
  size_t stripes = 0;

  /// Partition-group count (ROADMAP item 4). Rounded up to a power of
  /// two, clamped to [1, kMaxPartitions]. Every stripe vector is
  /// replicated per partition group and TxnIds are allocated from
  /// per-partition sequences; 1 (the default) is byte-identical to the
  /// pre-partitioning behavior. Partition assignment itself is a pure
  /// function of the row key, so this knob must never change commit/abort
  /// decisions — only which executor group and which stripe group does
  /// the work.
  size_t partitions = 1;
};

/// Observability counters for the partitioned fast path: how many commit
/// validations merged a single touched partition slot (no cross-partition
/// coordination) vs several, and the total nanoseconds spent in
/// cross-partition conflict merges.
struct TxnPartitionCounters {
  uint64_t single_partition_validations = 0;
  uint64_t multi_partition_validations = 0;
  uint64_t cross_partition_merge_ns = 0;
};

/// Combined single-lookup view of another transaction's commit status.
/// For an unknown (garbage-collected) id `known` is false and the state
/// reads kCommitted with commit_csn 0 — "committed long ago"; the GC
/// horizon guarantees no active snapshot can be affected.
struct TxnStatusView {
  TxnState state = TxnState::kCommitted;
  Csn begin_csn = 0;
  Csn commit_csn = 0;
  BlockNum commit_block = 0;
  bool doomed = false;
  bool known = false;
};

class TxnManager {
 public:
  TxnManager() : TxnManager(TxnManagerOptions{}) {}
  explicit TxnManager(const TxnManagerOptions& options);

  /// Start a transaction with the given snapshot. `global_id` is the
  /// network-wide transaction id (may be empty for local/internal work).
  /// For CSN snapshots the GC horizon is clamped to the snapshot's CSN so
  /// a caller-sampled (possibly stale) snapshot can never be overtaken by
  /// garbage collection. `home_partition` is the executor-group routing
  /// hint; it selects the TxnId allocation sequence but never affects
  /// commit decisions (decisions only compare ids for equality).
  TxnInfo* Begin(Snapshot snapshot, std::string global_id = "",
                 uint32_t home_partition = 0);

  /// Start a transaction reading at the current CSN. The snapshot CSN is
  /// sampled under the registry shard lock, making it atomic against the
  /// GC horizon computation — prefer this over
  /// Begin(Snapshot::AtCsn(CurrentCsn())), whose two steps leave a window
  /// where GC can collect transactions the snapshot still needs.
  TxnInfo* BeginAtCurrentCsn(std::string global_id = "",
                             uint32_t home_partition = 0);

  /// Current commit sequence number (the snapshot a new CSN transaction
  /// should read at).
  Csn CurrentCsn() const { return csn_.load(std::memory_order_acquire); }

  TxnInfo* Get(TxnId id);
  const TxnInfo* Get(TxnId id) const;

  TxnState StateOf(TxnId id) const;
  bool IsAborted(TxnId id) const;

  /// Commit CSN of a transaction (0 when not committed).
  Csn CommitCsnOf(TxnId id) const;
  BlockNum CommitBlockOf(TxnId id) const;

  /// One-lookup combined view (hot path: MVCC visibility checks).
  TxnStatusView StatusViewOf(TxnId id) const;

  /// Stripes per partition group times the partition count.
  size_t stripes() const { return shards_.size(); }

  /// Normalized (power-of-two) partition-group count.
  size_t partitions() const { return partitions_; }

  /// Snapshot of the partitioned-validation counters.
  TxnPartitionCounters partition_counters() const;

  // ---- SSI bookkeeping (called from TxnContext during execution) ----
  //
  // The `partition` arguments are the partition of the ROW the access
  // touched (Table::PartitionOf — a pure function of the row's
  // partition-column value). Registration and probing must agree on it;
  // callers that run with a single partition group may leave the defaults.

  /// Record a predicate scan. `partition` >= 0 pins the predicate to one
  /// partition group (only writes hashing there can match — an equality
  /// predicate on the table's partition column); -1 registers it in the
  /// shared group 0, which every write probes, and marks the reader as
  /// touching every partition. The registration covers inserts at once and
  /// the versions the scan read once PublishHorizon stamps it.
  PredicateHandle RecordPredicate(TxnInfo* reader, PredicateRead predicate,
                                  int partition = -1);

  /// Publish a registered scan's horizon (the table's version count when
  /// its id list was drawn), under the predicate stripe lock.
  void PublishHorizon(const PredicateHandle& handle, RowId horizon);

  /// Record a write and create writer-side rw edges: readers whose scans
  /// read the base version and predicate readers covering the new values
  /// become in-conflicts of `writer`. `new_partition`/`base_partition` are
  /// the partitions of the written/replaced versions.
  void RecordWrite(TxnInfo* writer, const WriteRecord& write,
                   const Row* new_values, const Row* base_values,
                   uint32_t new_partition = 0, uint32_t base_partition = 0);

  /// Reader-side rw edge: `reader` observed that `writer` created a newer,
  /// snapshot-invisible version (or an invisible matching insert) in
  /// `partition`.
  void AddRwEdge(TxnId reader, TxnId writer, uint32_t partition = 0);

  /// Doom a transaction: it must abort at (or before) its commit point.
  /// The first doom reason sticks.
  void Doom(TxnId txn, const Status& reason);
  bool IsDoomed(TxnId txn) const;
  Status DoomReason(TxnId txn) const;

  // ---- Serial commit pipeline (called by the block processor) ----

  /// Run SSI commit validation for `txn`, which is committing at position
  /// `block_pos` of block `block` whose transaction membership (node-local
  /// txn ids, in block order) is `block_members`. May doom other
  /// transactions; returns non-OK if `txn` itself must abort. Must be
  /// called serially, in block order.
  Status ValidateForCommit(TxnInfo* txn, SsiPolicy policy, BlockNum block,
                           int block_pos,
                           const std::vector<TxnId>& block_members);

  /// Finalize `txn` as committed at `block`; assigns its commit CSN.
  void MarkCommitted(TxnInfo* txn, BlockNum block);

  /// Finalize `txn` as aborted.
  void MarkAborted(TxnInfo* txn);

  /// Drop bookkeeping for finished transactions no active transaction can
  /// still conflict with. Returns the number of transactions collected.
  size_t GarbageCollect();

  size_t TrackedCount() const;

 private:
  // One shard of the transaction registry.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<TxnId, std::unique_ptr<TxnInfo>> txns;
  };

  // One stripe of the predicate-reader map: table -> interval/bucket index
  // over that table's registered predicates.
  struct PredicateStripe {
    mutable std::mutex mu;
    std::unordered_map<TableId, PredicateIndex> by_table;
  };

  // Stripe vectors hold `partitions_` disjoint groups of
  // `stripe_mask_ + 1` stripes each; shard_mask_ spans the whole vector,
  // so ShardOf's id masking is unchanged by partitioning (per-partition
  // TxnId sequences keep the groups' id residues disjoint).
  Shard& ShardOf(TxnId id) { return shards_[id & shard_mask_]; }
  const Shard& ShardOf(TxnId id) const { return shards_[id & shard_mask_]; }
  PredicateStripe& PredicateStripeOf(uint32_t partition, TableId table) {
    return predicate_stripes_[partition * (stripe_mask_ + 1) +
                              (static_cast<size_t>(table) & stripe_mask_)];
  }

  /// Run `fn(TxnInfo*)` with the owning shard locked; false when unknown.
  template <typename Fn>
  bool WithTxn(TxnId id, Fn fn) const;

  /// True unless one of the two committed before the other began.
  static bool Concurrent(const TxnStatusView& a, const TxnInfo& b);

  /// Add the rw edge reader -> writer in both parties' slot `partition`
  /// (skips aborted/unknown endpoints).
  void AddEdge(TxnId reader, TxnId writer, uint32_t partition);

  /// Writer-side edges for one write probe: every concurrent reader whose
  /// predicate on `table` matches (`values`, `row`) — PredicateIndex::Match
  /// semantics — gets reader ->rw writer in slot `partition`, the partition
  /// of the version probed. Probes the groups {partition, 0}: a pinned
  /// predicate lives in the group of its equality value, which is the
  /// partition of every row it covers, and every other one in group 0.
  void AddPredicateEdges(TxnInfo* writer, TableId table, const Row& values,
                         RowId row, uint32_t partition);

  /// Merge a transaction's conflict set (in or out) across its touched
  /// slots, ascending partition order, each slot copied under its own
  /// lock. Returns a sorted, deduplicated id list.
  std::vector<TxnId> CopyConflicts(TxnId id, bool in) const;

  /// The same two-phase merge for the committing transaction itself
  /// (phase 1: lock + copy each touched slot in ascending partition
  /// order; phase 2: union). Sorted and deduplicated by construction.
  static void MergeConflictsOf(const TxnInfo* txn, std::vector<TxnId>* ins,
                               std::vector<TxnId>* outs);

  Status ValidateAbortDuringCommit(TxnInfo* txn,
                                   const std::vector<TxnId>& ins,
                                   const std::vector<TxnId>& outs);
  Status ValidateBlockAware(TxnInfo* txn, BlockNum block,
                            const std::vector<TxnId>& block_members,
                            const std::vector<TxnId>& ins,
                            const std::vector<TxnId>& outs);

  /// id = seq * partitions_ + partition + 1: partition-disjoint id
  /// streams; partitions_ == 1 degenerates to the historical 1, 2, 3...
  TxnId AllocateId(uint32_t partition);

  size_t partitions_ = 1;
  size_t stripe_mask_ = 0;  ///< stripes per partition group - 1
  std::unique_ptr<std::atomic<TxnId>[]> next_seq_;
  std::atomic<Csn> csn_{0};
  std::atomic<uint64_t> single_partition_validations_{0};
  std::atomic<uint64_t> multi_partition_validations_{0};
  std::atomic<uint64_t> cross_partition_merge_ns_{0};
  /// Serializes commit-CSN assignment so the committed state is published
  /// (release store of `state`) strictly BEFORE CurrentCsn() exposes the
  /// new CSN — a snapshot at CSN N must see every transaction with
  /// commit_csn <= N as committed.
  std::mutex commit_mu_;
  size_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::vector<PredicateStripe> predicate_stripes_;
};

}  // namespace brdb

#endif  // BRDB_TXN_TXN_MANAGER_H_
