// Table: an append-only heap of row versions plus ordered indexes.
//
// Like PostgreSQL (paper §4.1), an UPDATE never modifies a row in place: it
// flags the old version as deleted (xmax / deleter block) and appends a new
// version. All versions are retained, which is what makes the block-height
// snapshot (Figure 3) and provenance queries (§4.2) possible. Unlike vanilla
// PostgreSQL, a row version accepts multiple concurrent xmax *candidates*
// (§3.3.3): competing writers never block; the serial commit phase lets the
// block-order winner finalize the delete and dooms the losers.
//
// Thread-safety: version payloads (values, xmin, prev link) are immutable
// after append and may be read without locking; the mutable metadata (xmax,
// candidates, creator/deleter block, next link) is accessed through locked
// accessors. Index structures are guarded by the same mutex.
//
// The version heap is an append-only chunked arena (exponentially growing
// chunks behind an atomic chunk directory, size published with a release
// store) so that the lock-free payload reads are actually race-free: a
// std::deque would move its internal bookkeeping under concurrent
// push_back, which is exactly the kind of silent data race ThreadSanitizer
// flags.
#ifndef BRDB_STORAGE_TABLE_H_
#define BRDB_STORAGE_TABLE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/btree.h"
#include "storage/schema.h"
#include "txn/types.h"

namespace brdb {

inline constexpr RowId kInvalidRowId = ~0ULL;

/// One stored version of a logical row.
struct RowVersion {
  // Immutable after append.
  TxnId xmin = 0;                   ///< creating transaction
  RowId prev_version = kInvalidRowId;
  Row values;

  // Mutable, guarded by the table mutex.
  bool creator_aborted = false;     ///< creating txn aborted: never visible
  TxnId xmax = 0;                   ///< committed deleter (0 = live)
  std::vector<TxnId> xmax_candidates;  ///< uncommitted competing deleters
  BlockNum creator_block = 0;       ///< block whose commit created the row
  BlockNum deleter_block = 0;       ///< block whose commit deleted the row
  RowId next_version = kInvalidRowId;
};

/// Snapshot of the mutable metadata of one version, copied under lock.
struct VersionMeta {
  TxnId xmin = 0;
  bool creator_aborted = false;
  TxnId xmax = 0;
  std::vector<TxnId> xmax_candidates;
  BlockNum creator_block = 0;
  BlockNum deleter_block = 0;
  RowId next_version = kInvalidRowId;
  RowId prev_version = kInvalidRowId;
};

class Table {
 public:
  Table(TableId id, TableSchema schema, std::string db_schema);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const TableSchema& schema() const { return schema_; }
  TableSchema* mutable_schema() { return &schema_; }

  /// "blockchain" or "private" (paper §3.7's non-blockchain schema).
  const std::string& db_schema() const { return db_schema_; }

  /// Create an ordered index on `column`; backfills existing versions.
  Status CreateIndex(const std::string& column);
  bool HasIndexOn(int column) const;

  /// Run `fn` with the index on `column` under the table lock (nullptr when
  /// absent). Observability only — compaction stats, leaf counts; must not
  /// mutate or retain the pointer.
  void WithIndexOn(int column,
                   const std::function<void(const BTreeRowIndex*)>& fn) const;

  /// Append a new version created by `xmin`; registers it in every index
  /// immediately (so concurrent scans can detect invisible-but-matching
  /// versions for SSI phantom tracking). Returns its RowId.
  RowId AppendVersion(TxnId xmin, Row values, RowId prev_version);

  size_t NumVersions() const;

  /// Immutable payload access (safe without the lock). An invalid RowId is
  /// a caller bug; it fails loudly (BRDB_CHECK) instead of reading out of
  /// bounds.
  ///
  /// Lifetime: the returned reference stays valid, and its row unchanged,
  /// for as long as the Table exists. Payloads are never written after
  /// append, the arena never moves a slot (later appends add chunks), and
  /// Vacuum only marks a slot dead without freeing it. A dropped table is
  /// retired, not destroyed, until the Database goes away. The SQL
  /// executor relies on this: it reads scanned rows in place instead of
  /// copying them, even while the same statement appends versions.
  const Row& ValuesOf(RowId id) const;
  TxnId XminOf(RowId id) const;

  /// Copy of the mutable metadata. Fails loudly on an invalid RowId.
  VersionMeta MetaOf(RowId id) const;

  /// Batch variant: copies the metadata of `count` ids under ONE lock
  /// acquisition into `out` (grown to count; element capacity is reused
  /// across calls). Scan loops use this instead of per-row MetaOf.
  void MetasOf(const RowId* ids, size_t count,
               std::vector<VersionMeta>* out) const;
  void MetasOf(const std::vector<RowId>& ids,
               std::vector<VersionMeta>* out) const {
    MetasOf(ids.data(), ids.size(), out);
  }

  /// Register `txn` as an uncommitted deleter of `id`. Multiple candidates
  /// are allowed; a committed xmax rejects further candidates.
  Status AddXmaxCandidate(RowId id, TxnId txn);

  /// Undo a candidate registration (abort path).
  void RemoveXmaxCandidate(RowId id, TxnId txn);

  /// Commit-time: `winner` becomes the committed deleter at `block`; all
  /// other candidates are returned so the caller can doom them.
  std::vector<TxnId> FinalizeDelete(RowId id, TxnId winner, BlockNum block);

  /// Commit-time: stamp the creating block of a version.
  void SetCreatorBlock(RowId id, BlockNum block);

  /// Abort-time tombstone: the creating transaction rolled back, so this
  /// version must never become visible (persists across transaction-manager
  /// garbage collection).
  void MarkCreatorAborted(RowId id);

  /// Link old -> new version after an update commits (provenance chain).
  void LinkNextVersion(RowId old_id, RowId next_id);

  /// All version ids, in append order (full scan).
  std::vector<RowId> ScanAllRowIds() const;

  /// Allocation-lean variant: clears `out` and fills it in place so scan
  /// loops can reuse one buffer instead of allocating per scan. When
  /// `horizon` is set it receives the version count under the same lock:
  /// `out` is every non-vacuumed version below it (the SIREAD horizon).
  void ScanAllRowIds(std::vector<RowId>* out,
                     RowId* horizon = nullptr) const;

  /// Version ids whose `column` value lies in [lo, hi] (either bound may be
  /// null = unbounded, inclusive flags per bound), in index order. Requires
  /// an index on `column`.
  Result<std::vector<RowId>> IndexRange(int column, const Value* lo,
                                        bool lo_inclusive, const Value* hi,
                                        bool hi_inclusive) const;

  /// Allocation-lean variant of IndexRange; clears and fills `out`. When
  /// `horizon` is set it receives the version count under the same lock:
  /// `out` is every non-vacuumed version below it whose key lies in the
  /// range (the SIREAD horizon).
  Status IndexRange(int column, const Value* lo, bool lo_inclusive,
                    const Value* hi, bool hi_inclusive,
                    std::vector<RowId>* out, RowId* horizon = nullptr) const;

  // ---- Checkpoint restore (ledger/checkpoint_writer.h) ----

  /// Append a version rebuilt from a checkpoint at the next RowId, with its
  /// metadata already final. xmin — and xmax, when `deleter_block` is
  /// nonzero — is the reserved kRestoredTxnId sentinel, which status
  /// lookups report as committed-long-ago. Registered in every index.
  RowId RestoreVersion(Row values, RowId prev_version, RowId next_version,
                       BlockNum creator_block, BlockNum deleter_block);

  /// Occupy the next RowId with an invisible tombstone — a slot that was
  /// vacuumed, aborted, or still in flight when the checkpoint was taken —
  /// so the RowId links between restored versions stay valid.
  RowId RestoreHole();

  /// Whether `id` was vacuumed (dead slots are skipped by every scan and
  /// serialize as holes in checkpoints).
  bool IsDead(RowId id) const;

  /// Remove versions that can never become visible again: versions created
  /// by aborted transactions, and committed-deleted versions whose deleter
  /// block is at or below `horizon_block`. `aborted` decides whether a
  /// transaction id is aborted. Returns the number of versions removed.
  /// This is the paper's §7 "vacuum based on creator/deleter" pruning tool;
  /// it breaks provenance for pruned history, so nodes only call it when
  /// explicitly configured.
  size_t Vacuum(BlockNum horizon_block,
                const std::function<bool(TxnId)>& aborted);

 private:
  /// Allocate (if needed) the chunk holding slot `id` and return the slot;
  /// requires mu_. Callers fill the slot, then release-publish via
  /// num_versions_.
  RowVersion& EmplaceSlotLocked(RowId id);

  // Chunked version arena. Chunk c holds 2^(c + kFirstChunkBits) versions;
  // the directory entries are written once (under mu_) and published by
  // the release store of num_versions_, so readers that checked an id
  // against NumVersions() may chase them without the lock.
  static constexpr size_t kFirstChunkBits = 9;  // 512 versions in chunk 0
  static constexpr size_t kNumChunks = 48;

  static size_t ChunkOf(RowId id, size_t* offset) {
    uint64_t adjusted = id + (1ULL << kFirstChunkBits);
    size_t chunk =
        63 - static_cast<size_t>(__builtin_clzll(adjusted)) - kFirstChunkBits;
    *offset = adjusted ^ (1ULL << (chunk + kFirstChunkBits));
    return chunk;
  }

  const RowVersion& VersionAt(RowId id) const {
    size_t offset = 0;
    size_t chunk = ChunkOf(id, &offset);
    return chunks_[chunk].load(std::memory_order_acquire)[offset];
  }
  RowVersion& VersionAt(RowId id) {
    size_t offset = 0;
    size_t chunk = ChunkOf(id, &offset);
    return chunks_[chunk].load(std::memory_order_acquire)[offset];
  }

  /// Versions appended so far; acquire pairs with AppendVersion's release.
  size_t Size() const { return num_versions_.load(std::memory_order_acquire); }

  TableId id_;
  TableSchema schema_;
  std::string db_schema_;

  mutable std::mutex mu_;
  std::array<std::atomic<RowVersion*>, kNumChunks> chunks_{};
  std::atomic<size_t> num_versions_{0};
  /// Ordered indexes keyed densely by column position (null = no index);
  /// `indexed_columns_` lists the non-null slots so write-path maintenance
  /// iterates only real indexes.
  std::vector<std::unique_ptr<BTreeRowIndex>> indexes_;
  std::vector<int> indexed_columns_;
  std::vector<bool> dead_;  // vacuumed tombstones
};

}  // namespace brdb

#endif  // BRDB_STORAGE_TABLE_H_
