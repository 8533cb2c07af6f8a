// TxnContext: the per-transaction facade the SQL executor and smart
// contracts operate through. It combines
//   * MVCC visibility for both snapshot kinds (CSN and block-height),
//   * the execute-order-in-parallel phantom / stale-read aborts (§3.4.1),
//   * SSI read/write bookkeeping (horizon-stamped predicate SIREADs, rw
//     edges),
//   * the write path with xmax-candidate ww handling (§3.3.3), and
//   * the serial commit pipeline driven by the block processor.
#ifndef BRDB_TXN_TXN_CONTEXT_H_
#define BRDB_TXN_TXN_CONTEXT_H_

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/database.h"
#include "txn/txn_manager.h"

namespace brdb {

/// How the transaction interacts with visibility and SSI.
enum class TxnMode {
  kNormal,      ///< snapshot visibility + SSI tracking (user transactions)
  kProvenance,  ///< sees ALL committed versions, read-only, no SSI (§4.2)
  kInternal,    ///< node-internal writes (pgledger/pgcerts), no SSI
};

/// Callback for visible rows: (version id, values). Return false to stop.
using RowCallback = std::function<bool(RowId, const Row&)>;

/// Callback for provenance scans: includes version metadata so queries can
/// reference xmin / xmax / creator / deleter pseudo-columns.
using VersionCallback =
    std::function<bool(RowId, const Row&, const VersionMeta&)>;

/// A TxnContext owns the lifetime of its transaction: every transaction
/// ends through its context, by CommitSerially, CommitInternal or Abort.
/// Destroying an unfinished context aborts the transaction, so a read-only
/// query that simply returns cannot leave an active transaction behind to
/// pin the registry's garbage-collection horizon. An abort, explicit or by
/// destruction, never assigns a CSN; only a commit does, so node-local
/// query traffic never advances a node's CSN stream. There is deliberately
/// no commit path for read-only contexts.
class TxnContext {
 public:
  TxnContext(Database* db, TxnInfo* info, TxnMode mode);
  ~TxnContext();

  TxnContext(const TxnContext&) = delete;
  TxnContext& operator=(const TxnContext&) = delete;

  TxnInfo* info() { return info_; }
  TxnId id() const { return info_->id; }
  TxnMode mode() const { return mode_; }
  Database* db() { return db_; }

  /// True once the transaction reached a terminal state.
  bool finished() const { return finished_; }

  // ---- reads ----

  /// Full-table scan of visible rows. Registers a match-all predicate.
  Status ScanAll(Table* table, const RowCallback& cb);

  /// Index-range scan of visible rows over `column` in [lo, hi] (null
  /// pointer = unbounded). Registers the range predicate.
  Status ScanRange(Table* table, int column, const Value* lo,
                   bool lo_inclusive, const Value* hi, bool hi_inclusive,
                   const RowCallback& cb);

  /// Provenance: iterate all committed versions (active and superseded).
  Status ScanVersions(Table* table, const VersionCallback& cb);

  // ---- writes ----

  Status Insert(Table* table, Row values);

  /// Replace the logical row whose visible version is `base`.
  Status Update(Table* table, RowId base, Row new_values);

  /// Delete the logical row whose visible version is `base`.
  Status Delete(Table* table, RowId base);

  // ---- lifecycle ----

  /// Serial commit: SSI validation under `policy`, deferred UNIQUE/PK
  /// re-check against latest committed state, ww resolution (dooming
  /// losers), creator/deleter block stamping, CSN assignment.
  /// `block_members` lists the node-local txn ids of the committing block
  /// in block order. On failure the transaction is aborted (writes undone).
  Status CommitSerially(SsiPolicy policy, BlockNum block, int block_pos,
                        const std::vector<TxnId>& block_members);

  /// Immediate commit for kInternal transactions (block processor writes).
  Status CommitInternal(BlockNum block);

  /// Abort: unregister xmax candidates; created versions become dead.
  /// No-op once the transaction finished; the destructor calls it too.
  void Abort(const Status& reason);

  /// The union of changes this transaction made, deterministically encoded;
  /// hashed into the block write-set hash for checkpointing (§3.3.4).
  std::string EncodeWriteSet() const;

 private:
  enum class Visibility {
    kVisible,
    kInvisible,
    kStaleRead,  ///< EOP: visible at snapshot height but deleted later
  };

  /// Core visibility decision + SSI side effects for one version during a
  /// scan (phantom detection of invisible versions is the caller's).
  Result<Visibility> ClassifyVersion(Table* table, RowId id,
                                     const VersionMeta& meta);

  /// Deferred UNIQUE enforcement against the latest committed state.
  Status CheckUniqueAtCommit();

  /// Whether writes to `table` run CheckUniqueAtWrite: user transactions
  /// (whose commit re-checks too) and private-schema DML, which commits
  /// through CommitInternal with no commit-time check and so relies on this
  /// one alone (the node serializes private DML to make it sufficient).
  bool ChecksUniqueAtWrite(const Table& table) const;

  /// Fast-fail UNIQUE check against the transaction snapshot. For updates
  /// `base_values` is the replaced version: columns whose value did not
  /// change skip the probe — an unchanged unique value cannot introduce a
  /// duplicate the base version did not already have.
  Status CheckUniqueAtWrite(Table* table, const Row& values,
                            RowId exclude_base,
                            const Row* base_values = nullptr);

  /// Register `predicate` (tracked modes), draw its id list — from the
  /// index on `index_column` within the predicate's bounds, or every
  /// version when -1 — and visit the visible versions, with reader-side
  /// rw edges and the EOP phantom / stale-read aborts.
  Status ScanPredicate(Table* table, const PredicateRead& predicate,
                       int index_column, const RowCallback& cb);

  /// Combined state/commit-CSN lookup with a transaction-local cache of
  /// terminal states (committed/aborted never change, so one registry
  /// probe per peer transaction suffices for the whole transaction).
  TxnStatusView CachedStatusOf(TxnId id);

  /// Reusable RowId buffers for scan loops. Scans nest (join loops drive
  /// inner scans from the outer scan's callback), so buffers are pooled by
  /// depth; the deque keeps references stable while the pool grows.
  std::vector<RowId>* AcquireScanBuffer();
  void ReleaseScanBuffer() { --scan_depth_; }

  /// Same pooling for the batched version-metadata copies; reusing the
  /// elements keeps their xmax_candidates capacity across scans.
  std::vector<VersionMeta>* AcquireMetaBuffer();
  void ReleaseMetaBuffer() { --meta_depth_; }

  Database* db_;
  TxnManager* mgr_;
  TxnInfo* info_;
  TxnMode mode_;
  bool finished_ = false;

  std::unordered_map<TxnId, std::pair<TxnState, Csn>> terminal_cache_;
  TxnId memo_id_ = 0;  ///< 0 = empty (txn ids start at 1)
  TxnState memo_state_ = TxnState::kCommitted;
  Csn memo_csn_ = 0;
  std::deque<std::vector<RowId>> scan_buffers_;
  size_t scan_depth_ = 0;
  std::deque<std::vector<VersionMeta>> meta_buffers_;
  size_t meta_depth_ = 0;
};

}  // namespace brdb

#endif  // BRDB_TXN_TXN_CONTEXT_H_
