#include "txn/txn_context.h"

#include <algorithm>
#include <set>

#include "wire/codec.h"

namespace brdb {

namespace {
bool Contains(const std::vector<TxnId>& v, TxnId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}
}  // namespace

TxnContext::TxnContext(Database* db, TxnInfo* info, TxnMode mode)
    : db_(db), mgr_(db->txn_manager()), info_(info), mode_(mode) {}

TxnContext::~TxnContext() {
  if (!finished_) {
    Abort(Status::Aborted("transaction context destroyed before commit"));
  }
}

TxnStatusView TxnContext::CachedStatusOf(TxnId id) {
  // One-entry memo in front of the map: it hits when consecutive versions
  // share a creator (rows inserted by one transaction). Seeded workload
  // tables have one creator per row, so their block-height reads skip this
  // lookup through the block stamps instead (ClassifyVersion).
  if (id == memo_id_) {
    TxnStatusView v;
    v.state = memo_state_;
    v.commit_csn = memo_csn_;
    return v;
  }
  auto it = terminal_cache_.find(id);
  if (it != terminal_cache_.end()) {
    TxnStatusView v;
    v.state = it->second.first;
    v.commit_csn = it->second.second;
    memo_id_ = id;
    memo_state_ = v.state;
    memo_csn_ = v.commit_csn;
    return v;
  }
  TxnStatusView v = mgr_->StatusViewOf(id);
  if (v.state != TxnState::kActive) {
    terminal_cache_.emplace(id, std::make_pair(v.state, v.commit_csn));
    memo_id_ = id;
    memo_state_ = v.state;
    memo_csn_ = v.commit_csn;
  }
  return v;
}

std::vector<RowId>* TxnContext::AcquireScanBuffer() {
  if (scan_depth_ == scan_buffers_.size()) scan_buffers_.emplace_back();
  return &scan_buffers_[scan_depth_++];
}

std::vector<VersionMeta>* TxnContext::AcquireMetaBuffer() {
  if (meta_depth_ == meta_buffers_.size()) meta_buffers_.emplace_back();
  return &meta_buffers_[meta_depth_++];
}

// Outcome of classifying one version against this transaction's snapshot.
// (Declared privately in the header as Visibility; the richer distinctions
// needed for SSI side effects are computed inline below.)
Result<TxnContext::Visibility> TxnContext::ClassifyVersion(
    Table* table, RowId id, const VersionMeta& meta) {
  TxnId self = info_->id;

  // Tombstoned versions (creating transaction aborted) are invisible to
  // everyone, even after the transaction manager garbage-collected the
  // aborting transaction.
  if (meta.creator_aborted) return Visibility::kInvisible;

  if (meta.xmin == self) {
    // Own insert; invisible again if we deleted it ourselves.
    if (Contains(meta.xmax_candidates, self)) return Visibility::kInvisible;
    return Visibility::kVisible;
  }

  const Snapshot& snap = info_->snapshot;
  if (snap.kind == Snapshot::Kind::kBlockHeight &&
      mode_ != TxnMode::kProvenance) {
    // Block-height snapshot: the block stamps decide, with no registry
    // lookup (the hint-bit idea of PostgreSQL's SSI). A creator stamp is
    // written only after the creator passed SSI validation and the commit
    // UNIQUE check, and such a creator always reaches MarkCommitted, so a
    // stamped version is never an aborted creator's; an unstamped one, or
    // one stamped beyond the height, is invisible at the snapshot.
    if (meta.creator_block == 0 || meta.creator_block > snap.height) {
      return Visibility::kInvisible;
    }
    const bool internal = mode_ == TxnMode::kInternal;
    if (!internal && Contains(meta.xmax_candidates, self)) {
      return Visibility::kInvisible;  // pending own delete
    }
    if (meta.deleter_block == 0) return Visibility::kVisible;
    if (meta.deleter_block <= snap.height) return Visibility::kInvisible;
    // Deleted by a later block. A height-pinned internal read (read-only
    // analytics) is a pure block-stamp filter, exactly the visibility the
    // columnar mirror reproduces. A user transaction has a stale read
    // (paper §3.4.1 rule 2) and must abort.
    return internal ? Visibility::kVisible : Visibility::kStaleRead;
  }

  TxnStatusView xmin_view = CachedStatusOf(meta.xmin);
  TxnState xmin_state = xmin_view.state;
  if (xmin_state == TxnState::kAborted) return Visibility::kInvisible;

  if (mode_ == TxnMode::kProvenance) {
    // Provenance sees every committed version, live or superseded.
    return xmin_state == TxnState::kCommitted ? Visibility::kVisible
                                              : Visibility::kInvisible;
  }
  if (mode_ == TxnMode::kInternal) {
    if (xmin_state != TxnState::kCommitted) return Visibility::kInvisible;
    // Latest committed state.
    if (Contains(meta.xmax_candidates, self)) return Visibility::kInvisible;
    if (meta.xmax != 0 &&
        CachedStatusOf(meta.xmax).state == TxnState::kCommitted) {
      return Visibility::kInvisible;
    }
    return Visibility::kVisible;
  }

  // CSN snapshot.
  if (xmin_state != TxnState::kCommitted || xmin_view.commit_csn > snap.csn) {
    return Visibility::kInvisible;
  }
  if (Contains(meta.xmax_candidates, self)) {
    return Visibility::kInvisible;  // pending own delete
  }
  if (meta.xmax != 0) {
    Csn deleter_csn = CachedStatusOf(meta.xmax).commit_csn;
    if (deleter_csn <= snap.csn) return Visibility::kInvisible;
    // Deleted by a transaction that committed after our snapshot: the row
    // is visible to us, and reading it creates an rw edge to the deleter.
    mgr_->AddRwEdge(info_->id, meta.xmax);
  }
  return Visibility::kVisible;
}

Status TxnContext::ScanPredicate(Table* table, const PredicateRead& predicate,
                                 int index_column, const RowCallback& cb) {
  if (finished_) return Status::Aborted("transaction already finished");
  const bool tracked = mode_ == TxnMode::kNormal;
  TxnId self = info_->id;

  // SSI read registration. The predicate is also the scan's SIREAD lock,
  // and three orderings make it exactly as strong as one lock per row:
  //  1. It is registered BEFORE the id list is drawn, so an insert either
  //     finds it (writer-side phantom edge) or is in the id list, where the
  //     visibility loop below sees it (reader-side edge or phantom abort).
  //  2. The id list and the horizon come from ONE table lock: the list is
  //     exactly the non-vacuumed covered versions below the horizon
  //     (values are immutable; the index insert and the version-count
  //     publish share that lock), and a vacuumed version is never a write
  //     base. So "covers the base and the horizon lies beyond it" is
  //     "the base was in the id list".
  //  3. The horizon is published BEFORE the first metadata read. A writer
  //     adds its xmax candidate (table lock) before probing the predicates
  //     (stripe lock): either it sees the horizon (writer-side edge) or our
  //     metadata copy sees its candidate (reader-side edge below).
  // The lock covers the whole id list even if `cb` stops early, so an
  // early-stopping caller would over-cover the versions it never visited
  // (conservative, and identical on every node). Executor scans never stop
  // early.
  PredicateHandle siread;
  if (tracked) {
    siread = mgr_->RecordPredicate(info_, predicate);
  }
  std::vector<RowId>* ids = AcquireScanBuffer();
  RowId horizon = 0;
  Status result;
  if (index_column >= 0) {
    result = table->IndexRange(
        index_column, predicate.lo ? &*predicate.lo : nullptr,
        predicate.lo_inclusive, predicate.hi ? &*predicate.hi : nullptr,
        predicate.hi_inclusive, ids, &horizon);
  } else {
    table->ScanAllRowIds(ids, &horizon);
  }
  if (tracked) mgr_->PublishHorizon(siread, horizon);

  // Metadata is copied in chunks: one table lock per chunk, and a callback
  // that stops early (LIMIT-style scans) copies at most one chunk too many.
  constexpr size_t kScanChunk = 64;
  std::vector<VersionMeta>* metas = AcquireMetaBuffer();
  bool stop_all = false;
  for (size_t base = 0; base < ids->size() && !stop_all && result.ok();
       base += kScanChunk) {
    const size_t chunk = std::min(kScanChunk, ids->size() - base);
    table->MetasOf(ids->data() + base, chunk, metas);
    for (size_t i = 0; i < chunk; ++i) {
      RowId id = (*ids)[base + i];
      const VersionMeta& meta = (*metas)[i];
      auto cls = ClassifyVersion(table, id, meta);
      if (!cls.ok()) {
        result = cls.status();
        break;
      }
      bool stop = false;
      switch (cls.value()) {
        case Visibility::kVisible: {
          if (tracked) {
            // rw edges to concurrent transactions that are deleting /
            // replacing the version we just read.
            for (TxnId cand : meta.xmax_candidates) {
              if (cand != self) {
                mgr_->AddRwEdge(self, cand);
              }
            }
          }
          if (!cb(id, table->ValuesOf(id))) stop = true;
          break;
        }
        case Visibility::kStaleRead:
          result = Status::SerializationFailure(
              "stale read: row deleted by block later than snapshot height " +
              std::to_string(info_->snapshot.height));
          break;
        case Visibility::kInvisible: {
          if (!tracked) break;
          if (meta.xmin == self) break;
          TxnStatusView xmin_view = CachedStatusOf(meta.xmin);
          if (xmin_view.state == TxnState::kActive) {
            // Concurrent uncommitted insert matching our predicate: record
            // the rw (phantom) edge reader -> writer.
            mgr_->AddRwEdge(self, meta.xmin);
          } else if (xmin_view.state == TxnState::kCommitted) {
            if (info_->snapshot.kind == Snapshot::Kind::kBlockHeight) {
              // Paper §3.4.1 rule 1: committed row from a block beyond our
              // snapshot height matches the predicate -> phantom read.
              if (meta.creator_block > info_->snapshot.height &&
                  meta.deleter_block == 0) {
                result = Status::SerializationFailure(
                    "phantom read: row created by block " +
                    std::to_string(meta.creator_block) +
                    " beyond snapshot height " +
                    std::to_string(info_->snapshot.height));
              }
            } else {
              // Committed after our CSN snapshot: rw edge.
              if (xmin_view.commit_csn > info_->snapshot.csn) {
                mgr_->AddRwEdge(self, meta.xmin);
              }
            }
          }
          break;
        }
      }
      if (stop || !result.ok()) {
        stop_all = true;
        break;
      }
    }
  }
  ReleaseMetaBuffer();
  ReleaseScanBuffer();
  return result;
}

Status TxnContext::ScanAll(Table* table, const RowCallback& cb) {
  PredicateRead predicate;
  predicate.table = table->id();
  predicate.column = -1;
  // Iterate in primary-key order when available so that scan order — and
  // therefore any order-sensitive contract logic — is identical on every
  // node regardless of heap append interleaving.
  int pk = table->schema().pk_column();
  return ScanPredicate(table, predicate,
                       pk >= 0 && table->HasIndexOn(pk) ? pk : -1, cb);
}

Status TxnContext::ScanRange(Table* table, int column, const Value* lo,
                             bool lo_inclusive, const Value* hi,
                             bool hi_inclusive, const RowCallback& cb) {
  PredicateRead predicate;
  predicate.table = table->id();
  predicate.column = column;
  if (lo != nullptr) predicate.lo = *lo;
  predicate.lo_inclusive = lo_inclusive;
  if (hi != nullptr) predicate.hi = *hi;
  predicate.hi_inclusive = hi_inclusive;
  return ScanPredicate(table, predicate, column, cb);
}

Status TxnContext::ScanVersions(Table* table, const VersionCallback& cb) {
  if (mode_ != TxnMode::kProvenance) {
    return Status::PermissionDenied(
        "version scans are only available to provenance queries");
  }
  for (RowId id : table->ScanAllRowIds()) {
    VersionMeta meta = table->MetaOf(id);
    if (mgr_->StateOf(meta.xmin) != TxnState::kCommitted) continue;
    if (!cb(id, table->ValuesOf(id), meta)) break;
  }
  return Status::OK();
}

bool TxnContext::ChecksUniqueAtWrite(const Table& table) const {
  return mode_ == TxnMode::kNormal || table.db_schema() == kPrivateSchema;
}

Status TxnContext::CheckUniqueAtWrite(Table* table, const Row& values,
                                      RowId exclude_base,
                                      const Row* base_values) {
  const auto& cols = table->schema().columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    if (!cols[c].unique) continue;
    const Value& v = values[c];
    if (v.is_null()) continue;
    if (base_values != nullptr && !(*base_values)[c].is_null() &&
        (*base_values)[c].Compare(v) == 0) {
      continue;  // unchanged unique value: no new duplicate possible
    }
    std::vector<RowId>* ids = AcquireScanBuffer();
    Status st = table->IndexRange(static_cast<int>(c), &v, true, &v, true, ids);
    if (st.ok()) {
      for (RowId id : *ids) {
        if (id == exclude_base) continue;
        VersionMeta meta = table->MetaOf(id);
        auto cls = ClassifyVersion(table, id, meta);
        if (!cls.ok()) {
          st = cls.status();
          break;
        }
        // A stale-visible duplicate still counts: under our snapshot the
        // key exists (deterministic on every node).
        if (cls.value() != Visibility::kInvisible) {
          st = Status::ConstraintViolation(
              "duplicate value for unique column " + cols[c].name +
              " in table " + table->schema().name());
          break;
        }
      }
    }
    ReleaseScanBuffer();
    BRDB_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status TxnContext::Insert(Table* table, Row values) {
  if (finished_) return Status::Aborted("transaction already finished");
  if (mode_ == TxnMode::kProvenance) {
    return Status::PermissionDenied("provenance queries are read-only");
  }
  BRDB_RETURN_NOT_OK(table->schema().ValidateRow(values));
  if (ChecksUniqueAtWrite(*table)) {
    BRDB_RETURN_NOT_OK(CheckUniqueAtWrite(table, values, kInvalidRowId));
  }
  RowId id = table->AppendVersion(info_->id, std::move(values), kInvalidRowId);
  WriteRecord w;
  w.kind = WriteRecord::Kind::kInsert;
  w.table = table->id();
  w.new_row = id;
  const Row* new_values =
      mode_ == TxnMode::kNormal ? &table->ValuesOf(id) : nullptr;
  mgr_->RecordWrite(info_, w, new_values, nullptr);
  return Status::OK();
}

Status TxnContext::Update(Table* table, RowId base, Row new_values) {
  if (finished_) return Status::Aborted("transaction already finished");
  if (mode_ == TxnMode::kProvenance) {
    return Status::PermissionDenied("provenance queries are read-only");
  }
  BRDB_RETURN_NOT_OK(table->schema().ValidateRow(new_values));
  if (ChecksUniqueAtWrite(*table)) {
    BRDB_RETURN_NOT_OK(
        CheckUniqueAtWrite(table, new_values, base, &table->ValuesOf(base)));
  }
  BRDB_RETURN_NOT_OK(table->AddXmaxCandidate(base, info_->id));
  RowId id = table->AppendVersion(info_->id, std::move(new_values), base);
  WriteRecord w;
  w.kind = WriteRecord::Kind::kUpdate;
  w.table = table->id();
  w.new_row = id;
  w.base_row = base;
  const Row* nv = mode_ == TxnMode::kNormal ? &table->ValuesOf(id) : nullptr;
  const Row* bv =
      mode_ == TxnMode::kNormal ? &table->ValuesOf(base) : nullptr;
  mgr_->RecordWrite(info_, w, nv, bv);
  return Status::OK();
}

Status TxnContext::Delete(Table* table, RowId base) {
  if (finished_) return Status::Aborted("transaction already finished");
  if (mode_ == TxnMode::kProvenance) {
    return Status::PermissionDenied("provenance queries are read-only");
  }
  BRDB_RETURN_NOT_OK(table->AddXmaxCandidate(base, info_->id));
  WriteRecord w;
  w.kind = WriteRecord::Kind::kDelete;
  w.table = table->id();
  w.base_row = base;
  const Row* bv =
      mode_ == TxnMode::kNormal ? &table->ValuesOf(base) : nullptr;
  mgr_->RecordWrite(info_, w, nullptr, bv);
  return Status::OK();
}

Status TxnContext::CheckUniqueAtCommit() {
  // Versions written by this transaction (bases it replaced and versions it
  // created). An update chain x -> v1 -> v2 leaves v1 with xmin == self but
  // superseded; it must not read as a duplicate of v2.
  std::set<RowId> own_rows;
  for (const WriteRecord& w : info_->writes) {
    if (w.new_row != kInvalidRowId) own_rows.insert(w.new_row);
    if (w.base_row != kInvalidRowId) own_rows.insert(w.base_row);
  }
  for (const WriteRecord& w : info_->writes) {
    if (w.new_row == kInvalidRowId) continue;
    Table* table = db_->GetTableById(w.table);
    if (table == nullptr) return Status::Internal("table vanished");
    const Row& values = table->ValuesOf(w.new_row);
    const Row* base_values =
        w.base_row != kInvalidRowId ? &table->ValuesOf(w.base_row) : nullptr;
    const auto& cols = table->schema().columns();
    for (size_t c = 0; c < cols.size(); ++c) {
      if (!cols[c].unique) continue;
      const Value& v = values[c];
      if (v.is_null()) continue;
      if (base_values != nullptr && !(*base_values)[c].is_null() &&
          (*base_values)[c].Compare(v) == 0) {
        continue;  // unchanged unique value: no new duplicate possible
      }
      std::vector<RowId>* ids = AcquireScanBuffer();
      Status st =
          table->IndexRange(static_cast<int>(c), &v, true, &v, true, ids);
      if (st.ok()) {
        for (RowId id : *ids) {
          if (own_rows.count(id)) continue;
          VersionMeta meta = table->MetaOf(id);
          if (Contains(meta.xmax_candidates, info_->id)) {
            continue;  // base version we are replacing/deleting
          }
          bool duplicate = false;
          if (meta.xmin == info_->id) {
            duplicate = true;  // an unrelated own insert with the same key
          } else if (mgr_->StateOf(meta.xmin) == TxnState::kCommitted &&
                     meta.xmax == 0) {
            duplicate = true;  // live committed row with the same key
          }
          if (duplicate) {
            st = Status::ConstraintViolation(
                "duplicate value for unique column " + cols[c].name +
                " in table " + table->schema().name() + " (commit check)");
            break;
          }
        }
      }
      ReleaseScanBuffer();
      BRDB_RETURN_NOT_OK(st);
    }
  }
  return Status::OK();
}

Status TxnContext::CommitSerially(SsiPolicy policy, BlockNum block,
                                  int block_pos,
                                  const std::vector<TxnId>& block_members) {
  if (finished_) return Status::Aborted("transaction already finished");
  Status st =
      mgr_->ValidateForCommit(info_, policy, block, block_pos, block_members);
  if (st.ok()) st = CheckUniqueAtCommit();
  if (!st.ok()) {
    Abort(st);
    return st;
  }

  // Finalize writes: ww resolution (block-order winner takes the row; all
  // other candidates are doomed, §3.3.3) and block stamping.
  for (const WriteRecord& w : info_->writes) {
    Table* table = db_->GetTableById(w.table);
    switch (w.kind) {
      case WriteRecord::Kind::kInsert:
        table->SetCreatorBlock(w.new_row, block);
        break;
      case WriteRecord::Kind::kUpdate: {
        for (TxnId loser : table->FinalizeDelete(w.base_row, info_->id, block)) {
          mgr_->Doom(loser, Status::WriteConflict(
                                "lost ww-conflict to transaction committed "
                                "earlier in block order"));
        }
        table->SetCreatorBlock(w.new_row, block);
        table->LinkNextVersion(w.base_row, w.new_row);
        break;
      }
      case WriteRecord::Kind::kDelete: {
        for (TxnId loser : table->FinalizeDelete(w.base_row, info_->id, block)) {
          mgr_->Doom(loser, Status::WriteConflict(
                                "lost ww-conflict to transaction committed "
                                "earlier in block order"));
        }
        break;
      }
    }
  }
  mgr_->MarkCommitted(info_, block);
  finished_ = true;
  return Status::OK();
}

Status TxnContext::CommitInternal(BlockNum block) {
  if (finished_) return Status::Aborted("transaction already finished");
  if (mode_ != TxnMode::kInternal) {
    return Status::Internal("CommitInternal requires kInternal mode");
  }
  for (const WriteRecord& w : info_->writes) {
    Table* table = db_->GetTableById(w.table);
    switch (w.kind) {
      case WriteRecord::Kind::kInsert:
        table->SetCreatorBlock(w.new_row, block);
        break;
      case WriteRecord::Kind::kUpdate:
        table->FinalizeDelete(w.base_row, info_->id, block);
        table->SetCreatorBlock(w.new_row, block);
        table->LinkNextVersion(w.base_row, w.new_row);
        break;
      case WriteRecord::Kind::kDelete:
        table->FinalizeDelete(w.base_row, info_->id, block);
        break;
    }
  }
  mgr_->MarkCommitted(info_, block);
  finished_ = true;
  return Status::OK();
}

void TxnContext::Abort(const Status& reason) {
  if (finished_) return;
  for (const WriteRecord& w : info_->writes) {
    Table* table = db_->GetTableById(w.table);
    if (table == nullptr) continue;
    if (w.base_row != kInvalidRowId) {
      table->RemoveXmaxCandidate(w.base_row, info_->id);
    }
    if (w.new_row != kInvalidRowId) {
      table->MarkCreatorAborted(w.new_row);
    }
  }
  // Doom first so the reason is recorded ("first reason sticks"), then
  // flip the state; both are thread-safe against concurrent bookkeeping.
  mgr_->Doom(info_->id, reason);
  mgr_->MarkAborted(info_);
  finished_ = true;
}

std::string TxnContext::EncodeWriteSet() const {
  // Deterministic across nodes: uses logical content (table name, operation
  // kind, row values), never node-local row ids.
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(info_->writes.size()));
  for (const WriteRecord& w : info_->writes) {
    Table* table = db_->GetTableById(w.table);
    enc.PutU8(static_cast<uint8_t>(w.kind));
    enc.PutString(table != nullptr ? table->schema().name() : "?");
    if (w.new_row != kInvalidRowId && table != nullptr) {
      enc.PutU8(1);
      enc.PutString(EncodeRow(table->ValuesOf(w.new_row)));
    } else {
      enc.PutU8(0);
    }
    if (w.base_row != kInvalidRowId && table != nullptr) {
      enc.PutU8(1);
      enc.PutString(EncodeRow(table->ValuesOf(w.base_row)));
    } else {
      enc.PutU8(0);
    }
  }
  return enc.Take();
}

}  // namespace brdb
