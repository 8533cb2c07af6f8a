#include "storage/table.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace brdb {

namespace {
std::string BadRowId(const TableSchema& schema, RowId id) {
  return "invalid RowId " + std::to_string(id) + " for table " +
         schema.name();
}

// Copies the mutable metadata fields; caller holds the table mutex.
// Assigning into an existing VersionMeta reuses its candidates capacity.
void CopyMeta(const RowVersion& v, VersionMeta* m) {
  m->xmin = v.xmin;
  m->creator_aborted = v.creator_aborted;
  m->xmax = v.xmax;
  m->xmax_candidates = v.xmax_candidates;
  m->creator_block = v.creator_block;
  m->deleter_block = v.deleter_block;
  m->next_version = v.next_version;
  m->prev_version = v.prev_version;
}
}  // namespace

Table::Table(TableId id, TableSchema schema, std::string db_schema)
    : id_(id), schema_(std::move(schema)), db_schema_(std::move(db_schema)) {
  indexes_.resize(schema_.columns().size());
  for (size_t i = 0; i < schema_.columns().size(); ++i) {
    if (schema_.columns()[i].indexed) {
      indexes_[i] = std::make_unique<BTreeRowIndex>();
      indexed_columns_.push_back(static_cast<int>(i));
    }
  }
}

Table::~Table() {
  for (auto& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

Status Table::CreateIndex(const std::string& column) {
  std::lock_guard<std::mutex> lock(mu_);
  int col = schema_.ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("no column " + column + " in table " +
                            schema_.name());
  }
  if (indexes_[col] != nullptr) {
    return Status::AlreadyExists("index on " + schema_.name() + "." + column);
  }
  // Bulk load: collect live (key, id) pairs — ids are already ascending, so
  // a stable sort by key yields the (key, id) order the backfill loop used
  // to produce (ids in append order within each key).
  std::vector<std::pair<Value, RowId>> entries;
  entries.reserve(Size());
  for (RowId i = 0; i < Size(); ++i) {
    if (i < dead_.size() && dead_[i]) continue;
    entries.emplace_back(VersionAt(i).values[col], i);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.Compare(b.first) < 0;
                   });
  indexes_[col] = std::make_unique<BTreeRowIndex>();
  indexes_[col]->LoadSorted(std::move(entries));
  indexed_columns_.push_back(col);
  BRDB_RETURN_NOT_OK(schema_.MarkIndexed(column));
  return Status::OK();
}

bool Table::HasIndexOn(int column) const {
  std::lock_guard<std::mutex> lock(mu_);
  return column >= 0 && static_cast<size_t>(column) < indexes_.size() &&
         indexes_[column] != nullptr;
}

void Table::WithIndexOn(
    int column, const std::function<void(const BTreeRowIndex*)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const BTreeRowIndex* index =
      column >= 0 && static_cast<size_t>(column) < indexes_.size()
          ? indexes_[column].get()
          : nullptr;
  fn(index);
}

RowVersion& Table::EmplaceSlotLocked(RowId id) {
  size_t offset = 0;
  size_t chunk = ChunkOf(id, &offset);
  BRDB_CHECK(chunk < kNumChunks, "version arena exhausted");
  if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
    size_t cap = 1ULL << (chunk + kFirstChunkBits);
    chunks_[chunk].store(new RowVersion[cap](), std::memory_order_release);
  }
  return chunks_[chunk].load(std::memory_order_relaxed)[offset];
}

RowId Table::AppendVersion(TxnId xmin, Row values, RowId prev_version) {
  std::lock_guard<std::mutex> lock(mu_);
  RowId id = num_versions_.load(std::memory_order_relaxed);
  RowVersion& v = EmplaceSlotLocked(id);
  v.xmin = xmin;
  v.values = std::move(values);
  v.prev_version = prev_version;
  for (int col : indexed_columns_) {
    indexes_[col]->Insert(v.values[col], id);
  }
  // Release-publish: pairs with the acquire in Size(), making the new
  // version's payload visible to lock-free readers.
  num_versions_.store(id + 1, std::memory_order_release);
  return id;
}

RowId Table::RestoreVersion(Row values, RowId prev_version, RowId next_version,
                            BlockNum creator_block, BlockNum deleter_block) {
  std::lock_guard<std::mutex> lock(mu_);
  RowId id = num_versions_.load(std::memory_order_relaxed);
  RowVersion& v = EmplaceSlotLocked(id);
  v.xmin = kRestoredTxnId;
  v.values = std::move(values);
  v.prev_version = prev_version;
  v.next_version = next_version;
  v.creator_block = creator_block;
  if (deleter_block != 0) {
    v.xmax = kRestoredTxnId;
    v.deleter_block = deleter_block;
  }
  for (int col : indexed_columns_) {
    indexes_[col]->Insert(v.values[col], id);
  }
  num_versions_.store(id + 1, std::memory_order_release);
  return id;
}

RowId Table::RestoreHole() {
  std::lock_guard<std::mutex> lock(mu_);
  RowId id = num_versions_.load(std::memory_order_relaxed);
  RowVersion& v = EmplaceSlotLocked(id);
  v.xmin = kRestoredTxnId;
  v.creator_aborted = true;  // belt-and-braces: invisible even if undead
  dead_.resize(id + 1, false);
  dead_[id] = true;
  num_versions_.store(id + 1, std::memory_order_release);
  return id;
}

bool Table::IsDead(RowId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < dead_.size() && dead_[id];
}

size_t Table::NumVersions() const { return Size(); }

const Row& Table::ValuesOf(RowId id) const {
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  return VersionAt(id).values;  // immutable after append
}

TxnId Table::XminOf(RowId id) const {
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  return VersionAt(id).xmin;  // immutable after append
}

VersionMeta Table::MetaOf(RowId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  VersionMeta m;
  CopyMeta(VersionAt(id), &m);
  return m;
}

void Table::MetasOf(const RowId* ids, size_t count,
                    std::vector<VersionMeta>* out) const {
  // Grow-only: shrinking would free the elements' candidate vectors the
  // next larger scan wants to reuse. Callers index [0, count).
  if (out->size() < count) out->resize(count);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < count; ++i) {
    RowId id = ids[i];
    BRDB_CHECK(id < Size(), BadRowId(schema_, id));
    CopyMeta(VersionAt(id), &(*out)[i]);
  }
}

Status Table::AddXmaxCandidate(RowId id, TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= Size()) {
    return Status::InvalidArgument(BadRowId(schema_, id));
  }
  RowVersion& v = VersionAt(id);
  if (v.xmax != 0) {
    // A committed deleter exists; this write lost before it started.
    return Status::WriteConflict("row version already deleted");
  }
  if (std::find(v.xmax_candidates.begin(), v.xmax_candidates.end(), txn) ==
      v.xmax_candidates.end()) {
    v.xmax_candidates.push_back(txn);
  }
  return Status::OK();
}

void Table::RemoveXmaxCandidate(RowId id, TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  auto& cands = VersionAt(id).xmax_candidates;
  cands.erase(std::remove(cands.begin(), cands.end(), txn), cands.end());
}

std::vector<TxnId> Table::FinalizeDelete(RowId id, TxnId winner,
                                         BlockNum block) {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  RowVersion& v = VersionAt(id);
  std::vector<TxnId> losers;
  for (TxnId cand : v.xmax_candidates) {
    if (cand != winner) losers.push_back(cand);
  }
  v.xmax = winner;
  v.deleter_block = block;
  v.xmax_candidates.clear();
  return losers;
}

void Table::SetCreatorBlock(RowId id, BlockNum block) {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  VersionAt(id).creator_block = block;
}

void Table::MarkCreatorAborted(RowId id) {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(id < Size(), BadRowId(schema_, id));
  VersionAt(id).creator_aborted = true;
}

void Table::LinkNextVersion(RowId old_id, RowId next_id) {
  std::lock_guard<std::mutex> lock(mu_);
  BRDB_CHECK(old_id < Size(), BadRowId(schema_, old_id));
  VersionAt(old_id).next_version = next_id;
}

std::vector<RowId> Table::ScanAllRowIds() const {
  std::vector<RowId> out;
  ScanAllRowIds(&out);
  return out;
}

void Table::ScanAllRowIds(std::vector<RowId>* out, RowId* horizon) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  size_t n = Size();
  if (horizon != nullptr) *horizon = n;
  if (out->capacity() < n) out->reserve(n);
  for (RowId i = 0; i < n; ++i) {
    if (i < dead_.size() && dead_[i]) continue;
    out->push_back(i);
  }
}

Result<std::vector<RowId>> Table::IndexRange(int column, const Value* lo,
                                             bool lo_inclusive,
                                             const Value* hi,
                                             bool hi_inclusive) const {
  std::vector<RowId> out;
  BRDB_RETURN_NOT_OK(
      IndexRange(column, lo, lo_inclusive, hi, hi_inclusive, &out));
  return out;
}

Status Table::IndexRange(int column, const Value* lo, bool lo_inclusive,
                         const Value* hi, bool hi_inclusive,
                         std::vector<RowId>* out, RowId* horizon) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  if (horizon != nullptr) *horizon = Size();
  const BTreeRowIndex* index =
      column >= 0 && static_cast<size_t>(column) < indexes_.size()
          ? indexes_[column].get()
          : nullptr;
  if (index == nullptr) {
    return Status::NotFound("no index on column " +
                            std::to_string(column) + " of table " +
                            schema_.name());
  }
  index->Scan(lo, lo_inclusive, hi, hi_inclusive,
              [&](const Value&, const PostingList& ids) {
                for (RowId id : ids) {
                  if (id < dead_.size() && dead_[id]) continue;
                  out->push_back(id);
                }
                return true;
              });
  return Status::OK();
}

size_t Table::Vacuum(BlockNum horizon_block,
                     const std::function<bool(TxnId)>& aborted) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_.resize(Size(), false);
  size_t removed = 0;
  for (RowId i = 0; i < Size(); ++i) {
    if (dead_[i]) continue;
    const RowVersion& v = VersionAt(i);
    bool prune = false;
    if (v.creator_aborted || aborted(v.xmin)) {
      prune = true;  // never visible to anyone
    } else if (v.deleter_block != 0 && v.deleter_block <= horizon_block) {
      prune = true;  // deleted before the horizon: invisible at/after it
    }
    if (prune) {
      dead_[i] = true;
      ++removed;
      for (int col : indexed_columns_) {
        indexes_[col]->Erase(v.values[col], i);
      }
    }
  }
  return removed;
}

}  // namespace brdb
