#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "storage/partition.h"

namespace brdb {

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Default stripe count scales with the hardware: enough that executor
// threads rarely collide (4x the core count), bounded so the idle-map
// cache footprint stays cheap on little machines.
size_t DefaultStripes() {
  size_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 4;
  return std::min<size_t>(128, std::max<size_t>(4, 4 * cores));
}
}  // namespace

// ---------------------------------------------------------------------------
// PredicateIndex
// ---------------------------------------------------------------------------

uint64_t PredicateIndex::PackTextPrefix(const std::string& s) {
  uint64_t key = 0;
  for (size_t i = 0; i < 8; ++i) {
    key = (key << 8) |
          (i < s.size() ? static_cast<uint64_t>(static_cast<uint8_t>(s[i]))
                        : 0);
  }
  return key;
}

void PredicateIndex::Add(TxnId reader, const PredicateRead& predicate) {
  if (predicate.column < 0) {
    full_scans_.push_back(Entry{reader, predicate});
    ++size_;
    return;
  }
  ColumnIndex& ci = by_column_[predicate.column];
  if (predicate.lo.has_value() && predicate.hi.has_value() &&
      predicate.lo->type() == ValueType::kInt &&
      predicate.hi->type() == ValueType::kInt) {
    int64_t lob = predicate.lo->AsInt() >> kBucketShift;
    int64_t hib = predicate.hi->AsInt() >> kBucketShift;
    if (lob <= hib && hib - lob < kMaxBucketSpan) {
      // A range spanning several buckets stores one copy per bucket; a
      // write probes exactly one bucket, so it sees at most one copy.
      for (int64_t b = lob; b <= hib; ++b) {
        ci.buckets[b].push_back(Entry{reader, predicate});
        ++size_;
      }
      return;
    }
  }
  if (predicate.lo.has_value() && predicate.hi.has_value() &&
      predicate.lo->type() == ValueType::kText &&
      predicate.hi->type() == ValueType::kText) {
    uint64_t klo = PackTextPrefix(predicate.lo->AsText());
    uint64_t khi = PackTextPrefix(predicate.hi->AsText());
    // klo <= khi whenever lo <= hi (prefix packing is monotone); an
    // inverted range covers nothing and parks harmlessly in `wide`.
    if (klo <= khi) {
      // Climb the ladder to the first byte shift narrow enough to bucket.
      // A point predicate lands at shift 0; a range sharing n lead bytes
      // lands at or below shift 8*(8-n). Shift 56 leaves single-byte
      // buckets, so any range still wider than kMaxBucketSpan there spans
      // most of the keyspace and belongs in `wide` anyway.
      for (int shift = 0; shift <= 56; shift += 8) {
        uint64_t lob = klo >> shift;
        uint64_t hib = khi >> shift;
        if (hib - lob < static_cast<uint64_t>(kMaxBucketSpan)) {
          for (uint64_t b = lob; b <= hib; ++b) {
            ci.text_levels[shift][b].push_back(Entry{reader, predicate});
            ++size_;
          }
          return;
        }
      }
    }
  }
  ci.wide.push_back(Entry{reader, predicate});
  ++size_;
}

void PredicateIndex::ProbeList(const std::vector<Entry>& entries,
                               const Row& values, RowId row,
                               std::vector<TxnId>* out) {
  for (const Entry& e : entries) {
    if (e.predicate.Reaches(row) && e.predicate.Covers(values)) {
      out->push_back(e.reader);
    }
  }
}

void PredicateIndex::Match(const Row& values, std::vector<TxnId>* out,
                           RowId row) const {
  // Full scans cover every row; Covers() is trivially true for column < 0.
  for (const Entry& e : full_scans_) {
    if (e.predicate.Reaches(row)) out->push_back(e.reader);
  }

  for (const auto& [col, ci] : by_column_) {
    if (static_cast<size_t>(col) >= values.size()) continue;
    const Value& v = values[col];
    switch (v.type()) {
      case ValueType::kInt: {
        auto it = ci.buckets.find(v.AsInt() >> kBucketShift);
        if (it != ci.buckets.end()) ProbeList(it->second, values, row, out);
        break;
      }
      case ValueType::kDouble: {
        // For |d| < 2^53 every integer in play is exactly representable, so
        // Covers()'s numeric comparison agrees with exact int64 arithmetic
        // and "lo <= d <= hi implies lo <= floor(d) <= hi" holds: floor(d)'s
        // bucket contains every covering bucketed range. Beyond 2^53 the
        // int->double conversion inside Value::Compare is lossy (a bound can
        // round across a bucket boundary), and NaN compares equal to every
        // number — both degenerate cases probe every bucket instead of
        // risking a missed rw edge.
        constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
        double d = v.AsDouble();
        if (std::isnan(d) || std::fabs(d) >= kExactIntLimit) {
          for (const auto& [b, entries] : ci.buckets) {
            (void)b;
            ProbeList(entries, values, row, out);
          }
        } else {
          auto it = ci.buckets.find(static_cast<int64_t>(std::floor(d)) >>
                                    kBucketShift);
          if (it != ci.buckets.end()) ProbeList(it->second, values, row, out);
        }
        break;
      }
      case ValueType::kText: {
        // Probe one bucket per populated ladder level. Both-int-bounded
        // ranges never cover text (text orders above every int), so the
        // int buckets are skipped.
        uint64_t key = PackTextPrefix(v.AsText());
        for (const auto& [shift, level] : ci.text_levels) {
          auto it = level.find(key >> shift);
          if (it != level.end()) ProbeList(it->second, values, row, out);
        }
        break;
      }
      default:
        // bool/null order entirely below or above every int and every
        // text under Value::Compare, so no bucketed range covers them.
        break;
    }
    ProbeList(ci.wide, values, row, out);
  }
}

void PredicateIndex::RemoveReaders(const std::unordered_set<TxnId>& readers) {
  auto prune = [&](std::vector<Entry>* entries) {
    size_t before = entries->size();
    entries->erase(std::remove_if(entries->begin(), entries->end(),
                                  [&](const Entry& e) {
                                    return readers.count(e.reader) > 0;
                                  }),
                   entries->end());
    size_ -= before - entries->size();
  };
  prune(&full_scans_);
  for (auto col_it = by_column_.begin(); col_it != by_column_.end();) {
    ColumnIndex& ci = col_it->second;
    prune(&ci.wide);
    for (auto it = ci.buckets.begin(); it != ci.buckets.end();) {
      prune(&it->second);
      it = it->second.empty() ? ci.buckets.erase(it) : std::next(it);
    }
    for (auto lvl = ci.text_levels.begin(); lvl != ci.text_levels.end();) {
      for (auto it = lvl->second.begin(); it != lvl->second.end();) {
        prune(&it->second);
        it = it->second.empty() ? lvl->second.erase(it) : std::next(it);
      }
      lvl = lvl->second.empty() ? ci.text_levels.erase(lvl) : std::next(lvl);
    }
    col_it = (ci.wide.empty() && ci.buckets.empty() && ci.text_levels.empty())
                 ? by_column_.erase(col_it)
                 : std::next(col_it);
  }
}

bool TxnInfo::HasInConflict(TxnId other) const {
  for (uint32_t p = 0; p < num_slots; ++p) {
    std::lock_guard<std::mutex> lock(slots[p].mu);
    if (slots[p].in.count(other)) return true;
  }
  return false;
}

bool TxnInfo::HasOutConflict(TxnId other) const {
  for (uint32_t p = 0; p < num_slots; ++p) {
    std::lock_guard<std::mutex> lock(slots[p].mu);
    if (slots[p].out.count(other)) return true;
  }
  return false;
}

TxnManager::TxnManager(const TxnManagerOptions& options) {
  partitions_ = RoundUpPow2(
      std::min(kMaxPartitions, std::max<size_t>(1, options.partitions)));
  size_t n =
      RoundUpPow2(options.stripes == 0 ? DefaultStripes() : options.stripes);
  stripe_mask_ = n - 1;
  size_t total = n * partitions_;
  shard_mask_ = total - 1;
  shards_ = std::vector<Shard>(total);
  predicate_stripes_ = std::vector<PredicateStripe>(total);
  next_seq_ = std::make_unique<std::atomic<TxnId>[]>(partitions_);
  for (size_t p = 0; p < partitions_; ++p) {
    next_seq_[p].store(0, std::memory_order_relaxed);
  }
}

TxnId TxnManager::AllocateId(uint32_t partition) {
  TxnId seq = next_seq_[partition].fetch_add(1, std::memory_order_relaxed);
  return seq * partitions_ + partition + 1;
}

template <typename Fn>
bool TxnManager::WithTxn(TxnId id, Fn fn) const {
  const Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.txns.find(id);
  if (it == shard.txns.end()) return false;
  fn(it->second.get());
  return true;
}

TxnInfo* TxnManager::Begin(Snapshot snapshot, std::string global_id,
                           uint32_t home_partition) {
  auto info = std::make_unique<TxnInfo>();
  info->home_partition =
      home_partition & static_cast<uint32_t>(partitions_ - 1);
  info->id = AllocateId(info->home_partition);
  info->global_id = std::move(global_id);
  info->snapshot = snapshot;
  info->num_slots = static_cast<uint32_t>(partitions_);
  info->slots = std::make_unique<ConflictSlot[]>(partitions_);
  TxnInfo* ptr = info.get();
  Shard& shard = ShardOf(ptr->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  // begin_csn anchors the GC horizon, so it is sampled under the shard
  // lock: a concurrent GarbageCollect either sees this transaction in the
  // shard scan or ran its horizon init before this (monotonic) sample.
  // For CSN snapshots it is additionally clamped to the snapshot CSN —
  // the caller may have sampled the snapshot a while ago, and GC must
  // never pass a snapshot an active transaction still reads at.
  Csn now = csn_.load(std::memory_order_acquire);
  ptr->begin_csn = snapshot.kind == Snapshot::Kind::kCsn
                       ? std::min(snapshot.csn, now)
                       : now;
  shard.txns.emplace(ptr->id, std::move(info));
  return ptr;
}

TxnInfo* TxnManager::BeginAtCurrentCsn(std::string global_id,
                                       uint32_t home_partition) {
  auto info = std::make_unique<TxnInfo>();
  info->home_partition =
      home_partition & static_cast<uint32_t>(partitions_ - 1);
  info->id = AllocateId(info->home_partition);
  info->global_id = std::move(global_id);
  info->num_slots = static_cast<uint32_t>(partitions_);
  info->slots = std::make_unique<ConflictSlot[]>(partitions_);
  TxnInfo* ptr = info.get();
  Shard& shard = ShardOf(ptr->id);
  std::lock_guard<std::mutex> lock(shard.mu);
  Csn now = csn_.load(std::memory_order_acquire);
  ptr->snapshot = Snapshot::AtCsn(now);
  ptr->begin_csn = now;
  shard.txns.emplace(ptr->id, std::move(info));
  return ptr;
}

TxnInfo* TxnManager::Get(TxnId id) {
  TxnInfo* out = nullptr;
  WithTxn(id, [&](TxnInfo* t) { out = t; });
  return out;
}

const TxnInfo* TxnManager::Get(TxnId id) const {
  const TxnInfo* out = nullptr;
  WithTxn(id, [&](TxnInfo* t) { out = t; });
  return out;
}

TxnStatusView TxnManager::StatusViewOf(TxnId id) const {
  // Unknown transactions were garbage-collected, which only happens after
  // they finished; the default-constructed view (state kCommitted,
  // commit_csn 0, known false) is exactly "committed long ago", and the
  // GC horizon guarantees no active snapshot can still be affected.
  TxnStatusView v;
  WithTxn(id, [&](TxnInfo* t) {
    v.known = true;
    v.state = t->state.load(std::memory_order_acquire);
    v.doomed = t->doomed.load(std::memory_order_acquire);
    v.begin_csn = t->begin_csn;
    if (v.state == TxnState::kCommitted) {
      // Published by the release store of state = kCommitted.
      v.commit_csn = t->commit_csn;
      v.commit_block = t->commit_block;
    } else {
      v.commit_csn = 0;
      v.commit_block = 0;
    }
  });
  return v;
}

TxnState TxnManager::StateOf(TxnId id) const { return StatusViewOf(id).state; }

bool TxnManager::IsAborted(TxnId id) const {
  return StateOf(id) == TxnState::kAborted;
}

Csn TxnManager::CommitCsnOf(TxnId id) const {
  return StatusViewOf(id).commit_csn;
}

BlockNum TxnManager::CommitBlockOf(TxnId id) const {
  return StatusViewOf(id).commit_block;
}

PredicateHandle TxnManager::RecordPredicate(TxnInfo* reader,
                                            PredicateRead predicate,
                                            int partition) {
  // A pinned predicate (equality on the partition column) can only be
  // covered by writes hashing to its partition, so it registers in that
  // group alone and the reader stays partition-local. Everything else
  // registers in the shared group 0 — which RecordWrite always probes —
  // and conservatively marks the reader as touching every partition.
  uint32_t group = 0;
  if (partition >= 0 && static_cast<size_t>(partition) < partitions_) {
    group = static_cast<uint32_t>(partition);
    reader->TouchPartition(group);
  } else {
    reader->TouchAllPartitions();
  }
  predicate.horizon = std::make_shared<RowId>(0);
  PredicateHandle handle{predicate.table, group, predicate.horizon.get()};
  PredicateStripe& stripe = PredicateStripeOf(group, predicate.table);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.by_table[predicate.table].Add(reader->id, predicate);
  }
  reader->predicates.push_back(std::move(predicate));  // owner thread
  return handle;
}

void TxnManager::PublishHorizon(const PredicateHandle& handle,
                                RowId horizon) {
  PredicateStripe& stripe = PredicateStripeOf(handle.group, handle.table);
  std::lock_guard<std::mutex> lock(stripe.mu);
  *handle.horizon = horizon;
}

bool TxnManager::Concurrent(const TxnStatusView& a, const TxnInfo& b) {
  // Two transactions are concurrent unless one committed before the other
  // began. Abort does not end concurrency retroactively; aborted txns are
  // filtered out by callers.
  if (a.state == TxnState::kCommitted && a.commit_csn <= b.begin_csn) {
    return false;
  }
  TxnState b_state = b.state.load(std::memory_order_acquire);
  if (b_state == TxnState::kCommitted && b.commit_csn <= a.begin_csn) {
    return false;
  }
  return true;
}

void TxnManager::AddEdge(TxnId reader, TxnId writer, uint32_t partition) {
  if (reader == writer) return;
  TxnStatusView r = StatusViewOf(reader);
  TxnStatusView w = StatusViewOf(writer);
  if (!r.known || !w.known) return;
  if (r.state == TxnState::kAborted || w.state == TxnState::kAborted) return;
  WithTxn(reader, [&](TxnInfo* t) {
    t->TouchPartition(partition);
    std::lock_guard<std::mutex> lock(t->slots[partition].mu);
    t->slots[partition].out.insert(writer);
  });
  WithTxn(writer, [&](TxnInfo* t) {
    t->TouchPartition(partition);
    std::lock_guard<std::mutex> lock(t->slots[partition].mu);
    t->slots[partition].in.insert(reader);
  });
}

void TxnManager::AddPredicateEdges(TxnInfo* writer, TableId table,
                                   const Row& values, RowId row,
                                   uint32_t partition) {
  writer->TouchPartition(partition);
  std::vector<TxnId> readers;
  auto probe_group = [&](uint32_t group) {
    PredicateStripe& stripe = PredicateStripeOf(group, table);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.by_table.find(table);
    if (it != stripe.by_table.end()) it->second.Match(values, &readers, row);
  };
  probe_group(partition);
  if (partition != 0) probe_group(0);
  for (TxnId reader : readers) {
    if (reader == writer->id) continue;
    TxnStatusView r = StatusViewOf(reader);
    if (!r.known || r.state == TxnState::kAborted) continue;
    if (!Concurrent(r, *writer)) continue;
    AddEdge(reader, writer->id, partition);
  }
}

void TxnManager::RecordWrite(TxnInfo* writer, const WriteRecord& write,
                             const Row* new_values, const Row* base_values,
                             uint32_t new_partition,
                             uint32_t base_partition) {
  writer->writes.push_back(write);  // owner thread

  // rw edges from transactions whose scans read the base version we are
  // replacing or deleting: a predicate that covers the base's (immutable)
  // values and whose horizon lies beyond it had the base in its id list
  // (the SIREAD check, at scan granularity).
  if (base_values != nullptr && write.base_row != kInvalidRowId) {
    AddPredicateEdges(writer, write.table, *base_values, write.base_row,
                      base_partition);
  }

  // rw (predicate/phantom) edges from transactions whose scans cover the
  // values we are introducing. The per-table PredicateIndex prunes the
  // candidate set to the bucket of the written value instead of walking
  // every registered predicate.
  if (new_values != nullptr) {
    AddPredicateEdges(writer, write.table, *new_values, kInvalidRowId,
                      new_partition);
  }
}

void TxnManager::AddRwEdge(TxnId reader, TxnId writer, uint32_t partition) {
  AddEdge(reader, writer, partition);
}

void TxnManager::Doom(TxnId txn, const Status& reason) {
  WithTxn(txn, [&](TxnInfo* t) {
    if (t->state.load(std::memory_order_acquire) != TxnState::kActive) return;
    std::lock_guard<std::mutex> lock(t->doom_mu);
    if (!t->doomed.load(std::memory_order_relaxed)) {
      t->doom_reason = reason;
      t->doomed.store(true, std::memory_order_release);
    }
  });
}

bool TxnManager::IsDoomed(TxnId txn) const {
  bool doomed = false;
  WithTxn(txn,
          [&](TxnInfo* t) { doomed = t->doomed.load(std::memory_order_acquire); });
  return doomed;
}

Status TxnManager::DoomReason(TxnId txn) const {
  Status reason = Status::OK();
  WithTxn(txn, [&](TxnInfo* t) {
    std::lock_guard<std::mutex> lock(t->doom_mu);
    if (t->doomed.load(std::memory_order_relaxed)) reason = t->doom_reason;
  });
  return reason;
}

std::vector<TxnId> TxnManager::CopyConflicts(TxnId id, bool in) const {
  // Merge across the touched slots, ascending partition order. std::set
  // iteration per slot plus set_union semantics keep the result sorted
  // and deduplicated, so the output is independent of slot layout (and
  // therefore of the partition count).
  std::set<TxnId> merged;
  WithTxn(id, [&](TxnInfo* t) {
    uint64_t touched = t->touched_partitions.load(std::memory_order_acquire);
    for (uint32_t p = 0; p < t->num_slots; ++p) {
      if (!((touched >> p) & 1)) continue;
      std::lock_guard<std::mutex> lock(t->slots[p].mu);
      const std::set<TxnId>& s = in ? t->slots[p].in : t->slots[p].out;
      merged.insert(s.begin(), s.end());
    }
  });
  return std::vector<TxnId>(merged.begin(), merged.end());
}

void TxnManager::MergeConflictsOf(const TxnInfo* txn, std::vector<TxnId>* ins,
                                  std::vector<TxnId>* outs) {
  std::set<TxnId> in_set, out_set;
  uint64_t touched = txn->touched_partitions.load(std::memory_order_acquire);
  for (uint32_t p = 0; p < txn->num_slots; ++p) {
    if (!((touched >> p) & 1)) continue;
    std::lock_guard<std::mutex> lock(txn->slots[p].mu);
    in_set.insert(txn->slots[p].in.begin(), txn->slots[p].in.end());
    out_set.insert(txn->slots[p].out.begin(), txn->slots[p].out.end());
  }
  ins->assign(in_set.begin(), in_set.end());
  outs->assign(out_set.begin(), out_set.end());
}

Status TxnManager::ValidateAbortDuringCommit(TxnInfo* txn,
                                             const std::vector<TxnId>& ins,
                                             const std::vector<TxnId>& outs) {
  // Self pivot rule: this transaction has a committed outConflict and some
  // inConflict -> a dangerous structure with the out side committed first
  // (Figure 2(c)); the committing pivot must abort.
  // Doomed transactions are guaranteed to abort at their commit slot, so
  // they no longer participate in dangerous structures (dooming is itself
  // deterministic across nodes).
  bool has_in = false;
  for (TxnId in : ins) {
    TxnStatusView v = StatusViewOf(in);
    if (v.known && v.state != TxnState::kAborted && !v.doomed) {
      has_in = true;
      break;
    }
  }
  if (has_in) {
    for (TxnId out : outs) {
      TxnStatusView v = StatusViewOf(out);
      if (v.known && v.state == TxnState::kCommitted) {
        return Status::SerializationFailure(
            "pivot with committed outConflict (abort during commit)");
      }
    }
  }

  // Victim rule: for each active nearConflict N (N ->rw txn), if any
  // non-aborted farConflict F (F ->rw N) exists — including F == txn for
  // the two-transaction cycle — abort N so txn can commit.
  for (TxnId n_id : ins) {
    TxnStatusView n = StatusViewOf(n_id);
    if (!n.known || n.state != TxnState::kActive || n.doomed) continue;
    for (TxnId f_id : CopyConflicts(n_id, /*in=*/true)) {
      if (f_id == txn->id) {
        Doom(n_id, Status::SerializationFailure(
                       "nearConflict of committing transaction (2-cycle)"));
        break;
      }
      TxnStatusView f = StatusViewOf(f_id);
      if (!f.known || f.state == TxnState::kAborted || f.doomed) continue;
      Doom(n_id, Status::SerializationFailure(
                     "nearConflict with farConflict (abort during commit)"));
      break;
    }
  }
  return Status::OK();
}

// Block-aware validation (paper §3.4.3, Table 2), reformulated so that
// every input is deterministic across nodes.
//
// The paper's Table 2 picks victims among near/far conflicts at the
// committing transaction. Whether an edge to an *uncommitted* transaction
// exists at that moment depends on node-local execution timing (EOP
// transactions execute whenever they arrive, and may fail mid-execution
// with a partial edge set), so acting on such edges diverges across nodes.
// Two observations give a deterministic equivalent:
//
//  1. Edges between the committing transaction and transactions that have
//     already COMMITTED are deterministic: both completed execution before
//     any commit of their block (the execution barrier), so dual recording
//     (SIREAD before read / xmax candidate before reader scan) guarantees
//     the edge exists on every node.
//  2. Within one block no wr-dependency can exist — no transaction sees a
//     same-block sibling's writes during execution — so the "hidden
//     wr-edge" that makes Table 2 abort aggressively cannot occur between
//     block members; a same-block dangerous structure is only real once
//     both of its rw edges connect committed transactions.
//
// Rules applied at each transaction's own commit slot:
//  (a) an rw edge to a transaction committed in an EARLIER block aborts
//      the committer — on nodes where this edge was never recorded the
//      same conflict manifests as a stale or phantom read (§3.4.1), which
//      also aborts it (the paper's §3.4.3 scenarios 1-3 argument);
//  (b) a committed same-block outConflict together with a committed
//      same-block inConflict makes the committer the closing pivot of a
//      potential cycle — abort (every same-block cycle is broken at its
//      last-committing member).
// Everything else commits. Compared to a literal Table 2 this admits more
// serializable schedules (e.g. a pure chain F->N->T all commits) while
// remaining anomaly-safe and byte-identical across nodes.
Status TxnManager::ValidateBlockAware(
    TxnInfo* txn, BlockNum block, const std::vector<TxnId>& block_members,
    const std::vector<TxnId>& ins, const std::vector<TxnId>& outs) {
  (void)txn;
  (void)block_members;
  bool committed_same_block_out = false;
  for (TxnId out : outs) {
    TxnStatusView o = StatusViewOf(out);
    if (!o.known || o.state != TxnState::kCommitted) continue;
    if (o.commit_block != block) {
      return Status::SerializationFailure(
          "rw-dependency to transaction committed in earlier block "
          "(block-aware SSI)");
    }
    committed_same_block_out = true;
  }
  if (committed_same_block_out) {
    for (TxnId in : ins) {
      TxnStatusView m = StatusViewOf(in);
      if (m.known && m.state == TxnState::kCommitted &&
          m.commit_block == block) {
        return Status::SerializationFailure(
            "pivot with committed in- and out-conflicts within block "
            "(block-aware SSI)");
      }
    }
  }
  return Status::OK();
}

Status TxnManager::ValidateForCommit(TxnInfo* txn, SsiPolicy policy,
                                     BlockNum block, int block_pos,
                                     const std::vector<TxnId>& block_members) {
  assert(txn->state.load() == TxnState::kActive);
  txn->block_pos = block_pos;
  if (txn->doomed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(txn->doom_mu);
    return txn->doom_reason;
  }

  // Two-phase conflict merge, done once per validation: single-partition
  // transactions touch one slot and skip cross-partition coordination
  // entirely; multi-partition transactions pay a timed ordered merge.
  // The merged sets are a union over slots, so they are byte-identical
  // to what a single-slot layout produces.
  const uint64_t touched =
      txn->touched_partitions.load(std::memory_order_acquire);
  const bool multi = (touched & (touched - 1)) != 0;
  std::vector<TxnId> ins, outs;
  if (multi) {
    auto t0 = std::chrono::steady_clock::now();
    MergeConflictsOf(txn, &ins, &outs);
    txn->merge_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    multi_partition_validations_.fetch_add(1, std::memory_order_relaxed);
    cross_partition_merge_ns_.fetch_add(txn->merge_ns,
                                        std::memory_order_relaxed);
  } else {
    MergeConflictsOf(txn, &ins, &outs);
    txn->merge_ns = 0;
    single_partition_validations_.fetch_add(1, std::memory_order_relaxed);
  }

  switch (policy) {
    case SsiPolicy::kAbortDuringCommit:
      return ValidateAbortDuringCommit(txn, ins, outs);
    case SsiPolicy::kBlockAware:
      return ValidateBlockAware(txn, block, block_members, ins, outs);
  }
  return Status::Internal("unknown SSI policy");
}

TxnPartitionCounters TxnManager::partition_counters() const {
  TxnPartitionCounters c;
  c.single_partition_validations =
      single_partition_validations_.load(std::memory_order_relaxed);
  c.multi_partition_validations =
      multi_partition_validations_.load(std::memory_order_relaxed);
  c.cross_partition_merge_ns =
      cross_partition_merge_ns_.load(std::memory_order_relaxed);
  return c;
}

void TxnManager::MarkCommitted(TxnInfo* txn, BlockNum block) {
  assert(txn->state.load() == TxnState::kActive);
  std::lock_guard<std::mutex> lock(commit_mu_);
  Csn v = csn_.load(std::memory_order_relaxed) + 1;
  txn->commit_csn = v;
  txn->commit_block = block;
  // Publication order matters: the committed state (release store below)
  // must be visible before CurrentCsn() can hand out a snapshot CSN >= v,
  // or a fresh snapshot would briefly classify this transaction's rows as
  // created-by-active (invisible) and re-reads within one snapshot would
  // diverge. csn_'s release store pairs with CurrentCsn()'s acquire load.
  txn->state.store(TxnState::kCommitted, std::memory_order_release);
  csn_.store(v, std::memory_order_release);
}

void TxnManager::MarkAborted(TxnInfo* txn) {
  TxnState expected = TxnState::kActive;
  if (!txn->state.compare_exchange_strong(expected, TxnState::kAborted,
                                          std::memory_order_acq_rel)) {
    return;
  }
  // Aborted transactions no longer participate in any structure. An edge
  // lives in the SAME slot index on both endpoints, so the peer erasure
  // targets the matching slot.
  for (uint32_t p = 0; p < txn->num_slots; ++p) {
    std::vector<TxnId> outs, ins;
    {
      std::lock_guard<std::mutex> lock(txn->slots[p].mu);
      outs.assign(txn->slots[p].out.begin(), txn->slots[p].out.end());
      ins.assign(txn->slots[p].in.begin(), txn->slots[p].in.end());
    }
    for (TxnId out : outs) {
      WithTxn(out, [&](TxnInfo* t) {
        std::lock_guard<std::mutex> lock(t->slots[p].mu);
        t->slots[p].in.erase(txn->id);
      });
    }
    for (TxnId in : ins) {
      WithTxn(in, [&](TxnInfo* t) {
        std::lock_guard<std::mutex> lock(t->slots[p].mu);
        t->slots[p].out.erase(txn->id);
      });
    }
  }
}

size_t TxnManager::GarbageCollect() {
  // Phase 1: GC horizon — the oldest active snapshot and every id an
  // active transaction still holds an edge to.
  Csn min_begin = csn_.load(std::memory_order_acquire);
  std::set<TxnId> referenced;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, info] : shard.txns) {
      if (info->state.load(std::memory_order_acquire) != TxnState::kActive) {
        continue;
      }
      min_begin = std::min(min_begin, info->begin_csn);
      for (uint32_t p = 0; p < info->num_slots; ++p) {
        std::lock_guard<std::mutex> clock(info->slots[p].mu);
        referenced.insert(info->slots[p].in.begin(),
                          info->slots[p].in.end());
        referenced.insert(info->slots[p].out.begin(),
                          info->slots[p].out.end());
      }
    }
  }

  // Phase 2: remove finished, unreferenced transactions older than the
  // horizon. New edges racing in resolve to "unknown = committed long ago",
  // which the horizon makes safe.
  std::unordered_set<TxnId> removed;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.txns.begin(); it != shard.txns.end();) {
      const TxnInfo& info = *it->second;
      TxnState st = info.state.load(std::memory_order_acquire);
      if (st == TxnState::kActive || referenced.count(it->first) ||
          (st == TxnState::kCommitted && info.commit_csn >= min_begin)) {
        ++it;
        continue;
      }
      removed.insert(it->first);
      it = shard.txns.erase(it);
    }
  }
  if (removed.empty()) return 0;

  // Phase 3: prune the removed readers' predicates (and with them their
  // SIREAD locks) one stripe at a time.
  for (PredicateStripe& stripe : predicate_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (auto it = stripe.by_table.begin(); it != stripe.by_table.end();) {
      it->second.RemoveReaders(removed);
      it = it->second.empty() ? stripe.by_table.erase(it) : std::next(it);
    }
  }
  return removed.size();
}

size_t TxnManager::TrackedCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.txns.size();
  }
  return n;
}

}  // namespace brdb
