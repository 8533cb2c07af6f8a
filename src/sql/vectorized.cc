#include "sql/vectorized.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace brdb {
namespace sql {

namespace {

/// The B-tree range membership rule: NULL sorts before everything, so a
/// NULL key lies in [lo, hi] exactly when lo is unbounded.
bool InRange(const Value& v, const Value* lo, bool lo_inclusive,
             const Value* hi, bool hi_inclusive) {
  if (v.is_null()) return lo == nullptr;
  if (lo != nullptr) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (hi != nullptr) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

/// True when the segment's zone map proves no row can fall in the range.
bool ZoneMapPrunes(const ColumnChunk& chunk, const Value* lo,
                   bool lo_inclusive, const Value* hi, bool hi_inclusive) {
  if (lo != nullptr) {
    // NULL keys fail a bounded lo, so only the non-null [min, max] matters.
    if (chunk.min.is_null()) return true;  // no non-null values at all
    int c = lo->Compare(chunk.max);
    if (c > 0 || (c == 0 && !lo_inclusive)) return true;
    if (hi != nullptr) {
      c = hi->Compare(chunk.min);
      if (c < 0 || (c == 0 && !hi_inclusive)) return true;
    }
    return false;
  }
  // Unbounded lo admits NULL keys: can only prune a null-free segment.
  if (chunk.has_null) return false;
  if (chunk.min.is_null()) return true;  // empty column
  if (hi != nullptr) {
    int c = hi->Compare(chunk.min);
    if (c < 0 || (c == 0 && !hi_inclusive)) return true;
  }
  return false;
}

}  // namespace

Status ColumnarScan(const ColumnStore::TableSnapshot& snap, BlockNum height,
                    int best_col, const Value* lo, bool lo_inclusive,
                    const Value* hi, bool hi_inclusive,
                    std::vector<const Row*>* out_rows,
                    ColumnarScanStats* stats) {
  const auto& sealed_del = *snap.sealed_deletes;
  std::unordered_map<RowId, BlockNum> tail_del;
  for (const DeleteEvent& d : snap.tail_deletes) {
    if (d.block <= height) tail_del.emplace(d.rid, d.block);
  }
  auto deleted = [&](RowId rid) {
    auto it = sealed_del.find(rid);
    if (it != sealed_del.end() && it->second <= height) return true;
    return tail_del.find(rid) != tail_del.end();
  };

  const bool range = best_col >= 0;
  const size_t key_col = static_cast<size_t>(best_col);
  // Survivors as (key, rid). A range scan reads the key of a non-null INT
  // cell straight from the typed array; while every key is one, the pairs
  // sort natively into (key, rid) order. `int_keys` turns false at the
  // first other key, and the sort falls back to Value::Compare.
  std::vector<std::pair<int64_t, RowId>> survivors;
  bool int_keys = range;

  for (const auto& seg_ptr : snap.segments) {
    const TableSegment& seg = *seg_ptr;
    const size_t n = seg.num_rows();
    if (n == 0) continue;
    if (seg.first_block > height) continue;  // sealed after the snapshot
    const ColumnChunk* key_chunk = range ? &seg.columns[key_col] : nullptr;

    auto push = [&](size_t i) {
      if (seg.creator_blocks[i] > height) return;
      if (deleted(seg.rids[i])) return;
      int64_t key = 0;
      if (range) {
        const ColumnChunk& c = *key_chunk;
        if (c.nulls[i] == 0 &&
            (c.type == ValueType::kInt ||
             (c.type == ValueType::kDouble && c.was_int[i] != 0))) {
          key = c.ints[i];
        } else {
          int_keys = false;
        }
      }
      survivors.emplace_back(key, seg.rids[i]);
    };

    if (!range) {
      if (stats != nullptr) ++stats->segments_scanned;
      for (size_t i = 0; i < n; ++i) push(i);
      continue;
    }

    const ColumnChunk& chunk = *key_chunk;
    if (ZoneMapPrunes(chunk, lo, lo_inclusive, hi, hi_inclusive)) {
      if (stats != nullptr) ++stats->segments_pruned;
      continue;
    }
    if (stats != nullptr) ++stats->segments_scanned;

    if (chunk.type == ValueType::kInt &&
        (lo == nullptr || lo->type() == ValueType::kInt) &&
        (hi == nullptr || hi->type() == ValueType::kInt)) {
      // Typed pushdown: compare the int64 array directly.
      const int64_t loi = lo != nullptr ? lo->AsInt() : 0;
      const int64_t hii = hi != nullptr ? hi->AsInt() : 0;
      for (size_t i = 0; i < n; ++i) {
        if (chunk.nulls[i] != 0) {
          if (lo == nullptr) push(i);
          continue;
        }
        const int64_t v = chunk.ints[i];
        if (lo != nullptr && (v < loi || (v == loi && !lo_inclusive))) continue;
        if (hi != nullptr && (v > hii || (v == hii && !hi_inclusive))) continue;
        push(i);
      }
    } else if (chunk.type == ValueType::kText &&
               (lo == nullptr || lo->type() == ValueType::kText) &&
               (hi == nullptr || hi->type() == ValueType::kText)) {
      // Typed pushdown: the sorted dictionary maps the text range to a
      // per-segment code interval [code_lo, code_end).
      uint32_t code_lo = 0;
      uint32_t code_end = static_cast<uint32_t>(chunk.dict.size());
      if (lo != nullptr) {
        auto it = lo_inclusive
                      ? std::lower_bound(chunk.dict.begin(), chunk.dict.end(),
                                         lo->AsText())
                      : std::upper_bound(chunk.dict.begin(), chunk.dict.end(),
                                         lo->AsText());
        code_lo = static_cast<uint32_t>(it - chunk.dict.begin());
      }
      if (hi != nullptr) {
        auto it = hi_inclusive
                      ? std::upper_bound(chunk.dict.begin(), chunk.dict.end(),
                                         hi->AsText())
                      : std::lower_bound(chunk.dict.begin(), chunk.dict.end(),
                                         hi->AsText());
        code_end = static_cast<uint32_t>(it - chunk.dict.begin());
      }
      for (size_t i = 0; i < n; ++i) {
        if (chunk.nulls[i] != 0) {
          if (lo == nullptr) push(i);
          continue;
        }
        if (chunk.codes[i] >= code_lo && chunk.codes[i] < code_end) push(i);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (InRange(chunk.At(i), lo, lo_inclusive, hi, hi_inclusive)) push(i);
      }
    }
  }

  // Row-store tail above the watermark: blocks are nondecreasing in commit
  // order, so the first event past the snapshot ends the walk.
  const Table* table = snap.table;
  for (const auto& [rid, block] : snap.tail_inserts) {
    if (block > height) break;
    if (deleted(rid)) continue;
    int64_t key = 0;
    if (range) {
      const Value& v = table->ValuesOf(rid)[key_col];
      if (!InRange(v, lo, lo_inclusive, hi, hi_inclusive)) continue;
      if (v.type() == ValueType::kInt) {
        key = v.AsInt();
      } else {
        int_keys = false;
      }
    }
    survivors.emplace_back(key, rid);
  }

  if (!range) {
    // Full-scan contract: rid (append) order.
    std::sort(survivors.begin(), survivors.end(),
              [](const std::pair<int64_t, RowId>& a,
                 const std::pair<int64_t, RowId>& b) {
                return a.second < b.second;
              });
  } else if (int_keys) {
    // Range contract: (key, rid) order -- what the index emits (posting
    // lists are rid-ascending per key).
    std::sort(survivors.begin(), survivors.end());
  } else {
    // Same order for any other key: compare the stored Values in place.
    std::vector<std::pair<const Value*, RowId>> keyed;
    keyed.reserve(survivors.size());
    for (const auto& [key, rid] : survivors) {
      keyed.emplace_back(&table->ValuesOf(rid)[key_col], rid);
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const std::pair<const Value*, RowId>& a,
                 const std::pair<const Value*, RowId>& b) {
                int c = a.first->Compare(*b.first);
                if (c != 0) return c < 0;
                return a.second < b.second;
              });
    for (size_t i = 0; i < keyed.size(); ++i) {
      survivors[i].second = keyed[i].second;
    }
  }
  // Every segment cell was copied from this same immutable arena payload
  // (BuildSegment), so the row is emitted in place, not rebuilt.
  out_rows->reserve(out_rows->size() + survivors.size());
  for (const auto& [key, rid] : survivors) {
    out_rows->push_back(&table->ValuesOf(rid));
  }
  return Status::OK();
}

}  // namespace sql
}  // namespace brdb
