// Vectorized columnar scan for the HTAP analytics path (storage/columnar.h).
//
// ColumnarScan reproduces the row-store scan contract bit for bit, so the
// executor can swap it under a SELECT without changing any downstream
// operator:
//   * best_col < 0 (full scan): every row visible at `height`, in rid
//     (append) order — the order ctx->ScanAll emits.
//   * best_col >= 0 (range scan): visible rows whose best_col value lies in
//     [lo, hi] per Value::Compare (inclusivity per bound; a NULL key
//     qualifies only when lo is unbounded, because NULL sorts first), in
//     (key, rid) order — the order the B-tree index range emits.
// Candidate-set equality with the row path matters beyond performance: the
// executor re-evaluates the full WHERE afterwards, and an extra candidate
// could hit an evaluation error (e.g. a cross-type comparison in another
// conjunct) the row path never evaluates.
//
// The output is references, not copies: each survivor is emitted as
// &snap.table->ValuesOf(rid), the row's payload in the version arena, which
// never changes, moves or is freed while the table lives. Sealed segments
// were built from those same payloads, so the row is the exact one the row
// path reads; only the typed columns are read per row to filter and order.
//
// The scan is batch-at-a-time (one sealed segment per batch) with min/max
// zone-map pruning and typed predicate pushdown: int ranges compare int64
// arrays, text ranges are translated to a dictionary-code interval per
// segment. The row-store tail above the seal watermark is merged in through
// the same visibility filter.
#ifndef BRDB_SQL_VECTORIZED_H_
#define BRDB_SQL_VECTORIZED_H_

#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/columnar.h"

namespace brdb {
namespace sql {

struct ColumnarScanStats {
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;  ///< skipped entirely via zone map
};

Status ColumnarScan(const ColumnStore::TableSnapshot& snap, BlockNum height,
                    int best_col, const Value* lo, bool lo_inclusive,
                    const Value* hi, bool hi_inclusive,
                    std::vector<const Row*>* out_rows,
                    ColumnarScanStats* stats);

}  // namespace sql
}  // namespace brdb

#endif  // BRDB_SQL_VECTORIZED_H_
