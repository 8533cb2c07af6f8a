// The ordered row index behind every Table index: a cache-friendly B+-tree.
//
// Why a B+-tree: the per-column ordered index is the hottest structure on
// the scan path (docs/PERF.md). A red-black map pays one cache miss per
// visited key (nodes are heap-scattered 3-pointer records); the B+-tree
// packs kLeafFanout keys into one contiguous node, chains leaves for range
// iteration, and binary-searches inline key arrays — so a range scan
// touches O(range / fanout) cache lines instead of O(range).
//
// Semantics contract (what Table and the determinism tests rely on; the
// std::map reference in tests/std_map_row_index.h has the same):
//  * keys are Values ordered by Value::Compare;
//  * duplicate keys share one posting list; RowIds within a posting stay in
//    insertion order;
//  * Erase removes a single RowId from a posting and drops the key when the
//    posting empties. The B+-tree does not rebalance on erase: the only
//    caller is Table::Vacuum, whose deletions are rare and monotone, and an
//    underfull leaf is still correct — merely less packed. When vacuum on a
//    delete-heavy table leaves the leaf level below kCompactionThreshold
//    live/capacity, Erase triggers a LoadSorted rebuild that repacks the
//    tree (rebuild-on-threshold compaction).
//
// Thread-safety: none. Every index lives behind its owning Table's mutex.
#ifndef BRDB_STORAGE_BTREE_H_
#define BRDB_STORAGE_BTREE_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/value.h"

namespace brdb {

using RowId = uint64_t;

/// RowIds stored under one key, in insertion order.
using PostingList = std::vector<RowId>;

/// Visit callback for Scan: one key's posting list at a time, keys in
/// ascending order. Return false to stop the scan.
using PostingVisitor =
    std::function<bool(const Value& key, const PostingList& ids)>;

/// Cache-friendly B+-tree: fixed-fanout nodes with inline key arrays,
/// chained leaves, duplicate-key postings.
class BTreeRowIndex {
 public:
  // Fanout tuning: a leaf is ~fanout * (sizeof(Value) + sizeof(PostingList))
  // ≈ 64 * 72B ≈ 4.5KB — a few cache lines of keys scanned per binary
  // search step, and one allocation per 64 keys instead of per key.
  static constexpr int kLeafFanout = 64;
  static constexpr int kInnerFanout = 64;

  BTreeRowIndex();
  ~BTreeRowIndex();

  BTreeRowIndex(const BTreeRowIndex&) = delete;
  BTreeRowIndex& operator=(const BTreeRowIndex&) = delete;

  /// Append `id` to `key`'s posting list (creating the key when absent).
  void Insert(const Value& key, RowId id);

  /// Remove one `id` from `key`'s posting list; drops the key when the
  /// posting empties. No-op when key or id is absent (vacuum idempotence).
  void Erase(const Value& key, RowId id);

  /// In-order visit of every posting whose key lies in [lo, hi]; a null
  /// bound is unbounded, inclusivity per bound.
  void Scan(const Value* lo, bool lo_inclusive, const Value* hi,
            bool hi_inclusive, const PostingVisitor& visit) const;

  /// Number of distinct keys currently present.
  size_t KeyCount() const { return key_count_; }

  /// Height of the tree (1 = root is a leaf). Exposed for tests.
  int Height() const { return height_; }

  /// Replace the contents from entries sorted ascending by (key, id) — the
  /// CREATE INDEX backfill path. Packs leaves directly from the sorted run
  /// instead of paying per-key descents.
  void LoadSorted(std::vector<std::pair<Value, RowId>> entries);

  // ---- compaction (rebuild-on-threshold) ----
  //
  // Erase never merges leaves, so a delete-heavy table (vacuum after mass
  // DELETEs) decays into a long chain of near-empty leaves: scans touch
  // one cache line per few live keys and the dead key/posting slots hold
  // memory. When the live/capacity ratio of the leaf level drops below
  // kCompactionThreshold after an erase, the tree rebuilds itself with
  // LoadSorted — one O(n) pass that repacks leaves full. Trees of fewer
  // than kMinCompactionLeaves leaves never rebuild (nothing to win).
  static constexpr double kCompactionThreshold = 0.25;
  static constexpr size_t kMinCompactionLeaves = 4;

  /// Rebuilds performed so far (observability / tests).
  size_t CompactionCount() const { return compaction_count_; }
  /// Current number of leaf nodes (live capacity = leaves * kLeafFanout).
  size_t LeafCount() const { return leaf_count_; }

 private:
  struct Node;
  struct LeafNode;
  struct InnerNode;

  LeafNode* LeafFor(const Value& key) const;
  /// Leftmost leaf (scan start when lo is unbounded).
  LeafNode* FirstLeaf() const;

  void DestroySubtree(Node* node);

  /// True when the leaf level is sparse enough to be worth repacking.
  bool NeedsCompaction() const;
  /// Collect every (key, id) in order and LoadSorted them back — repacks
  /// leaves full and rebuilds the inner levels.
  void Compact();

  Node* root_ = nullptr;
  size_t key_count_ = 0;
  size_t leaf_count_ = 1;
  int height_ = 1;
  size_t compaction_count_ = 0;
};

}  // namespace brdb

#endif  // BRDB_STORAGE_BTREE_H_
