#include "storage/btree.h"

#include <algorithm>

#include "common/logging.h"

namespace brdb {

// ---------------------------------------------------------------------------
// Node layout. Keys live in fixed inline arrays so a within-node binary
// search walks contiguous memory; leaves chain for range iteration.
// ---------------------------------------------------------------------------

struct BTreeRowIndex::Node {
  explicit Node(bool is_leaf) : leaf(is_leaf) {}
  const bool leaf;
  int count = 0;  ///< keys stored in this node
};

struct BTreeRowIndex::LeafNode : Node {
  LeafNode() : Node(true) {}
  Value keys[kLeafFanout];
  PostingList posts[kLeafFanout];
  LeafNode* next = nullptr;
};

struct BTreeRowIndex::InnerNode : Node {
  InnerNode() : Node(false) {}
  // children[i] holds keys < keys[i]; children[i+1] holds keys >= keys[i].
  Value keys[kInnerFanout];
  Node* children[kInnerFanout + 1] = {};
};

namespace {

/// First position in [first, first+count) whose key is >= `key`.
int LowerBound(const Value* first, int count, const Value& key) {
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (first[mid].Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First position in [first, first+count) whose key is > `key`.
int UpperBound(const Value* first, int count, const Value& key) {
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (first[mid].Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BTreeRowIndex::BTreeRowIndex() : root_(new LeafNode()) {}

BTreeRowIndex::~BTreeRowIndex() { DestroySubtree(root_); }

void BTreeRowIndex::DestroySubtree(Node* node) {
  if (node == nullptr) return;
  if (node->leaf) {
    delete static_cast<LeafNode*>(node);
    return;
  }
  InnerNode* inner = static_cast<InnerNode*>(node);
  for (int i = 0; i <= inner->count; ++i) DestroySubtree(inner->children[i]);
  delete inner;
}

BTreeRowIndex::LeafNode* BTreeRowIndex::LeafFor(const Value& key) const {
  Node* node = root_;
  while (!node->leaf) {
    InnerNode* inner = static_cast<InnerNode*>(node);
    // Exact separator matches route right: a separator is the smallest key
    // of its right subtree.
    node = inner->children[UpperBound(inner->keys, inner->count, key)];
  }
  return static_cast<LeafNode*>(node);
}

BTreeRowIndex::LeafNode* BTreeRowIndex::FirstLeaf() const {
  Node* node = root_;
  while (!node->leaf) node = static_cast<InnerNode*>(node)->children[0];
  return static_cast<LeafNode*>(node);
}

namespace {
/// Insertion split propagated one level up: `right` is a new sibling whose
/// smallest key is `sep`.
struct SplitUp {
  bool split = false;
  Value sep;
  void* right = nullptr;
};
}  // namespace

void BTreeRowIndex::Insert(const Value& key, RowId id) {
  // Iterative descent remembering the path (depth is tiny: fanout 64 keeps
  // a billion keys within 6 levels), then split back up as needed.
  InnerNode* path[16];
  int path_child[16];
  int depth = 0;
  Node* node = root_;
  while (!node->leaf) {
    InnerNode* inner = static_cast<InnerNode*>(node);
    int idx = UpperBound(inner->keys, inner->count, key);
    BRDB_CHECK(depth < 16, "B+-tree deeper than supported");
    path[depth] = inner;
    path_child[depth] = idx;
    ++depth;
    node = inner->children[idx];
  }

  LeafNode* leaf = static_cast<LeafNode*>(node);
  int pos = LowerBound(leaf->keys, leaf->count, key);
  if (pos < leaf->count && leaf->keys[pos].Compare(key) == 0) {
    leaf->posts[pos].push_back(id);  // duplicate key: extend the posting
    return;
  }
  ++key_count_;

  SplitUp up;
  if (leaf->count < kLeafFanout) {
    for (int i = leaf->count; i > pos; --i) {
      leaf->keys[i] = std::move(leaf->keys[i - 1]);
      leaf->posts[i] = std::move(leaf->posts[i - 1]);
    }
    leaf->keys[pos] = key;
    leaf->posts[pos] = PostingList{id};
    ++leaf->count;
  } else {
    // Split the leaf: upper half moves to a new chained sibling, then the
    // new key lands in whichever half owns its position.
    LeafNode* right = new LeafNode();
    ++leaf_count_;
    const int half = kLeafFanout / 2;
    for (int i = half; i < leaf->count; ++i) {
      right->keys[i - half] = std::move(leaf->keys[i]);
      right->posts[i - half] = std::move(leaf->posts[i]);
    }
    right->count = leaf->count - half;
    leaf->count = half;
    right->next = leaf->next;
    leaf->next = right;

    LeafNode* dest = leaf;
    int dest_pos = pos;
    if (pos >= half) {
      dest = right;
      dest_pos = pos - half;
    }
    for (int i = dest->count; i > dest_pos; --i) {
      dest->keys[i] = std::move(dest->keys[i - 1]);
      dest->posts[i] = std::move(dest->posts[i - 1]);
    }
    dest->keys[dest_pos] = key;
    dest->posts[dest_pos] = PostingList{id};
    ++dest->count;

    up.split = true;
    up.sep = right->keys[0];
    up.right = right;
  }

  // Propagate splits toward the root.
  while (up.split && depth > 0) {
    --depth;
    InnerNode* inner = path[depth];
    int idx = path_child[depth];
    Node* right_child = static_cast<Node*>(up.right);
    if (inner->count < kInnerFanout) {
      for (int i = inner->count; i > idx; --i) {
        inner->keys[i] = std::move(inner->keys[i - 1]);
        inner->children[i + 1] = inner->children[i];
      }
      inner->keys[idx] = std::move(up.sep);
      inner->children[idx + 1] = right_child;
      ++inner->count;
      up.split = false;
    } else {
      // Split the inner node: the middle separator moves up.
      const int mid = kInnerFanout / 2;
      InnerNode* right = new InnerNode();
      Value sep_up = std::move(inner->keys[mid]);
      for (int i = mid + 1; i < inner->count; ++i) {
        right->keys[i - mid - 1] = std::move(inner->keys[i]);
      }
      for (int i = mid + 1; i <= inner->count; ++i) {
        right->children[i - mid - 1] = inner->children[i];
      }
      right->count = inner->count - mid - 1;
      inner->count = mid;

      InnerNode* dest = inner;
      int dest_idx = idx;
      if (idx > mid) {
        dest = right;
        dest_idx = idx - mid - 1;
      }
      for (int i = dest->count; i > dest_idx; --i) {
        dest->keys[i] = std::move(dest->keys[i - 1]);
        dest->children[i + 1] = dest->children[i];
      }
      dest->keys[dest_idx] = std::move(up.sep);
      dest->children[dest_idx + 1] = right_child;
      ++dest->count;

      up.sep = std::move(sep_up);
      up.right = right;
    }
  }

  if (up.split) {
    InnerNode* new_root = new InnerNode();
    new_root->count = 1;
    new_root->keys[0] = std::move(up.sep);
    new_root->children[0] = root_;
    new_root->children[1] = static_cast<Node*>(up.right);
    root_ = new_root;
    ++height_;
  }
}

void BTreeRowIndex::Erase(const Value& key, RowId id) {
  LeafNode* leaf = LeafFor(key);
  int pos = LowerBound(leaf->keys, leaf->count, key);
  if (pos >= leaf->count || leaf->keys[pos].Compare(key) != 0) return;
  PostingList& ids = leaf->posts[pos];
  auto it = std::find(ids.begin(), ids.end(), id);
  if (it == ids.end()) return;
  ids.erase(it);
  if (!ids.empty()) return;
  // Drop the emptied key. No rebalancing: the only erase path is vacuum,
  // and an underfull (even empty) leaf stays structurally valid — inner
  // separators keep routing correctly because they only bound subtrees.
  for (int i = pos + 1; i < leaf->count; ++i) {
    leaf->keys[i - 1] = std::move(leaf->keys[i]);
    leaf->posts[i - 1] = std::move(leaf->posts[i]);
  }
  --leaf->count;
  leaf->keys[leaf->count] = Value();       // release any heap payload
  leaf->posts[leaf->count] = PostingList();
  --key_count_;
  if (NeedsCompaction()) Compact();
}

bool BTreeRowIndex::NeedsCompaction() const {
  if (leaf_count_ < kMinCompactionLeaves) return false;
  double capacity = static_cast<double>(leaf_count_) * kLeafFanout;
  return static_cast<double>(key_count_) < kCompactionThreshold * capacity;
}

void BTreeRowIndex::Compact() {
  // Gather every (key, id) in order — already sorted by construction, and
  // posting order survives because ids are appended in posting order — and
  // repack with the bulk loader.
  std::vector<std::pair<Value, RowId>> entries;
  entries.reserve(key_count_);
  for (LeafNode* leaf = FirstLeaf(); leaf != nullptr; leaf = leaf->next) {
    for (int i = 0; i < leaf->count; ++i) {
      for (RowId id : leaf->posts[i]) {
        entries.emplace_back(leaf->keys[i], id);
      }
    }
  }
  LoadSorted(std::move(entries));
  ++compaction_count_;
}

void BTreeRowIndex::Scan(const Value* lo, bool lo_inclusive, const Value* hi,
                         bool hi_inclusive,
                         const PostingVisitor& visit) const {
  LeafNode* leaf;
  int pos;
  if (lo != nullptr) {
    leaf = LeafFor(*lo);
    pos = lo_inclusive ? LowerBound(leaf->keys, leaf->count, *lo)
                       : UpperBound(leaf->keys, leaf->count, *lo);
  } else {
    leaf = FirstLeaf();
    pos = 0;
  }
  for (; leaf != nullptr; leaf = leaf->next, pos = 0) {
    for (; pos < leaf->count; ++pos) {
      if (hi != nullptr) {
        int c = leaf->keys[pos].Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      if (!visit(leaf->keys[pos], leaf->posts[pos])) return;
    }
  }
}

void BTreeRowIndex::LoadSorted(std::vector<std::pair<Value, RowId>> entries) {
  DestroySubtree(root_);
  root_ = nullptr;
  key_count_ = 0;
  leaf_count_ = 0;
  height_ = 1;

  // Pack leaves full from the sorted run, grouping duplicate keys into one
  // posting. The tail leaf may be underfull — fine, nothing rebalances.
  std::vector<std::pair<Value, Node*>> level;  // (subtree min key, node)
  LeafNode* leaf = nullptr;
  LeafNode* prev = nullptr;
  for (size_t i = 0; i < entries.size(); ++i) {
    Value& key = entries[i].first;
    if (leaf != nullptr && leaf->count > 0 &&
        leaf->keys[leaf->count - 1].Compare(key) == 0) {
      leaf->posts[leaf->count - 1].push_back(entries[i].second);
      continue;
    }
    if (leaf == nullptr || leaf->count == kLeafFanout) {
      leaf = new LeafNode();
      ++leaf_count_;
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
    }
    if (leaf->count == 0) level.emplace_back(key, leaf);
    leaf->keys[leaf->count] = std::move(key);
    leaf->posts[leaf->count] = PostingList{entries[i].second};
    ++leaf->count;
    ++key_count_;
  }
  if (level.empty()) {
    root_ = new LeafNode();
    leaf_count_ = 1;
    return;
  }

  // Build inner levels bottom-up: chunks of up to kInnerFanout+1 children,
  // never leaving a single orphan child in the last chunk.
  while (level.size() > 1) {
    std::vector<std::pair<Value, Node*>> next_level;
    size_t i = 0;
    while (i < level.size()) {
      size_t remaining = level.size() - i;
      size_t take = std::min<size_t>(kInnerFanout + 1, remaining);
      if (remaining - take == 1) --take;  // leave >= 2 for the final chunk
      InnerNode* inner = new InnerNode();
      inner->count = static_cast<int>(take) - 1;
      for (size_t j = 0; j < take; ++j) {
        inner->children[j] = level[i + j].second;
        if (j > 0) inner->keys[j - 1] = std::move(level[i + j].first);
      }
      next_level.emplace_back(std::move(level[i].first), inner);
      i += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level[0].second;
}

}  // namespace brdb
