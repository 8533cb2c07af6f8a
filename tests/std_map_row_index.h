// The std::map ordered index the B+-tree replaced, kept as the reference
// that btree_index_test and bench/micro_index.cc compare BTreeRowIndex
// against. Same contract (storage/btree.h): keys ordered by Value::Compare,
// one posting per key in insertion order, Erase drops emptied keys.
#ifndef BRDB_TESTS_STD_MAP_ROW_INDEX_H_
#define BRDB_TESTS_STD_MAP_ROW_INDEX_H_

#include <algorithm>
#include <map>

#include "storage/btree.h"

namespace brdb {

class StdMapRowIndex {
 public:
  void Insert(const Value& key, RowId id) { map_[key].push_back(id); }

  void Erase(const Value& key, RowId id) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    PostingList& ids = it->second;
    auto pos = std::find(ids.begin(), ids.end(), id);
    if (pos == ids.end()) return;
    ids.erase(pos);
    if (ids.empty()) map_.erase(it);
  }

  void Scan(const Value* lo, bool lo_inclusive, const Value* hi,
            bool hi_inclusive, const PostingVisitor& visit) const {
    auto it = map_.begin();
    if (lo != nullptr) {
      it = lo_inclusive ? map_.lower_bound(*lo) : map_.upper_bound(*lo);
    }
    for (; it != map_.end(); ++it) {
      if (hi != nullptr) {
        int c = it->first.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return;
      }
      if (!visit(it->first, it->second)) return;
    }
  }

  size_t KeyCount() const { return map_.size(); }

 private:
  struct Less {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  std::map<Value, PostingList, Less> map_;
};

}  // namespace brdb

#endif  // BRDB_TESTS_STD_MAP_ROW_INDEX_H_
