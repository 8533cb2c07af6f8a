// The B+-tree ordered index: structural behavior (splits, duplicate-key
// postings, erase, rebuild-on-threshold compaction), byte-exact range-scan
// parity against the std::map reference index, CREATE INDEX bulk load on a
// populated table (including under concurrent readers and writers — the
// TSAN-labelled part), and vacuum rewiring postings. Table-level scans are
// checked against a std::map index fed the same appends and vacuums: scan
// order is what cross-node determinism rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "std_map_row_index.h"
#include "storage/btree.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

// ---------------------------------------------------------------------------
// Raw index structure tests
// ---------------------------------------------------------------------------

template <typename Index>
std::vector<std::pair<int64_t, RowId>> Collect(const Index& index,
                                               const Value* lo, bool lo_inc,
                                               const Value* hi, bool hi_inc) {
  std::vector<std::pair<int64_t, RowId>> out;
  index.Scan(lo, lo_inc, hi, hi_inc,
             [&](const Value& key, const PostingList& ids) {
               for (RowId id : ids) out.emplace_back(key.AsInt(), id);
               return true;
             });
  return out;
}

TEST(BTreeRowIndexTest, DuplicateKeysKeepInsertionOrderInOnePosting) {
  BTreeRowIndex index;
  index.Insert(Value::Int(7), 100);
  index.Insert(Value::Int(3), 101);
  index.Insert(Value::Int(7), 102);
  index.Insert(Value::Int(7), 103);
  index.Insert(Value::Int(3), 104);

  EXPECT_EQ(index.KeyCount(), 2u);
  Value seven = Value::Int(7);
  auto eq = Collect(index, &seven, true, &seven, true);
  ASSERT_EQ(eq.size(), 3u);
  EXPECT_EQ(eq[0].second, 100u);
  EXPECT_EQ(eq[1].second, 102u);
  EXPECT_EQ(eq[2].second, 103u);

  auto all = Collect(index, nullptr, true, nullptr, true);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].first, 3);  // keys ascending, postings in insert order
  EXPECT_EQ(all[0].second, 101u);
  EXPECT_EQ(all[1].second, 104u);
  EXPECT_EQ(all[2].second, 100u);
}

TEST(BTreeRowIndexTest, SplitsGrowADeepTreeThatStaysSorted) {
  BTreeRowIndex index;
  // Shuffled insert of enough keys to force several levels of splits.
  constexpr int kKeys = 20000;
  std::vector<int64_t> keys;
  keys.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) keys.push_back(i);
  Rng rng(0xb7ee);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(static_cast<uint32_t>(i))]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    index.Insert(Value::Int(keys[i]), static_cast<RowId>(i));
  }
  EXPECT_EQ(index.KeyCount(), static_cast<size_t>(kKeys));
  EXPECT_GE(index.Height(), 3);

  auto all = Collect(index, nullptr, true, nullptr, true);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys));
  for (int64_t i = 0; i < kKeys; ++i) EXPECT_EQ(all[i].first, i);

  // Spot-check bounded windows against the definition.
  Value lo = Value::Int(4321), hi = Value::Int(4444);
  auto window = Collect(index, &lo, false, &hi, true);
  ASSERT_EQ(window.size(), static_cast<size_t>(4444 - 4321));
  EXPECT_EQ(window.front().first, 4322);
  EXPECT_EQ(window.back().first, 4444);
}

TEST(BTreeRowIndexTest, EraseRemovesIdsThenDropsEmptyKeys) {
  BTreeRowIndex index;
  index.Insert(Value::Int(1), 10);
  index.Insert(Value::Int(1), 11);
  index.Insert(Value::Int(2), 12);

  index.Erase(Value::Int(1), 10);
  Value one = Value::Int(1);
  auto left = Collect(index, &one, true, &one, true);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].second, 11u);
  EXPECT_EQ(index.KeyCount(), 2u);

  index.Erase(Value::Int(1), 11);
  EXPECT_EQ(index.KeyCount(), 1u);
  EXPECT_TRUE(Collect(index, &one, true, &one, true).empty());

  // Erasing absent keys/ids is a no-op (vacuum idempotence).
  index.Erase(Value::Int(1), 11);
  index.Erase(Value::Int(99), 1);
  EXPECT_EQ(index.KeyCount(), 1u);
}

TEST(BTreeRowIndexTest, RebuildOnThresholdCompactsDeleteHeavyTree) {
  // Vacuum-style erase never merges leaves; once the leaf level decays
  // below the threshold the tree must rebuild itself via LoadSorted and
  // repack, preserving contents and posting order exactly.
  BTreeRowIndex index;
  constexpr int kKeys = 64 * 40;  // ~40 full leaves
  for (int i = 0; i < kKeys; ++i) {
    index.Insert(Value::Int(i), static_cast<RowId>(i));
    index.Insert(Value::Int(i), static_cast<RowId>(i) + 100000);  // posting
  }
  size_t leaves_before = index.LeafCount();
  ASSERT_GE(leaves_before, 40u);
  ASSERT_EQ(index.CompactionCount(), 0u);

  // Delete-heavy vacuum: drop 9 of 10 keys (both posting entries).
  for (int i = 0; i < kKeys; ++i) {
    if (i % 10 == 0) continue;
    index.Erase(Value::Int(i), static_cast<RowId>(i));
    index.Erase(Value::Int(i), static_cast<RowId>(i) + 100000);
  }
  EXPECT_GE(index.CompactionCount(), 1u);
  EXPECT_LT(index.LeafCount(), leaves_before / 4);
  EXPECT_EQ(index.KeyCount(), static_cast<size_t>(kKeys / 10));

  // Contents and posting order survive the rebuild.
  auto all = Collect(index, nullptr, true, nullptr, true);
  ASSERT_EQ(all.size(), static_cast<size_t>(kKeys / 10) * 2);
  for (int i = 0; i < kKeys / 10; ++i) {
    EXPECT_EQ(all[2 * i].first, i * 10);
    EXPECT_EQ(all[2 * i].second, static_cast<RowId>(i * 10));
    EXPECT_EQ(all[2 * i + 1].second, static_cast<RowId>(i * 10) + 100000);
  }
  // The repacked tree keeps absorbing erases (and can compact again).
  index.Erase(Value::Int(0), 0);
  EXPECT_EQ(index.KeyCount(), static_cast<size_t>(kKeys / 10));
  index.Erase(Value::Int(0), 100000);
  EXPECT_EQ(index.KeyCount(), static_cast<size_t>(kKeys / 10) - 1);
}

TEST(BTreeRowIndexTest, SmallTreesNeverRebuild) {
  // A tree smaller than kMinCompactionLeaves leaves is never worth a
  // rebuild, no matter how empty erases leave it.
  BTreeRowIndex tiny;
  for (int i = 0; i < 100; ++i) {
    tiny.Insert(Value::Int(i), static_cast<RowId>(i));
  }
  for (int i = 0; i < 100; ++i) tiny.Erase(Value::Int(i), i);
  EXPECT_LT(tiny.LeafCount(), BTreeRowIndex::kMinCompactionLeaves);
  EXPECT_EQ(tiny.CompactionCount(), 0u);
  EXPECT_EQ(tiny.KeyCount(), 0u);
}

TEST(TableBTreeIndexTest, VacuumDrivenErasesTriggerIndexCompaction) {
  // End-to-end: mass DELETE + Vacuum on a B-tree-indexed table must shrink
  // the primary-key index through the rebuild-on-threshold pass while the
  // surviving rows stay scannable.
  Database db;
  TableSchema schema("wide",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"v", ValueType::kInt, false, false, false, false}});
  Table* table = db.CreateTable(std::move(schema)).value();
  constexpr int kRows = 64 * 32;
  {
    TxnContext seed(&db, db.txn_manager()->BeginAtCurrentCsn(),
                    TxnMode::kInternal);
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(
          seed.Insert(table, {Value::Int(i), Value::Int(i)}).ok());
    }
    ASSERT_TRUE(seed.CommitInternal(1).ok());
  }
  // Delete 15 of 16 rows, then vacuum past the deleting block.
  {
    TxnContext del(&db, db.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
    std::vector<RowId> victims;
    ASSERT_TRUE(del.ScanAll(table, [&](RowId id, const Row& values) {
                     if (values[0].AsInt() % 16 != 0) victims.push_back(id);
                     return true;
                   }).ok());
    for (RowId id : victims) ASSERT_TRUE(del.Delete(table, id).ok());
    ASSERT_TRUE(del.CommitInternal(2).ok());
  }
  TxnManager* mgr = db.txn_manager();
  size_t removed =
      table->Vacuum(3, [mgr](TxnId id) { return mgr->IsAborted(id); });
  EXPECT_GE(removed, static_cast<size_t>(kRows / 16 * 15));

  // The PK index rebuilt itself: fewer leaves than a never-compacted tree
  // and at least one compaction pass recorded.
  table->WithIndexOn(0, [&](const BTreeRowIndex* btree) {
    ASSERT_NE(btree, nullptr);
    EXPECT_GE(btree->CompactionCount(), 1u);
    EXPECT_LE(btree->LeafCount(),
              static_cast<size_t>(kRows / 16) / BTreeRowIndex::kLeafFanout +
                  2);
  });

  // Survivors intact and in order.
  TxnContext reader(&db, db.txn_manager()->BeginAtCurrentCsn(),
                    TxnMode::kInternal);
  std::vector<int64_t> keys;
  ASSERT_TRUE(reader.ScanAll(table, [&](RowId, const Row& values) {
                   keys.push_back(values[0].AsInt());
                   return true;
                 }).ok());
  ASSERT_EQ(keys.size(), static_cast<size_t>(kRows / 16));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i) * 16);
  }
}

TEST(BTreeRowIndexTest, RandomizedParityWithStdMapBackend) {
  // The B+-tree must agree byte-for-byte with the std::map reference on
  // every scan — this is what the cross-node determinism contract rests on.
  BTreeRowIndex btree;
  StdMapRowIndex map_index;
  Rng rng(0x9a11);
  for (RowId id = 0; id < 30000; ++id) {
    // Narrow key domain: plenty of duplicates; negatives included.
    int64_t key = static_cast<int64_t>(rng.Uniform(2000)) - 1000;
    btree.Insert(Value::Int(key), id);
    map_index.Insert(Value::Int(key), id);
    if (rng.Uniform(4) == 0) {
      int64_t victim = static_cast<int64_t>(rng.Uniform(2000)) - 1000;
      RowId vid = rng.Uniform(static_cast<uint32_t>(id + 1));
      btree.Erase(Value::Int(victim), vid);
      map_index.Erase(Value::Int(victim), vid);
    }
  }
  EXPECT_EQ(btree.KeyCount(), map_index.KeyCount());

  for (int trial = 0; trial < 200; ++trial) {
    int64_t a = static_cast<int64_t>(rng.Uniform(2200)) - 1100;
    int64_t b = static_cast<int64_t>(rng.Uniform(2200)) - 1100;
    Value lo = Value::Int(std::min(a, b)), hi = Value::Int(std::max(a, b));
    bool lo_inc = rng.Uniform(2) == 0, hi_inc = rng.Uniform(2) == 0;
    const Value* lo_p = trial % 7 == 0 ? nullptr : &lo;
    const Value* hi_p = trial % 11 == 0 ? nullptr : &hi;
    EXPECT_EQ(Collect(btree, lo_p, lo_inc, hi_p, hi_inc),
              Collect(map_index, lo_p, lo_inc, hi_p, hi_inc))
        << "trial " << trial;
  }
}

TEST(BTreeRowIndexTest, BulkLoadMatchesIncrementalInserts) {
  Rng rng(0x10ad);
  std::vector<std::pair<Value, RowId>> entries;
  BTreeRowIndex incremental;
  for (RowId id = 0; id < 10000; ++id) {
    int64_t key = static_cast<int64_t>(rng.Uniform(500));
    entries.emplace_back(Value::Int(key), id);
    incremental.Insert(Value::Int(key), id);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& x, const auto& y) {
                     return x.first.Compare(y.first) < 0;
                   });
  BTreeRowIndex loaded;
  loaded.LoadSorted(entries);
  EXPECT_EQ(loaded.KeyCount(), incremental.KeyCount());
  EXPECT_EQ(Collect(loaded, nullptr, true, nullptr, true),
            Collect(incremental, nullptr, true, nullptr, true));

  // Bulk-loaded trees accept further inserts (post-CREATE INDEX writes).
  loaded.Insert(Value::Int(-5), 99999);
  auto all = Collect(loaded, nullptr, true, nullptr, true);
  EXPECT_EQ(all.front().first, -5);
}

TEST(BTreeRowIndexTest, TextKeysScanInLexicographicOrder) {
  BTreeRowIndex index;
  StdMapRowIndex map_index;
  Rng rng(0x7e47);
  for (RowId id = 0; id < 3000; ++id) {
    std::string key = "k" + std::to_string(rng.Uniform(300));
    index.Insert(Value::Text(key), id);
    map_index.Insert(Value::Text(key), id);
  }
  std::vector<std::pair<std::string, RowId>> a, b;
  auto collect = [](const auto& idx,
                    std::vector<std::pair<std::string, RowId>>* out) {
    idx.Scan(nullptr, true, nullptr, true,
             [&](const Value& key, const PostingList& ids) {
               for (RowId id : ids) out->emplace_back(key.AsText(), id);
               return true;
             });
  };
  collect(index, &a);
  collect(map_index, &b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Table-level behavior
// ---------------------------------------------------------------------------

TableSchema ItemsSchema() {
  return TableSchema("items",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"grp", ValueType::kInt, false, false, false, false}});
}

/// The RowIds a Table index scan must return: the reference index's
/// postings over [lo, hi], flattened in scan order.
std::vector<RowId> ReferenceRange(const StdMapRowIndex& index,
                                  const Value* lo, bool lo_inc,
                                  const Value* hi, bool hi_inc) {
  std::vector<RowId> out;
  index.Scan(lo, lo_inc, hi, hi_inc,
             [&](const Value&, const PostingList& ids) {
               out.insert(out.end(), ids.begin(), ids.end());
               return true;
             });
  return out;
}

TEST(TableBTreeIndexTest, CreateIndexBulkLoadsPopulatedTable) {
  Table table(1, ItemsSchema(), kBlockchainSchema);
  StdMapRowIndex reference;  // what per-row backfill inserts would build
  Rng rng(0xc0de);
  for (int i = 0; i < 5000; ++i) {
    int64_t grp = static_cast<int64_t>(rng.Uniform(300));
    RowId id = table.AppendVersion(1, {Value::Int(i), Value::Int(grp)},
                                   kInvalidRowId);
    reference.Insert(Value::Int(grp), id);
  }
  ASSERT_TRUE(table.CreateIndex("grp").ok());
  EXPECT_EQ(table.CreateIndex("grp").code(), StatusCode::kAlreadyExists);

  for (int trial = 0; trial < 50; ++trial) {
    int64_t a = static_cast<int64_t>(rng.Uniform(320));
    int64_t b = static_cast<int64_t>(rng.Uniform(320));
    Value lo = Value::Int(std::min(a, b)), hi = Value::Int(std::max(a, b));
    auto bt = table.IndexRange(1, &lo, true, &hi, trial % 2 == 0);
    ASSERT_TRUE(bt.ok());
    EXPECT_EQ(bt.value(),
              ReferenceRange(reference, &lo, true, &hi, trial % 2 == 0))
        << "trial " << trial;
  }
}

TEST(TableBTreeIndexTest, UpdatesAndVacuumRewirePostings) {
  // An UPDATE appends a new version (both versions indexed); vacuuming the
  // superseded version must drop exactly its posting entry.
  Database db;
  Table* items = db.CreateTable(ItemsSchema()).value();
  ASSERT_TRUE(items->CreateIndex("grp").ok());

  TxnContext seed(&db,
                  db.txn_manager()->Begin(
                      Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                  TxnMode::kInternal);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(seed.Insert(items, {Value::Int(i), Value::Int(i % 10)}).ok());
  }
  ASSERT_TRUE(seed.CommitInternal(1).ok());

  // Move rows 0..49 into group 77 (appends versions 100..149).
  TxnContext update(&db,
                    db.txn_manager()->Begin(
                        Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                    TxnMode::kInternal);
  Value lo = Value::Int(0), hi = Value::Int(49);
  std::vector<RowId> bases;
  ASSERT_TRUE(update
                  .ScanRange(items, 0, &lo, true, &hi, true,
                             [&](RowId id, const Row&) {
                               bases.push_back(id);
                               return true;
                             })
                  .ok());
  ASSERT_EQ(bases.size(), 50u);
  for (RowId base : bases) {
    Row next = items->ValuesOf(base);
    next[1] = Value::Int(77);
    ASSERT_TRUE(update.Update(items, base, std::move(next)).ok());
  }
  ASSERT_TRUE(update.CommitInternal(2).ok());

  // Before vacuum both versions are indexed (group 77 has 50 new entries).
  Value g77 = Value::Int(77);
  auto entries = items->IndexRange(1, &g77, true, &g77, true);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 50u);

  // Vacuum superseded versions below the horizon.
  size_t removed = items->Vacuum(2, [&](TxnId id) {
    return db.txn_manager()->IsAborted(id);
  });
  EXPECT_EQ(removed, 50u);  // the 50 replaced base versions

  // The replaced versions' old-group postings are gone; group 77 intact.
  size_t old_group_hits = 0;
  for (int g = 0; g < 10; ++g) {
    Value gv = Value::Int(g);
    auto r = items->IndexRange(1, &gv, true, &gv, true);
    ASSERT_TRUE(r.ok());
    old_group_hits += r.value().size();
  }
  EXPECT_EQ(old_group_hits, 50u);  // rows 50..99 keep their groups
  entries = items->IndexRange(1, &g77, true, &g77, true);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 50u);
}

TEST(TableBTreeIndexTest, CreateIndexUnderConcurrentReadersAndWriters) {
  // TSAN coverage: CREATE INDEX bulk-loads while readers range-scan the pk
  // index and a writer appends versions. Every scan must observe a sorted,
  // duplicate-free pk sequence; the final index agrees with a map-backend
  // replay of the same rows.
  Table table(1, ItemsSchema(), kBlockchainSchema);
  constexpr int kSeedRows = 4000;
  constexpr int kExtraRows = 1000;
  for (int i = 0; i < kSeedRows; ++i) {
    table.AppendVersion(1, {Value::Int(i), Value::Int(i % 97)}, kInvalidRowId);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> scans_done{0};
  std::thread writer([&] {
    for (int i = 0; i < kExtraRows; ++i) {
      table.AppendVersion(
          1, {Value::Int(kSeedRows + i), Value::Int(i % 97)}, kInvalidRowId);
    }
  });
  std::thread reader([&] {
    std::vector<RowId> ids;
    while (!stop.load(std::memory_order_acquire)) {
      Value lo = Value::Int(100), hi = Value::Int(3900);
      ASSERT_TRUE(table.IndexRange(0, &lo, true, &hi, true, &ids).ok());
      ASSERT_EQ(ids.size(), 3801u);
      int64_t prev = INT64_MIN;
      for (RowId id : ids) {
        int64_t key = table.ValuesOf(id)[0].AsInt();
        ASSERT_LT(prev, key);
        prev = key;
      }
      scans_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  ASSERT_TRUE(table.CreateIndex("grp").ok());
  writer.join();
  // On a single-core host the reader may not have been scheduled yet; hold
  // the window open until it completes at least one scan.
  while (scans_done.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(scans_done.load(), 0);

  // Final parity: grp index contents equal a std::map index of every row.
  StdMapRowIndex reference;
  for (RowId i = 0; i < table.NumVersions(); ++i) {
    reference.Insert(table.ValuesOf(i)[1], i);
  }
  for (int g = 0; g < 97; ++g) {
    Value gv = Value::Int(g);
    auto a = table.IndexRange(1, &gv, true, &gv, true);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value(), ReferenceRange(reference, &gv, true, &gv, true))
        << "group " << g;
  }
}

TEST(TableBTreeIndexTest, ScansMatchStdMapThroughUpdatesAndVacuum) {
  // Every Table index scan must list the RowIds a std::map index fed the
  // same appends and vacuums lists, in the same order, through updates that
  // move rows between keys and vacuums that erase postings.
  // The score column is DOUBLE and holds INT, DOUBLE and -0.0 keys: values
  // that Compare equal (2 and 2.0, 0 and -0.0) share one posting.
  Table table(1,
              TableSchema("scores",
                          {{"id", ValueType::kInt, true, true, false, false},
                           {"score", ValueType::kDouble, false, false, false,
                            true}}),
              kBlockchainSchema);
  StdMapRowIndex ref_id, ref_score;
  std::vector<RowId> live;  // current version of each logical row
  Rng rng(0x5c0e);
  auto score = [&]() {
    int64_t k = static_cast<int64_t>(rng.Uniform(40)) - 20;
    switch (rng.Uniform(4)) {
      case 0: return Value::Double(static_cast<double>(k));
      case 1: return Value::Double(static_cast<double>(k) + 0.5);
      case 2: return Value::Double(-0.0);
      default: return Value::Int(k);
    }
  };
  auto append = [&](Row row, RowId prev) {
    RowId id = table.AppendVersion(1, row, prev);
    ref_id.Insert(row[0], id);
    ref_score.Insert(row[1], id);
    return id;
  };
  for (int i = 0; i < 600; ++i) {
    live.push_back(append({Value::Int(i), score()}, kInvalidRowId));
  }
  std::vector<bool> erased;
  for (BlockNum block = 1; block <= 12; ++block) {
    // Update a third of the rows: the old version is deleted at `block`.
    for (RowId& cur : live) {
      if (rng.Uniform(3) != 0) continue;
      table.FinalizeDelete(cur, 1, block);
      cur = append({table.ValuesOf(cur)[0], score()}, cur);
    }
    // Vacuum versions deleted two blocks back; mirror the erasures.
    if (block > 2) {
      table.Vacuum(block - 2, [](TxnId) { return false; });
      erased.resize(table.NumVersions(), false);
      for (RowId id = 0; id < table.NumVersions(); ++id) {
        if (erased[id] || !table.IsDead(id)) continue;
        erased[id] = true;
        ref_id.Erase(table.ValuesOf(id)[0], id);
        ref_score.Erase(table.ValuesOf(id)[1], id);
      }
    }
    for (int trial = 0; trial < 20; ++trial) {
      Value lo = score(), hi = score();
      if (hi.Compare(lo) < 0) std::swap(lo, hi);
      const Value* lo_p = trial % 5 == 0 ? nullptr : &lo;
      const Value* hi_p = trial % 7 == 0 ? nullptr : &hi;
      bool lo_inc = rng.Uniform(2) == 0, hi_inc = rng.Uniform(2) == 0;
      auto got = table.IndexRange(1, lo_p, lo_inc, hi_p, hi_inc);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(),
                ReferenceRange(ref_score, lo_p, lo_inc, hi_p, hi_inc))
          << "block " << block << " trial " << trial;
      Value id_lo = Value::Int(static_cast<int64_t>(rng.Uniform(600)));
      Value id_hi = Value::Int(id_lo.AsInt() + 40);
      auto ids = table.IndexRange(0, &id_lo, true, &id_hi, false);
      ASSERT_TRUE(ids.ok());
      EXPECT_EQ(ids.value(),
                ReferenceRange(ref_id, &id_lo, true, &id_hi, false));
    }
  }
  EXPECT_GT(std::count(erased.begin(), erased.end(), true), 0);
}

}  // namespace
}  // namespace brdb
