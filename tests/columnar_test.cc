// Columnar segment format and store tests (storage/columnar.h):
//
//  * BuildSegment → EncodeTo → Decode round-trips every value exactly
//    (ints, dictionary text, NULLs), zone maps and delete events included.
//  * A truncated payload and interior file corruption decode to
//    kCorruption; a torn final record in a segment file is tolerated
//    (crash mid-archive), returning the intact prefix.
//  * ColumnarScan honors block-height visibility (creator/delete stamps)
//    and prunes whole segments via min/max zone maps.
//  * ColumnarScan emits references into the version arena in the row
//    path's order: (key, rid) for a range, rid for a full scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sql/vectorized.h"
#include "storage/columnar.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

namespace fs = std::filesystem;

TableSchema KvSchema(const std::string& name) {
  return TableSchema(name,
                     {{"k", ValueType::kInt, true, true, false, false},
                      {"v", ValueType::kInt, false, false, false, false},
                      {"tag", ValueType::kText, false, false, false, false}});
}

/// Insert rows [lo, hi) as one internal transaction committed at `block`,
/// publishing the matching insert events to `store`. Rows get tag
/// "t<k%3>" and v = 10*k; every third v is NULL.
void CommitRows(Database* db, Table* table, ColumnStore* store, int lo,
                int hi, BlockNum block) {
  TxnContext ctx(db,
                 db->txn_manager()->Begin(
                     Snapshot::AtCsn(db->txn_manager()->CurrentCsn())),
                 TxnMode::kInternal);
  RowId first = table->NumVersions();
  for (int k = lo; k < hi; ++k) {
    Row row{Value::Int(k),
            k % 3 == 0 ? Value::Null() : Value::Int(10 * k),
            Value::Text("t" + std::to_string(k % 3))};
    ASSERT_TRUE(ctx.Insert(table, std::move(row)).ok());
  }
  ASSERT_TRUE(ctx.CommitInternal(block).ok());
  for (RowId rid = first; rid < table->NumVersions(); ++rid) {
    store->OnInsert(table, rid, block);
  }
  store->SetCommitted(block);
}

std::string OnlySegmentFile(const std::string& dir) {
  std::string found;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".col") {
      EXPECT_TRUE(found.empty()) << "more than one segment file in " << dir;
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no segment file in " << dir;
  return found;
}

TEST(ColumnarTest, SegmentRoundTripAndVisibility) {
  Database db;
  Table* table = db.CreateTable(KvSchema("kv")).value();
  ColumnStore store;
  CommitRows(&db, table, &store, 0, 40, 1);
  CommitRows(&db, table, &store, 40, 60, 2);
  // Block 3 deletes rids 0..4 (k = 0..4).
  {
    TxnContext ctx(&db,
                   db.txn_manager()->Begin(
                       Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    for (RowId rid = 0; rid < 5; ++rid) {
      ASSERT_TRUE(ctx.Delete(table, rid).ok());
    }
    ASSERT_TRUE(ctx.CommitInternal(3).ok());
    for (RowId rid = 0; rid < 5; ++rid) store.OnDelete(table, rid, 3);
    store.SetCommitted(3);
  }
  ASSERT_TRUE(store.SealThrough(3, "").ok());
  EXPECT_EQ(store.watermark(), 3u);

  auto snap = store.SnapshotFor(table);
  ASSERT_EQ(snap.segments.size(), 1u);
  const TableSegment& seg = *snap.segments[0];
  EXPECT_EQ(seg.num_rows(), 60u);
  EXPECT_EQ(seg.first_block, 1u);
  EXPECT_EQ(seg.last_block, 3u);
  EXPECT_EQ(seg.deletes.size(), 5u);

  // Exact-value reconstruction + zone maps + sorted dictionary.
  for (size_t i = 0; i < seg.num_rows(); ++i) {
    const Row& arena = table->ValuesOf(seg.rids[i]);
    for (size_t c = 0; c < seg.columns.size(); ++c) {
      Value got = seg.columns[c].At(i);
      EXPECT_EQ(got.Compare(arena[c]), 0)
          << "row " << i << " col " << c << ": " << got.ToString() << " vs "
          << arena[c].ToString();
      EXPECT_EQ(got.type(), arena[c].type());
    }
  }
  EXPECT_EQ(seg.columns[0].min.AsInt(), 0);
  EXPECT_EQ(seg.columns[0].max.AsInt(), 59);
  EXPECT_TRUE(seg.columns[1].has_null);
  ASSERT_EQ(seg.columns[2].dict.size(), 3u);
  EXPECT_TRUE(std::is_sorted(seg.columns[2].dict.begin(),
                             seg.columns[2].dict.end()));

  // Encode → Decode round trip is value-exact.
  std::string payload;
  seg.EncodeTo(&payload);
  auto decoded = TableSegment::Decode(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const TableSegment& back = *decoded.value();
  ASSERT_EQ(back.num_rows(), seg.num_rows());
  EXPECT_EQ(back.table_name, seg.table_name);
  EXPECT_EQ(back.rids, seg.rids);
  EXPECT_EQ(back.creator_blocks, seg.creator_blocks);
  ASSERT_EQ(back.deletes.size(), seg.deletes.size());
  for (size_t i = 0; i < seg.deletes.size(); ++i) {
    EXPECT_EQ(back.deletes[i].rid, seg.deletes[i].rid);
    EXPECT_EQ(back.deletes[i].block, seg.deletes[i].block);
  }
  for (size_t c = 0; c < seg.columns.size(); ++c) {
    EXPECT_EQ(back.columns[c].min.Compare(seg.columns[c].min), 0);
    EXPECT_EQ(back.columns[c].max.Compare(seg.columns[c].max), 0);
    for (size_t i = 0; i < seg.num_rows(); ++i) {
      EXPECT_EQ(back.columns[c].At(i).Compare(seg.columns[c].At(i)), 0);
      EXPECT_EQ(back.columns[c].At(i).type(), seg.columns[c].At(i).type());
    }
  }

  // A truncated payload must decode to kCorruption, never crash.
  for (size_t cut : {payload.size() / 2, payload.size() - 1, size_t{3}}) {
    auto bad = TableSegment::Decode(payload.substr(0, cut));
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption) << "cut=" << cut;
  }

  // Visibility through ColumnarScan: height 3 hides the 5 deleted rows;
  // height 1 sees only block 1's inserts.
  std::vector<const Row*> rows;
  sql::ColumnarScanStats stats;
  ASSERT_TRUE(sql::ColumnarScan(snap, 3, -1, nullptr, true, nullptr, true,
                                &rows, &stats)
                  .ok());
  EXPECT_EQ(rows.size(), 55u);
  rows.clear();
  ASSERT_TRUE(sql::ColumnarScan(snap, 1, -1, nullptr, true, nullptr, true,
                                &rows, &stats)
                  .ok());
  EXPECT_EQ(rows.size(), 40u);
}

TEST(ColumnarTest, ZoneMapPrunesDisjointSegments) {
  Database db;
  Table* table = db.CreateTable(KvSchema("kv")).value();
  ColumnStore store;
  // Two sealed segments with disjoint key ranges.
  CommitRows(&db, table, &store, 0, 100, 1);
  ASSERT_TRUE(store.SealThrough(1, "").ok());
  CommitRows(&db, table, &store, 100, 200, 2);
  ASSERT_TRUE(store.SealThrough(2, "").ok());
  auto snap = store.SnapshotFor(table);
  ASSERT_EQ(snap.segments.size(), 2u);

  std::vector<const Row*> rows;
  sql::ColumnarScanStats stats;
  Value lo = Value::Int(150), hi = Value::Int(160);
  ASSERT_TRUE(
      sql::ColumnarScan(snap, 2, 0, &lo, true, &hi, true, &rows, &stats)
          .ok());
  EXPECT_EQ(rows.size(), 11u);
  EXPECT_EQ(stats.segments_pruned, 1u) << "first segment [0,99] not pruned";
  EXPECT_EQ(stats.segments_scanned, 1u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*rows[i])[0].AsInt(), 150 + static_cast<int64_t>(i));
  }
}

TEST(ColumnarTest, ArchiveFileCorruptionAndTornTail) {
  const std::string dir =
      (fs::temp_directory_path() / "brdb_columnar_test").string();
  fs::remove_all(dir);
  Database db;
  // Two tables sealed in one pass share one archive file (two records),
  // so the file has both an interior and a final record to damage.
  Table* ta = db.CreateTable(KvSchema("aa")).value();
  Table* tb = db.CreateTable(KvSchema("bb")).value();
  ColumnStore store;
  CommitRows(&db, ta, &store, 0, 30, 1);
  CommitRows(&db, tb, &store, 0, 20, 1);
  ASSERT_TRUE(store.SealThrough(1, dir).ok());
  const std::string path = OnlySegmentFile(dir);

  auto loaded = ColumnStore::LoadSegmentFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0]->num_rows() + loaded.value()[1]->num_rows(),
            50u);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  // Torn tail: cut into the last record — the intact prefix loads.
  {
    const std::string torn = path + ".torn";
    std::ofstream out(torn, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
    out.close();
    auto r = ColumnStore::LoadSegmentFile(torn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().size(), 1u);
  }

  // Interior corruption: flip a payload byte of the first record.
  {
    std::string bad = bytes;
    bad[bad.size() / 4] ^= 0x5a;
    const std::string corrupt = path + ".bad";
    std::ofstream out(corrupt, std::ios::binary);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();
    auto r = ColumnStore::LoadSegmentFile(corrupt);
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << (r.ok() ? "loaded " + std::to_string(r.value().size()) +
                         " segments from corrupt file"
                   : r.status().ToString());
  }

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0xff;
    const std::string nomagic = path + ".magic";
    std::ofstream out(nomagic, std::ios::binary);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();
    EXPECT_EQ(ColumnStore::LoadSegmentFile(nomagic).status().code(),
              StatusCode::kCorruption);
  }
  fs::remove_all(dir);
}

// Permuted keys over three sealed segments plus a tail, with deletes on
// both sides of the watermark. Every emitted pointer must be the row's arena
// payload, and the order must be the index's (key, rid) order (rid for a
// full scan) -- checked against a brute-force walk over every version.
// Column d is DOUBLE holding INT (was_int), DOUBLE and NULL values; column e
// is DOUBLE holding only INT values and NULLs; k is a permuted INT key with
// duplicates across segments; n is INT with NULLs.
TEST(ColumnarTest, ScanEmitsArenaRowsInKeyRidOrder) {
  Database db;
  Table* table =
      db.CreateTable(
            TableSchema("perm",
                        {{"k", ValueType::kInt, false, false, false, false},
                         {"d", ValueType::kDouble, false, false, false, false},
                         {"e", ValueType::kDouble, false, false, false, false},
                         {"n", ValueType::kInt, false, false, false, false}}))
          .value();
  ColumnStore store;
  std::vector<BlockNum> created;  // per rid
  std::vector<BlockNum> deleted;  // per rid; 0 = live

  uint64_t x = 12345;
  auto next = [&](uint64_t mod) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % mod;
  };
  auto commit = [&](BlockNum block, int inserts, int deletes) {
    TxnContext ctx(&db,
                   db.txn_manager()->Begin(
                       Snapshot::AtCsn(db.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    const RowId first = table->NumVersions();
    for (int i = 0; i < inserts; ++i) {
      const int64_t k = static_cast<int64_t>(next(40)) - 20;
      Value d = Value::Null();
      switch (next(4)) {
        case 0: d = Value::Int(k); break;
        case 1: d = Value::Double(static_cast<double>(k) + 0.5); break;
        case 2: d = Value::Double(static_cast<double>(k)); break;
        default: break;
      }
      Value e = next(5) == 0 ? Value::Null() : Value::Int(k / 3);
      Value n = next(6) == 0 ? Value::Null() : Value::Int(-k);
      ASSERT_TRUE(ctx.Insert(table, {Value::Int(k), d, e, n}).ok());
      created.push_back(block);
      deleted.push_back(0);
    }
    std::vector<RowId> gone;
    for (int i = 0; i < deletes && first > 0; ++i) {
      const RowId rid = static_cast<RowId>(next(first));
      if (deleted[rid] != 0) continue;
      if (std::find(gone.begin(), gone.end(), rid) != gone.end()) continue;
      ASSERT_TRUE(ctx.Delete(table, rid).ok());
      gone.push_back(rid);
    }
    ASSERT_TRUE(ctx.CommitInternal(block).ok());
    for (RowId rid = first; rid < table->NumVersions(); ++rid) {
      store.OnInsert(table, rid, block);
    }
    for (RowId rid : gone) {
      store.OnDelete(table, rid, block);
      deleted[rid] = block;
    }
    store.SetCommitted(block);
  };
  for (BlockNum b = 1; b <= 3; ++b) {
    commit(b, 60, b > 1 ? 8 : 0);
    ASSERT_TRUE(store.SealThrough(b, "").ok());
  }
  commit(4, 40, 10);  // tail: deletes sealed and tail rows alike
  commit(5, 40, 10);
  auto snap = store.SnapshotFor(table);
  ASSERT_EQ(snap.segments.size(), 3u);
  ASSERT_FALSE(snap.tail_inserts.empty());
  ASSERT_FALSE(snap.tail_deletes.empty());

  auto expected = [&](BlockNum h, int col, const Value* lo, bool lo_inc,
                      const Value* hi, bool hi_inc) {
    std::vector<RowId> rids;
    for (RowId rid = 0; rid < table->NumVersions(); ++rid) {
      if (created[rid] > h || (deleted[rid] != 0 && deleted[rid] <= h)) {
        continue;
      }
      if (col >= 0) {
        const Value& v = table->ValuesOf(rid)[static_cast<size_t>(col)];
        if (v.is_null()) {
          if (lo != nullptr) continue;
        } else {
          if (lo != nullptr) {
            int c = v.Compare(*lo);
            if (c < 0 || (c == 0 && !lo_inc)) continue;
          }
          if (hi != nullptr) {
            int c = v.Compare(*hi);
            if (c > 0 || (c == 0 && !hi_inc)) continue;
          }
        }
      }
      rids.push_back(rid);
    }
    if (col >= 0) {
      std::stable_sort(rids.begin(), rids.end(), [&](RowId a, RowId b) {
        return table->ValuesOf(a)[static_cast<size_t>(col)].Compare(
                   table->ValuesOf(b)[static_cast<size_t>(col)]) < 0;
      });
    }
    std::vector<const Row*> rows;
    for (RowId rid : rids) rows.push_back(&table->ValuesOf(rid));
    return rows;
  };

  const std::vector<Value> bounds = {Value::Int(-7), Value::Int(4),
                                     Value::Double(-3.5), Value::Double(2.0)};
  size_t checked_nonempty = 0;
  for (BlockNum h : {1u, 3u, 4u, 5u}) {
    std::vector<const Row*> rows;
    sql::ColumnarScanStats stats;
    ASSERT_TRUE(sql::ColumnarScan(snap, h, -1, nullptr, true, nullptr, true,
                                  &rows, &stats)
                    .ok());
    EXPECT_EQ(rows, expected(h, -1, nullptr, true, nullptr, true))
        << "full scan at height " << h;
    for (int col = 0; col < 4; ++col) {
      // Unbounded (NULL keys qualify), one-sided and two-sided ranges with
      // INT and DOUBLE bounds, inclusive and exclusive.
      std::vector<std::pair<const Value*, const Value*>> ranges = {
          {nullptr, nullptr}};
      for (const Value& a : bounds) {
        ranges.push_back({&a, nullptr});
        ranges.push_back({nullptr, &a});
        for (const Value& b : bounds) ranges.push_back({&a, &b});
      }
      for (const auto& [lo, hi] : ranges) {
        for (bool inc : {true, false}) {
          rows.clear();
          ASSERT_TRUE(sql::ColumnarScan(snap, h, col, lo, inc, hi, !inc,
                                        &rows, &stats)
                          .ok());
          auto want = expected(h, col, lo, inc, hi, !inc);
          EXPECT_EQ(rows, want)
              << "height " << h << " col " << col << " lo "
              << (lo ? lo->ToString() : "-") << " hi "
              << (hi ? hi->ToString() : "-") << " inc " << inc;
          if (!want.empty()) ++checked_nonempty;
        }
      }
    }
  }
  EXPECT_GT(checked_nonempty, 100u);
}

TEST(ColumnarTest, SnapshotOfUnseenTableIsEmptyHistory) {
  Database db;
  Table* table = db.CreateTable(KvSchema("kv")).value();
  ColumnStore store;
  auto snap = store.SnapshotFor(table);
  EXPECT_EQ(snap.table, nullptr);
  EXPECT_TRUE(snap.segments.empty());
  EXPECT_TRUE(snap.tail_inserts.empty());
  std::vector<const Row*> rows;
  sql::ColumnarScanStats stats;
  ASSERT_TRUE(sql::ColumnarScan(snap, 5, -1, nullptr, true, nullptr, true,
                                &rows, &stats)
                  .ok());
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace brdb
