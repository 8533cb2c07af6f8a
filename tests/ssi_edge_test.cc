// Focused SSI edge cases complementing txn_test.cc: the paper's Figure 2(c)
// committed-outConflict structure, cross-policy read-only behaviour,
// delete/re-insert across blocks under block-height snapshots, the SSI
// footprint of an index nested-loop join that probes once per distinct key,
// and a randomized oracle for the horizon-stamped predicate SIREADs
// (single-threaded and with a concurrent reader and writer).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sql/executor.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

TableSchema AccountsSchema() {
  return TableSchema("accounts",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"balance", ValueType::kInt, false, false, false,
                       false}});
}

class SsiEdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    accounts_ = db_.CreateTable(AccountsSchema()).value();
    TxnContext seed(&db_, Begin(Snapshot::AtCsn(0)), TxnMode::kInternal);
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          seed.Insert(accounts_, {Value::Int(i), Value::Int(100)}).ok());
    }
    ASSERT_TRUE(seed.CommitInternal(1).ok());
  }

  TxnInfo* Begin(Snapshot s) { return db_.txn_manager()->Begin(s); }
  TxnContext Csn() {
    return TxnContext(
        &db_, Begin(Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
        TxnMode::kNormal);
  }
  TxnContext AtHeight(BlockNum h) {
    return TxnContext(&db_, Begin(Snapshot::AtBlockHeight(h)),
                      TxnMode::kNormal);
  }

  Result<std::pair<RowId, int64_t>> Read(TxnContext* ctx, int64_t id) {
    Value k = Value::Int(id);
    std::pair<RowId, int64_t> out{kInvalidRowId, -1};
    Status st = ctx->ScanRange(accounts_, 0, &k, true, &k, true,
                               [&](RowId r, const Row& row) {
                                 out = {r, row[1].AsInt()};
                                 return true;
                               });
    if (!st.ok()) return st;
    if (out.first == kInvalidRowId) return Status::NotFound("no row");
    return out;
  }

  Status Write(TxnContext* ctx, int64_t id, int64_t balance) {
    BRDB_ASSIGN_OR_RETURN(auto base, Read(ctx, id));
    return ctx->Update(accounts_, base.first,
                       {Value::Int(id), Value::Int(balance)});
  }

  Database db_;
  Table* accounts_ = nullptr;
};

TEST_F(SsiEdgeFixture, Figure2cCommittedOutConflictAbortsPivot) {
  // T1 ->rw T2 ->rw T3 where T3 commits first (in an earlier block slot):
  // the pivot T2 must abort when it reaches its commit (Ports' wr rule).
  auto t1 = Csn();
  auto t2 = Csn();
  auto t3 = Csn();

  ASSERT_TRUE(Read(&t2, 3).ok());        // T2 reads c ...
  ASSERT_TRUE(Write(&t3, 3, 0).ok());    // ... which T3 overwrites: T2->T3
  ASSERT_TRUE(Read(&t1, 2).ok());        // T1 reads b ...
  ASSERT_TRUE(Write(&t2, 2, 0).ok());    // ... which T2 overwrites: T1->T2
  ASSERT_TRUE(Write(&t1, 1, 0).ok());    // T1 writes something of its own

  // Commit order: T3, T2, T1 (block order).
  std::vector<TxnId> members = {t3.id(), t2.id(), t1.id()};
  Status s3 = t3.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members);
  Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members);
  Status s1 = t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 2, members);
  EXPECT_TRUE(s3.ok()) << s3.ToString();
  EXPECT_EQ(s2.code(), StatusCode::kSerializationFailure);  // the pivot
  EXPECT_TRUE(s1.ok()) << s1.ToString();
}

TEST_F(SsiEdgeFixture, ReadOnlyTransactionsNeverAbortUnderEitherPolicy) {
  BlockNum height = 1;  // committed height so far (seed block)
  for (SsiPolicy policy :
       {SsiPolicy::kAbortDuringCommit, SsiPolicy::kBlockAware}) {
    auto reader =
        policy == SsiPolicy::kBlockAware ? AtHeight(height) : Csn();
    auto writer =
        policy == SsiPolicy::kBlockAware ? AtHeight(height) : Csn();
    ASSERT_TRUE(Read(&reader, 1).ok());
    ASSERT_TRUE(Write(&writer, 1, 55).ok());
    std::vector<TxnId> members = {writer.id(), reader.id()};
    // Writer commits first; the pure reader has an out-edge to it but no
    // writes — committing a read-only transaction is always safe.
    ++height;
    EXPECT_TRUE(writer.CommitSerially(policy, height, 0, members).ok());
    EXPECT_TRUE(reader.CommitSerially(policy, height, 1, members).ok())
        << "policy " << static_cast<int>(policy);
    // Restore the balance for the next loop iteration.
    TxnContext fix(&db_,
                   Begin(Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    auto base = Read(&fix, 1);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(fix.Update(accounts_, base.value().first,
                           {Value::Int(1), Value::Int(100)})
                    .ok());
    ASSERT_TRUE(fix.CommitInternal(++height).ok());
  }
}

TEST_F(SsiEdgeFixture, DeleteThenReinsertAcrossBlocksUnderHeightSnapshot) {
  // Block 2 deletes id=2; block 3 re-inserts it. A height-1 reader must
  // stale-abort; a height-3 reader sees exactly the new row.
  {
    TxnContext del(&db_, Begin(Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    auto base = Read(&del, 2);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(del.Delete(accounts_, base.value().first).ok());
    ASSERT_TRUE(del.CommitInternal(2).ok());
  }
  {
    TxnContext ins(&db_, Begin(Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
                   TxnMode::kInternal);
    ASSERT_TRUE(ins.Insert(accounts_, {Value::Int(2), Value::Int(777)}).ok());
    ASSERT_TRUE(ins.CommitInternal(3).ok());
  }

  auto old_reader = AtHeight(1);
  auto r_old = Read(&old_reader, 2);
  ASSERT_FALSE(r_old.ok());
  EXPECT_EQ(r_old.status().code(), StatusCode::kSerializationFailure);

  auto new_reader = AtHeight(3);
  auto r_new = Read(&new_reader, 2);
  ASSERT_TRUE(r_new.ok()) << r_new.status().ToString();
  EXPECT_EQ(r_new.value().second, 777);
}

TEST_F(SsiEdgeFixture, SelfConflictsAreNotEdges) {
  // A transaction reading then writing its own data forms no rw edge with
  // itself and commits cleanly.
  auto t = Csn();
  ASSERT_TRUE(Write(&t, 1, 50).ok());
  auto reread = Read(&t, 1);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().second, 50);   // sees own write
  ASSERT_TRUE(Write(&t, 1, 60).ok());     // update own new version
  EXPECT_TRUE(
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()}).ok());
  auto fresh = Csn();
  auto final_read = Read(&fresh, 1);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read.value().second, 60);
  // Provenance keeps the intermediate version chain.
  TxnContext prov(&db_, Begin(Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
                  TxnMode::kProvenance);
  int versions = 0;
  ASSERT_TRUE(prov.ScanVersions(accounts_,
                                [&](RowId, const Row& row, const VersionMeta&) {
                                  if (row[0].AsInt() == 1) ++versions;
                                  return true;
                                })
                  .ok());
  EXPECT_EQ(versions, 3);  // 100 -> 50 -> 60
}

TEST_F(SsiEdgeFixture, DoomedTransactionAbortsAtCommitWithReason) {
  auto t = Csn();
  ASSERT_TRUE(Write(&t, 1, 1).ok());
  db_.txn_manager()->Doom(t.id(), Status::WriteConflict("test doom"));
  Status st =
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()});
  EXPECT_EQ(st.code(), StatusCode::kWriteConflict);
  EXPECT_NE(st.message().find("test doom"), std::string::npos);
}

// ---------- index nested-loop join under a block-height snapshot ----------

class JoinProbeFixture : public ::testing::Test {
 protected:
  JoinProbeFixture() : engine_(&db_) {}

  void SetUp() override {
    // Block 1. Orders repeat customer keys, carry a NULL key and a key with
    // no customer; tags hold two postings for customer 10.
    for (const char* sql :
         {"CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)",
          "CREATE TABLE orders (id INT PRIMARY KEY, cust INT)",
          "CREATE TABLE tags (id INT PRIMARY KEY, cust INT, tag TEXT)",
          "CREATE INDEX idx_tags_cust ON tags (cust)",
          "INSERT INTO customers VALUES (10, 'ann'), (20, 'bo')",
          "INSERT INTO orders VALUES (1, 10), (2, 20), (3, 10), (4, NULL), "
          "(5, 30), (6, 20), (7, 10)",
          "INSERT INTO tags VALUES (100, 10, 'x'), (101, 20, 'y'), "
          "(102, 10, 'z')"}) {
      TxnContext ctx(&db_, db_.txn_manager()->Begin(Snapshot::AtCsn(
                               db_.txn_manager()->CurrentCsn())),
                     TxnMode::kInternal);
      auto r = engine_.Execute(&ctx, sql);
      ASSERT_TRUE(r.ok()) << sql << " => " << r.status().ToString();
      ASSERT_TRUE(ctx.CommitInternal(1).ok());
    }
    customers_ = db_.GetTable("customers").value();
  }

  TxnContext AtHeight(BlockNum h) {
    return TxnContext(&db_,
                      db_.txn_manager()->Begin(Snapshot::AtBlockHeight(h)),
                      TxnMode::kNormal);
  }

  Result<std::vector<Row>> Query(TxnContext* ctx, const std::string& sql) {
    BRDB_ASSIGN_OR_RETURN(
        sql::ResultSet rs,
        engine_.Execute(ctx, sql, {},
                        sql::ExecOptions::ExecuteOrderParallel()));
    return rs.rows;
  }

  /// Point predicates the transaction registered on `table`'s column 0.
  std::vector<int64_t> PointProbes(TxnContext* ctx, const Table* table) {
    std::vector<int64_t> keys;
    for (const PredicateRead& p : ctx->info()->predicates) {
      if (p.table == table->id() && p.column == 0 && p.lo.has_value()) {
        keys.push_back(p.lo->AsInt());
      }
    }
    return keys;
  }

  Database db_;
  sql::SqlEngine engine_;
  Table* customers_ = nullptr;
};

TEST_F(JoinProbeFixture, RepeatedKeysKeepLeftRowOrderAndPostingOrder) {
  auto reader = AtHeight(1);
  auto rows = Query(&reader,
                    "SELECT o.id, c.name FROM orders o JOIN customers c "
                    "ON o.cust = c.id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(),
            (std::vector<Row>{{Value::Int(1), Value::Text("ann")},
                              {Value::Int(2), Value::Text("bo")},
                              {Value::Int(3), Value::Text("ann")},
                              {Value::Int(6), Value::Text("bo")},
                              {Value::Int(7), Value::Text("ann")}}));

  // Several matches per key come back in index posting order for every
  // left row that repeats the key.
  auto tags = Query(&reader,
                    "SELECT o.id, t.tag FROM orders o JOIN tags t "
                    "ON o.cust = t.cust");
  ASSERT_TRUE(tags.ok()) << tags.status().ToString();
  EXPECT_EQ(tags.value(),
            (std::vector<Row>{{Value::Int(1), Value::Text("x")},
                              {Value::Int(1), Value::Text("z")},
                              {Value::Int(2), Value::Text("y")},
                              {Value::Int(3), Value::Text("x")},
                              {Value::Int(3), Value::Text("z")},
                              {Value::Int(6), Value::Text("y")},
                              {Value::Int(7), Value::Text("x")},
                              {Value::Int(7), Value::Text("z")}}));
}

TEST_F(JoinProbeFixture, NullKeysAndLeftJoinNullExtensionAreUnchanged) {
  auto reader = AtHeight(1);
  auto rows = Query(&reader,
                    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
                    "ON o.cust = c.id");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(),
            (std::vector<Row>{{Value::Int(1), Value::Text("ann")},
                              {Value::Int(2), Value::Text("bo")},
                              {Value::Int(3), Value::Text("ann")},
                              {Value::Int(4), Value::Null()},
                              {Value::Int(5), Value::Null()},
                              {Value::Int(6), Value::Text("bo")},
                              {Value::Int(7), Value::Text("ann")}}));
  // The NULL key never probes; the dangling key 30 probes once.
  std::vector<int64_t> probes = PointProbes(&reader, customers_);
  EXPECT_EQ(std::multiset<int64_t>(probes.begin(), probes.end()),
            (std::multiset<int64_t>{10, 20, 30}));
}

TEST_F(JoinProbeFixture, ReaderRegistersOnePointPredicatePerDistinctKey) {
  auto reader = AtHeight(1);
  ASSERT_TRUE(Query(&reader,
                    "SELECT o.id, c.name FROM orders o JOIN customers c "
                    "ON o.cust = c.id")
                  .ok());
  // Seven orders, three distinct non-null keys, three probes in first-seen
  // order, each stamped with the customers' version count as its SIREAD
  // horizon; each customer row is read (covered below a horizon) once.
  EXPECT_EQ(PointProbes(&reader, customers_),
            (std::vector<int64_t>{10, 20, 30}));
  const RowId versions = customers_->NumVersions();
  ASSERT_EQ(versions, 2u);
  for (const PredicateRead& p : reader.info()->predicates) {
    if (p.table != customers_->id()) continue;
    ASSERT_NE(p.horizon, nullptr);
    EXPECT_EQ(*p.horizon, versions);
  }
  for (RowId row = 0; row < versions; ++row) {
    size_t reads = 0;
    for (const PredicateRead& p : reader.info()->predicates) {
      if (p.table == customers_->id() && p.Reaches(row) &&
          p.Covers(customers_->ValuesOf(row))) {
        ++reads;
      }
    }
    EXPECT_EQ(reads, 1u) << "customer version " << row;
  }
}

TEST_F(JoinProbeFixture, ConcurrentWriteOfAProbedInnerRowIsAnRwEdge) {
  // An UPDATE and a DELETE of customer 10 (probed by three orders), each
  // run after the reader (writer-side edge) and before it (reader-side
  // edge through the xmax candidate): every case records reader -> writer.
  const std::string join =
      "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust = c.id";
  for (const char* write : {"UPDATE customers SET name = 'ann2' WHERE id = 10",
                            "DELETE FROM customers WHERE id = 10"}) {
    for (bool reader_first : {true, false}) {
      auto reader = AtHeight(1);
      auto writer = AtHeight(1);
      if (reader_first) ASSERT_TRUE(Query(&reader, join).ok());
      ASSERT_TRUE(Query(&writer, write).ok()) << write;
      if (!reader_first) {
        auto rows = Query(&reader, join);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_EQ(rows.value().size(), 5u);  // the write is not visible
      }
      EXPECT_TRUE(reader.info()->HasOutConflict(writer.id()))
          << write << (reader_first ? " after" : " before") << " the reader";
      EXPECT_TRUE(writer.info()->HasInConflict(reader.id()));
      writer.Abort(Status::Aborted("test"));
      reader.Abort(Status::Aborted("test"));
    }
  }
}

// ---------- SIREAD oracle: one horizon-stamped predicate per scan ----------
//
// A tracked scan registers one predicate, stamped with the table's version
// count when its id list was drawn; that registration is the scan's SIREAD
// lock. The oracle is the id list itself: reader ->rw writer exists exactly
// when the writer's base was in the reader's IndexRange / ScanAllRowIds
// result, or when an update's new version lies in the reader's range (the
// phantom edge), which the index decides too.

struct OracleTable {
  Table* table = nullptr;
  int key = 0;        ///< indexed column the range predicates use
  ValueType key_type = ValueType::kInt;  ///< domain of the written keys
  int pin = 0;        ///< partition column; point predicates on it pin
  bool has_pk = false;
};

struct ScanSpec {
  int column = -1;  ///< -1 = ScanAll
  std::optional<Value> lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;

  std::string ToString() const {
    if (column < 0) return "full scan";
    return "col " + std::to_string(column) + " " +
           (lo ? (lo_inclusive ? "[" : "(") + lo->ToString() : "(-inf") +
           ", " + (hi ? hi->ToString() + (hi_inclusive ? "]" : ")") : "+inf)");
  }
};

struct PlannedWrite {
  TxnContext* ctx = nullptr;
  RowId base = kInvalidRowId;
  bool update = false;
  Value new_key;
  RowId new_row = kInvalidRowId;
};

class SireadOracle {
 public:
  SireadOracle(size_t partitions, uint64_t seed)
      : db_(TxnManagerOptions{/*stripes=*/0, partitions}), rng_(seed) {
    // nums: INT primary key (the partition column), nullable DOUBLE key
    // holding ints and halves, scanned with INT bounds.
    TableSchema nums("nums",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"k", ValueType::kDouble, false, false, false, true},
                      {"v", ValueType::kInt, false, false, false, false}});
    nums.SetPartitionColumn(0);
    // words: TEXT key, also the partition column.
    TableSchema words("words",
                      {{"id", ValueType::kInt, true, true, false, false},
                       {"k", ValueType::kText, false, false, false, true},
                       {"v", ValueType::kInt, false, false, false, false}});
    words.SetPartitionColumn(1);
    // heap: no primary key, so full scans read ScanAllRowIds.
    TableSchema heap("heap",
                     {{"k", ValueType::kInt, false, false, false, true},
                      {"v", ValueType::kInt, false, false, false, false}});
    heap.SetPartitionColumn(0);
    tables_ = {
        {db_.CreateTable(nums).value(), 1, ValueType::kDouble, 0, true},
        {db_.CreateTable(words).value(), 1, ValueType::kText, 1, true},
        {db_.CreateTable(heap).value(), 0, ValueType::kInt, 0, false}};
    TxnContext seed_ctx(&db_, Begin(), TxnMode::kInternal);
    for (const OracleTable& t : tables_) {
      for (int i = 0; i < 24; ++i) {
        EXPECT_TRUE(
            seed_ctx.Insert(t.table, MakeRow(t, RandomKey(t), i)).ok());
      }
    }
    EXPECT_TRUE(seed_ctx.CommitInternal(++block_).ok());
  }

  TxnInfo* Begin() {
    return db_.txn_manager()->Begin(
        Snapshot::AtCsn(db_.txn_manager()->CurrentCsn()));
  }

  Rng& rng() { return rng_; }
  const OracleTable& RandomTable() { return tables_[rng_.Uniform(3)]; }

  Value RandomKey(const OracleTable& t) {
    if (rng_.Uniform(8) == 0) return Value::Null();
    switch (t.key_type) {
      case ValueType::kDouble: {
        int64_t n = static_cast<int64_t>(rng_.Uniform(40));
        return rng_.Uniform(2) == 0 ? Value::Int(n) : Value::Double(n + 0.5);
      }
      case ValueType::kText: {
        std::string s;
        for (uint64_t i = 0, len = 1 + rng_.Uniform(3); i < len; ++i) {
          s.push_back(static_cast<char>('a' + rng_.Uniform(3)));
        }
        return Value::Text(s);
      }
      default:
        return Value::Int(static_cast<int64_t>(rng_.Uniform(40)));
    }
  }

  /// A row with key `key`; tables with a primary key get a fresh id.
  Row MakeRow(const OracleTable& t, Value key, int64_t v) {
    if (!t.has_pk) return {std::move(key), Value::Int(v)};
    return {Value::Int(next_id_++), std::move(key), Value::Int(v)};
  }

  /// The same logical row as `base` with a new key.
  Row Rekey(const OracleTable& t, RowId base, Value key) {
    Row row = t.table->ValuesOf(base);
    row[static_cast<size_t>(t.key)] = std::move(key);
    return row;
  }

  /// Full scan, a point lookup on the partition column (a pinned predicate
  /// when the table is partitioned), or a range on the key column with
  /// random bounds of the key's scan type (INT bounds on the DOUBLE key),
  /// either bound possibly absent or NULL.
  ScanSpec RandomSpec(const OracleTable& t, const std::vector<RowId>& live) {
    ScanSpec spec;
    uint64_t kind = rng_.Uniform(5);
    if (kind == 0) return spec;
    if (kind == 1 && !live.empty()) {
      spec.column = t.pin;
      spec.lo = spec.hi =
          t.table->ValuesOf(live[rng_.Uniform(live.size())])[t.pin];
      if (!spec.lo->is_null()) return spec;
    }
    spec.column = t.key;
    auto bound = [&]() -> std::optional<Value> {
      uint64_t r = rng_.Uniform(10);
      if (r == 0) return std::nullopt;
      if (r == 1) return Value::Null();
      if (t.key_type == ValueType::kText) return RandomKey(t);
      return Value::Int(static_cast<int64_t>(rng_.Uniform(40)));
    };
    spec.lo = bound();
    spec.hi = bound();
    if (spec.lo && spec.hi && spec.lo->Compare(*spec.hi) > 0) {
      std::swap(spec.lo, spec.hi);
    }
    spec.lo_inclusive = rng_.Uniform(2) == 0;
    spec.hi_inclusive = rng_.Uniform(2) == 0;
    return spec;
  }

  /// What the storage layer returns for the spec: the oracle.
  std::vector<RowId> IdList(const OracleTable& t, const ScanSpec& spec) {
    std::vector<RowId> ids;
    int column = spec.column;
    if (column < 0 && t.has_pk) column = t.table->schema().pk_column();
    if (column < 0) {
      t.table->ScanAllRowIds(&ids);
    } else {
      EXPECT_TRUE(t.table
                      ->IndexRange(column, spec.lo ? &*spec.lo : nullptr,
                                   spec.lo_inclusive,
                                   spec.hi ? &*spec.hi : nullptr,
                                   spec.hi_inclusive, &ids)
                      .ok());
    }
    return ids;
  }

  /// Run the spec through a tracked scan; returns the visited versions.
  std::set<RowId> Scan(TxnContext* ctx, const OracleTable& t,
                       const ScanSpec& spec) {
    std::set<RowId> visited;
    auto cb = [&](RowId id, const Row&) {
      visited.insert(id);
      return true;
    };
    Status st = spec.column < 0
                    ? ctx->ScanAll(t.table, cb)
                    : ctx->ScanRange(t.table, spec.column,
                                     spec.lo ? &*spec.lo : nullptr,
                                     spec.lo_inclusive,
                                     spec.hi ? &*spec.hi : nullptr,
                                     spec.hi_inclusive, cb);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return visited;
  }

  /// Live committed versions: every possible write base.
  std::vector<RowId> LiveRows(const OracleTable& t) {
    TxnContext ctx(&db_, Begin(), TxnMode::kInternal);
    std::vector<RowId> live;
    EXPECT_TRUE(ctx.ScanAll(t.table, [&](RowId id, const Row&) {
                     live.push_back(id);
                     return true;
                   }).ok());
    ctx.Abort(Status::Aborted("read only"));
    return live;
  }

  void Apply(const OracleTable& t, PlannedWrite* w) {
    Status st = w->update
                    ? w->ctx->Update(t.table, w->base,
                                     Rekey(t, w->base, w->new_key))
                    : w->ctx->Delete(t.table, w->base);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (w->update) w->new_row = w->ctx->info()->writes.back().new_row;
  }

  /// Commit a row through an internal (untracked) transaction.
  RowId CommitInsert(const OracleTable& t, Row row) {
    TxnContext ctx(&db_, Begin(), TxnMode::kInternal);
    EXPECT_TRUE(ctx.Insert(t.table, std::move(row)).ok());
    RowId id = ctx.info()->writes.back().new_row;
    EXPECT_TRUE(ctx.CommitInternal(++block_).ok());
    return id;
  }

  Database& db() { return db_; }

 private:
  Database db_;
  Rng rng_;
  std::vector<OracleTable> tables_;
  int64_t next_id_ = 1;
  BlockNum block_ = 0;
};

bool Contains(const std::vector<RowId>& ids, RowId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(SireadOracleTest, EdgeExactlyWhenTheBaseWasInTheScansIdList) {
  for (size_t partitions : {1, 2, 4}) {
    SireadOracle oracle(partitions, 0x51ead + partitions);
    Database& db = oracle.db();
    size_t edges = 0, no_edges = 0, late_covered = 0;
    for (int round = 0; round < 150; ++round) {
      const OracleTable& t = oracle.RandomTable();
      std::vector<RowId> live = oracle.LiveRows(t);
      ASSERT_FALSE(live.empty());
      ScanSpec spec = oracle.RandomSpec(t, live);
      const bool writers_first = oracle.rng().Uniform(2) == 0;
      std::vector<std::unique_ptr<TxnContext>> ctxs;
      std::vector<PlannedWrite> writes(4);
      for (PlannedWrite& w : writes) {
        ctxs.push_back(std::make_unique<TxnContext>(&db, oracle.Begin(),
                                                    TxnMode::kNormal));
        w.ctx = ctxs.back().get();
        w.base = live[oracle.rng().Uniform(live.size())];
        w.update = oracle.rng().Uniform(2) == 0;
        w.new_key = oracle.RandomKey(t);
      }
      TxnContext reader(&db, oracle.Begin(), TxnMode::kNormal);
      if (writers_first) {
        for (PlannedWrite& w : writes) oracle.Apply(t, &w);
      }
      oracle.Scan(&reader, t, spec);
      const std::vector<RowId> ids = oracle.IdList(t, spec);
      const RowId horizon = *reader.info()->predicates.back().horizon;
      EXPECT_EQ(horizon, t.table->NumVersions());
      if (!writers_first) {
        for (PlannedWrite& w : writes) oracle.Apply(t, &w);
      }
      const std::vector<RowId> final_ids = oracle.IdList(t, spec);
      const std::string what = spec.ToString() + " in " +
                               t.table->schema().name() +
                               (writers_first ? ", writers first" : "") +
                               ", partitions " + std::to_string(partitions);
      for (const PlannedWrite& w : writes) {
        const bool expected =
            Contains(ids, w.base) ||
            (w.new_row != kInvalidRowId && Contains(final_ids, w.new_row));
        EXPECT_EQ(reader.info()->HasOutConflict(w.ctx->id()), expected)
            << what << ", base " << w.base << (w.update ? " updated" : "");
        EXPECT_EQ(w.ctx->info()->HasInConflict(reader.id()), expected)
            << what << ", base " << w.base;
        ++(expected ? edges : no_edges);
      }

      // A covered version appended after the scan, committed, then deleted
      // by a concurrent writer: beyond the horizon, so no edge. (A point
      // lookup on nums' primary key cannot be covered by a fresh row.)
      if (!writers_first && !ids.empty() &&
          !(spec.column == t.pin && t.has_pk && t.pin != t.key)) {
        Row copy = t.table->ValuesOf(ids.front());
        RowId late = oracle.CommitInsert(t, oracle.MakeRow(t, copy[t.key], 0));
        EXPECT_GE(late, horizon);
        late_covered += Contains(oracle.IdList(t, spec), late);
        ctxs.push_back(std::make_unique<TxnContext>(&db, oracle.Begin(),
                                                    TxnMode::kNormal));
        TxnContext* deleter = ctxs.back().get();
        ASSERT_TRUE(deleter->Delete(t.table, late).ok());
        EXPECT_FALSE(reader.info()->HasOutConflict(deleter->id()))
            << what << ", late version " << late;
      }
      for (auto& ctx : ctxs) ctx->Abort(Status::Aborted("round over"));
      reader.Abort(Status::Aborted("round over"));
    }
    // Both outcomes, and the late-version case, were exercised.
    EXPECT_GT(edges, 50u);
    EXPECT_GT(no_edges, 50u);
    EXPECT_GT(late_covered, 10u);
  }
}

TEST(SireadOracleTest, ConcurrentReaderAndWriterMatchTheVisitedRows) {
  // Readers scan on one thread while writers update and delete on another.
  // Every base stays visible to every reader (writers only add xmax
  // candidates), so "the base was in the reader's id list" is "the reader
  // visited it", whichever side of the race recorded the edge.
  for (size_t partitions : {1, 2, 4}) {
    SireadOracle oracle(partitions, 0xc0c0 + partitions);
    Database& db = oracle.db();
    const OracleTable& t = oracle.RandomTable();
    std::vector<RowId> live = oracle.LiveRows(t);
    constexpr int kReaders = 24, kWriters = 24;
    std::vector<std::unique_ptr<TxnContext>> readers, writers;
    std::vector<ScanSpec> specs;
    std::vector<std::set<RowId>> visited(kReaders);
    std::vector<PlannedWrite> writes(kWriters);
    for (int r = 0; r < kReaders; ++r) {
      readers.push_back(std::make_unique<TxnContext>(&db, oracle.Begin(),
                                                     TxnMode::kNormal));
      specs.push_back(oracle.RandomSpec(t, live));
    }
    for (PlannedWrite& w : writes) {
      writers.push_back(std::make_unique<TxnContext>(&db, oracle.Begin(),
                                                     TxnMode::kNormal));
      w.ctx = writers.back().get();
      w.base = live[oracle.rng().Uniform(live.size())];
      w.update = oracle.rng().Uniform(2) == 0;
      w.new_key = oracle.RandomKey(t);
    }
    std::thread reader_thread([&] {
      for (int r = 0; r < kReaders; ++r) {
        visited[r] = oracle.Scan(readers[r].get(), t, specs[r]);
      }
    });
    std::thread writer_thread([&] {
      for (PlannedWrite& w : writes) oracle.Apply(t, &w);
    });
    reader_thread.join();
    writer_thread.join();
    for (int r = 0; r < kReaders; ++r) {
      const std::vector<RowId> final_ids = oracle.IdList(t, specs[r]);
      for (const PlannedWrite& w : writes) {
        const bool expected =
            visited[r].count(w.base) > 0 ||
            (w.new_row != kInvalidRowId && Contains(final_ids, w.new_row));
        EXPECT_EQ(readers[r]->info()->HasOutConflict(w.ctx->id()), expected)
            << specs[r].ToString() << " in " << t.table->schema().name()
            << ", base " << w.base << ", partitions " << partitions;
      }
    }
    for (auto& ctx : writers) ctx->Abort(Status::Aborted("done"));
    for (auto& ctx : readers) ctx->Abort(Status::Aborted("done"));
  }
}

}  // namespace
}  // namespace brdb
