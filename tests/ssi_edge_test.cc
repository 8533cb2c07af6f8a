// Focused SSI edge cases complementing txn_test.cc: the paper's Figure 2(c)
// committed-outConflict structure, cross-policy read-only behaviour,
// delete/re-insert across blocks under block-height snapshots, and the SSI
// footprint of an index nested-loop join that probes once per distinct key.
#include <gtest/gtest.h>

#include <set>

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
  // order; each customer row is read once.
  EXPECT_EQ(PointProbes(&reader, customers_),
            (std::vector<int64_t>{10, 20, 30}));
  size_t customer_reads = 0;
  for (const auto& [table, row] : reader.info()->row_reads) {
    if (table == customers_->id()) ++customer_reads;
  }
  EXPECT_EQ(customer_reads, 2u);
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

}  // namespace
}  // namespace brdb
