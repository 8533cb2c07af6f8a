// Unit tests for src/txn: MVCC visibility under both snapshot kinds, SSI
// dependency tracking, the Figure 2 anomaly structures, the block-aware
// abort rules of paper Table 2, ww resolution, unique enforcement, and
// write-set determinism.
#include <gtest/gtest.h>

#include <optional>

#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

TableSchema AccountsSchema() {
  return TableSchema("accounts",
                     {{"id", ValueType::kInt, true, true, false, false},
                      {"owner", ValueType::kText, true, false, false, true},
                      {"balance", ValueType::kInt, false, false, false, false}});
}

class TxnFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    accounts_ = db_.CreateTable(AccountsSchema()).value();
  }

  TxnManager* mgr() { return db_.txn_manager(); }

  TxnContext BeginCsn() {
    return TxnContext(&db_,
                      mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                      TxnMode::kNormal);
  }
  TxnContext BeginAtHeight(BlockNum h) {
    return TxnContext(&db_, mgr()->Begin(Snapshot::AtBlockHeight(h)),
                      TxnMode::kNormal);
  }

  /// Seed a committed row via an internal transaction at `block`.
  void Seed(int64_t id, const std::string& owner, int64_t balance,
            BlockNum block) {
    TxnContext ctx(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                   TxnMode::kInternal);
    ASSERT_TRUE(ctx.Insert(accounts_, {Value::Int(id), Value::Text(owner),
                                       Value::Int(balance)})
                    .ok());
    ASSERT_TRUE(ctx.CommitInternal(block).ok());
  }

  /// Read a row by primary key; returns (version id, balance) when visible.
  Result<std::optional<std::pair<RowId, int64_t>>> ReadBalance(
      TxnContext* ctx, int64_t id) {
    std::optional<std::pair<RowId, int64_t>> found;
    Value k = Value::Int(id);
    Status st = ctx->ScanRange(accounts_, 0, &k, true, &k, true,
                               [&](RowId rid, const Row& row) {
                                 found = {rid, row[2].AsInt()};
                                 return true;
                               });
    if (!st.ok()) return st;
    return found;
  }

  /// Read then update a row's balance within `ctx`.
  Status SetBalance(TxnContext* ctx, int64_t id, int64_t balance) {
    auto r = ReadBalance(ctx, id);
    if (!r.ok()) return r.status();
    if (!r.value().has_value()) return Status::NotFound("no row");
    RowId base = r.value()->first;
    return ctx->Update(accounts_, base,
                       {Value::Int(id), accounts_->ValuesOf(base)[1],
                        Value::Int(balance)});
  }

  Database db_;
  Table* accounts_ = nullptr;
};

// ---------- MVCC visibility ----------

TEST_F(TxnFixture, CommittedRowVisibleToLaterSnapshot) {
  Seed(1, "alice", 100, 1);
  auto t = BeginCsn();
  auto r = ReadBalance(&t, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 100);
}

TEST_F(TxnFixture, CommitInvisibleToEarlierSnapshot) {
  auto old_txn = BeginCsn();  // snapshot before the seed commits
  Seed(1, "alice", 100, 1);
  auto r = ReadBalance(&old_txn, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());
}

TEST_F(TxnFixture, OwnWritesVisibleOwnDeleteInvisible) {
  auto t = BeginCsn();
  ASSERT_TRUE(
      t.Insert(accounts_, {Value::Int(1), Value::Text("a"), Value::Int(5)})
          .ok());
  auto r = ReadBalance(&t, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 5);

  ASSERT_TRUE(t.Delete(accounts_, r.value()->first).ok());
  auto r2 = ReadBalance(&t, 1);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().has_value());
}

TEST_F(TxnFixture, UncommittedWritesInvisibleToOthers) {
  auto writer = BeginCsn();
  ASSERT_TRUE(
      writer.Insert(accounts_, {Value::Int(1), Value::Text("a"), Value::Int(5)})
          .ok());
  auto reader = BeginCsn();
  auto r = ReadBalance(&reader, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());
}

TEST_F(TxnFixture, AbortedWritesNeverBecomeVisible) {
  auto t = BeginCsn();
  ASSERT_TRUE(
      t.Insert(accounts_, {Value::Int(1), Value::Text("a"), Value::Int(5)})
          .ok());
  t.Abort(Status::Aborted("user rollback"));
  auto reader = BeginCsn();
  auto r = ReadBalance(&reader, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());
}

TEST_F(TxnFixture, UpdatePreservesOldVersionForOldSnapshot) {
  Seed(1, "alice", 100, 1);
  auto old_txn = BeginCsn();

  auto updater = BeginCsn();
  ASSERT_TRUE(SetBalance(&updater, 1, 250).ok());
  ASSERT_TRUE(updater
                  .CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0,
                                  {updater.id()})
                  .ok());

  // Old snapshot still sees 100; new snapshot sees 250.
  auto r_old = ReadBalance(&old_txn, 1);
  ASSERT_TRUE(r_old.ok());
  ASSERT_TRUE(r_old.value().has_value());
  EXPECT_EQ(r_old.value()->second, 100);

  auto fresh = BeginCsn();
  auto r_new = ReadBalance(&fresh, 1);
  ASSERT_TRUE(r_new.ok());
  ASSERT_TRUE(r_new.value().has_value());
  EXPECT_EQ(r_new.value()->second, 250);
}

// ---------- Block-height snapshots (paper Figure 3) ----------

TEST_F(TxnFixture, BlockHeightSnapshotSeesOnlyBlocksUpToHeight) {
  Seed(1, "alice", 100, 1);
  Seed(2, "bob", 200, 2);
  Seed(3, "carol", 300, 3);

  auto at1 = BeginAtHeight(1);
  auto at2 = BeginAtHeight(2);
  auto at3 = BeginAtHeight(3);

  // At height 1, the block-2 row is not visible — and because the predicate
  // covers it, the paper's phantom rule aborts the transaction outright.
  auto r = ReadBalance(&at1, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);

  r = ReadBalance(&at2, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 200);

  r = ReadBalance(&at3, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
}

TEST_F(TxnFixture, StaleReadAbortsBlockHeightTransaction) {
  Seed(1, "alice", 100, 1);
  // Block 2 updates the row (internal commit to simulate a later block).
  {
    TxnContext upd(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                   TxnMode::kInternal);
    Value k = Value::Int(1);
    RowId base = kInvalidRowId;
    ASSERT_TRUE(upd.ScanRange(accounts_, 0, &k, true, &k, true,
                              [&](RowId rid, const Row&) {
                                base = rid;
                                return true;
                              })
                    .ok());
    ASSERT_NE(base, kInvalidRowId);
    ASSERT_TRUE(upd.Update(accounts_, base,
                           {Value::Int(1), Value::Text("alice"),
                            Value::Int(150)})
                    .ok());
    ASSERT_TRUE(upd.CommitInternal(2).ok());
  }
  // A transaction pinned at height 1 now reads the row: stale (paper rule 2).
  auto t = BeginAtHeight(1);
  auto r = ReadBalance(&t, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);
}

TEST_F(TxnFixture, PhantomReadAbortsBlockHeightTransaction) {
  Seed(1, "alice", 100, 1);
  Seed(5, "eve", 500, 3);  // committed by block 3, beyond snapshot height

  auto t = BeginAtHeight(1);
  // Predicate scan over ids [0, 10] covers the phantom row (paper rule 1).
  Value lo = Value::Int(0), hi = Value::Int(10);
  Status st = t.ScanRange(accounts_, 0, &lo, true, &hi, true,
                          [](RowId, const Row&) { return true; });
  EXPECT_EQ(st.code(), StatusCode::kSerializationFailure);
}

TEST_F(TxnFixture, CreatedAndDeletedBeyondHeightIsNotAPhantom) {
  Seed(1, "alice", 100, 1);
  Seed(5, "eve", 500, 3);
  // Delete the block-3 row in block 4: paper rule 1 only fires for rows
  // whose deleter is empty.
  {
    TxnContext del(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                   TxnMode::kInternal);
    Value k = Value::Int(5);
    RowId base = kInvalidRowId;
    ASSERT_TRUE(del.ScanRange(accounts_, 0, &k, true, &k, true,
                              [&](RowId rid, const Row&) {
                                base = rid;
                                return true;
                              })
                    .ok());
    ASSERT_TRUE(del.Delete(accounts_, base).ok());
    ASSERT_TRUE(del.CommitInternal(4).ok());
  }
  auto t = BeginAtHeight(1);
  Value lo = Value::Int(0), hi = Value::Int(10);
  int count = 0;
  Status st = t.ScanRange(accounts_, 0, &lo, true, &hi, true,
                          [&](RowId, const Row&) {
                            ++count;
                            return true;
                          });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, 1);
}

// ---------- block-stamp visibility under height snapshots ----------
// A version stamped at or below the snapshot height is decided from its
// block stamps alone; these pin the outcomes that must not change.

TEST_F(TxnFixture, StampedVersionDeletedByLaterBlockIsStillAStaleRead) {
  Seed(1, "alice", 100, 1);
  {
    TxnContext del = BeginCsn();
    auto r = ReadBalance(&del, 1);
    ASSERT_TRUE(r.ok() && r.value().has_value());
    ASSERT_TRUE(del.Delete(accounts_, r.value()->first).ok());
    ASSERT_TRUE(
        del.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {del.id()})
            .ok());
  }
  auto t = BeginAtHeight(1);
  auto r = ReadBalance(&t, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);
  EXPECT_NE(r.status().message().find("stale read"), std::string::npos)
      << r.status().ToString();
}

TEST_F(TxnFixture, OwnPendingDeleteOfStampedVersionIsInvisible) {
  Seed(1, "alice", 100, 1);
  auto t = BeginAtHeight(1);
  auto r = ReadBalance(&t, 1);
  ASSERT_TRUE(r.ok() && r.value().has_value());
  ASSERT_TRUE(t.Delete(accounts_, r.value()->first).ok());
  r = ReadBalance(&t, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().has_value());
  // Another transaction at the same height still sees the row: the delete
  // is only a candidate until it commits.
  auto other = BeginAtHeight(1);
  r = ReadBalance(&other, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 100);
}

TEST_F(TxnFixture, VersionStampedBeyondHeightStillTakesThePhantomPath) {
  Seed(1, "alice", 100, 1);
  Seed(2, "bob", 200, 2);
  auto t = BeginAtHeight(1);
  auto r = ReadBalance(&t, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);
  EXPECT_NE(r.status().message().find("phantom read"), std::string::npos)
      << r.status().ToString();
  // The same row at its own height is an ordinary visible read.
  auto at2 = BeginAtHeight(2);
  r = ReadBalance(&at2, 2);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
}

TEST_F(TxnFixture, InternalHeightPinnedReadIsAPureBlockStampFilter) {
  // Block 1 inserts 1..3; block 2 updates 1 and deletes 2; block 3
  // inserts 4. An aborted insert (5) and an in-flight transaction that
  // deletes 3 and inserts 6 must not change any height's result.
  Seed(1, "alice", 100, 1);
  Seed(2, "bob", 200, 1);
  Seed(3, "carol", 300, 1);
  {
    TxnContext b2 = BeginCsn();
    ASSERT_TRUE(SetBalance(&b2, 1, 150).ok());
    auto r = ReadBalance(&b2, 2);
    ASSERT_TRUE(r.ok() && r.value().has_value());
    ASSERT_TRUE(b2.Delete(accounts_, r.value()->first).ok());
    ASSERT_TRUE(
        b2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {b2.id()})
            .ok());
  }
  Seed(4, "dave", 400, 3);
  {
    TxnContext aborted = BeginCsn();
    ASSERT_TRUE(aborted
                    .Insert(accounts_, {Value::Int(5), Value::Text("eve"),
                                        Value::Int(500)})
                    .ok());
    aborted.Abort(Status::Aborted("test"));
  }
  TxnContext in_flight = BeginCsn();
  auto r3 = ReadBalance(&in_flight, 3);
  ASSERT_TRUE(r3.ok() && r3.value().has_value());
  ASSERT_TRUE(in_flight.Delete(accounts_, r3.value()->first).ok());
  ASSERT_TRUE(in_flight
                  .Insert(accounts_, {Value::Int(6), Value::Text("frank"),
                                      Value::Int(600)})
                  .ok());

  using Rows = std::vector<std::pair<int64_t, int64_t>>;
  const std::vector<Rows> expected = {
      {},
      {{1, 100}, {2, 200}, {3, 300}},
      {{1, 150}, {3, 300}},
      {{1, 150}, {3, 300}, {4, 400}},
      {{1, 150}, {3, 300}, {4, 400}},
  };
  for (BlockNum h = 0; h < expected.size(); ++h) {
    TxnContext reader(&db_, mgr()->Begin(Snapshot::AtBlockHeight(h)),
                      TxnMode::kInternal);
    Rows got;
    ASSERT_TRUE(reader
                    .ScanAll(accounts_,
                             [&](RowId, const Row& row) {
                               got.emplace_back(row[0].AsInt(),
                                                row[2].AsInt());
                               return true;
                             })
                    .ok());
    EXPECT_EQ(got, expected[h]) << "height " << h;
    EXPECT_TRUE(reader.info()->predicates.empty());
  }
  in_flight.Abort(Status::Aborted("test"));
}

// ---------- SSI anomaly structures (paper Figure 2) ----------

TEST_F(TxnFixture, WriteSkewAbortsExactlyOneTransaction) {
  // Figure 2(a): T1 reads x writes y, T2 reads y writes x.
  Seed(1, "x", 100, 1);
  Seed(2, "y", 100, 1);

  auto t1 = BeginCsn();
  auto t2 = BeginCsn();

  ASSERT_TRUE(ReadBalance(&t1, 1).ok());   // T1 reads x
  ASSERT_TRUE(ReadBalance(&t2, 2).ok());   // T2 reads y
  ASSERT_TRUE(SetBalance(&t1, 2, 0).ok()); // T1 writes y
  ASSERT_TRUE(SetBalance(&t2, 1, 0).ok()); // T2 writes x

  std::vector<TxnId> members = {t1.id(), t2.id()};
  Status s1 = t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members);
  Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members);
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(s2.code(), StatusCode::kSerializationFailure);
}

TEST_F(TxnFixture, ThreeTxnCycleIsBroken) {
  // Figure 2(b): T1 ->rw T2 ->rw T3 plus T3 ->rw T1 closing the cycle.
  Seed(1, "a", 10, 1);
  Seed(2, "b", 10, 1);
  Seed(3, "c", 10, 1);

  auto t1 = BeginCsn();
  auto t2 = BeginCsn();
  auto t3 = BeginCsn();

  // T1 reads a; T2 writes a  => T1 -> T2
  ASSERT_TRUE(ReadBalance(&t1, 1).ok());
  ASSERT_TRUE(SetBalance(&t2, 1, 0).ok());
  // T2 reads b; T3 writes b  => T2 -> T3
  ASSERT_TRUE(ReadBalance(&t2, 2).ok());
  ASSERT_TRUE(SetBalance(&t3, 2, 0).ok());
  // T3 reads c; T1 writes c  => T3 -> T1
  ASSERT_TRUE(ReadBalance(&t3, 3).ok());
  ASSERT_TRUE(SetBalance(&t1, 3, 0).ok());

  std::vector<TxnId> members = {t1.id(), t2.id(), t3.id()};
  Status s1 = t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members);
  Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members);
  Status s3 = t3.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 2, members);
  int aborted = !s1.ok() + !s2.ok() + !s3.ok();
  EXPECT_GE(aborted, 1);  // cycle must be broken
  EXPECT_LE(aborted, 2);  // but not everyone dies
}

TEST_F(TxnFixture, DisjointTransactionsAllCommit) {
  Seed(1, "a", 10, 1);
  Seed(2, "b", 10, 1);
  auto t1 = BeginCsn();
  auto t2 = BeginCsn();
  ASSERT_TRUE(SetBalance(&t1, 1, 11).ok());
  ASSERT_TRUE(SetBalance(&t2, 2, 22).ok());
  std::vector<TxnId> members = {t1.id(), t2.id()};
  EXPECT_TRUE(
      t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members).ok());
  EXPECT_TRUE(
      t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members).ok());
}

TEST_F(TxnFixture, ReadOnlyOverCommittedDataCommits) {
  Seed(1, "a", 10, 1);
  auto t = BeginCsn();
  ASSERT_TRUE(ReadBalance(&t, 1).ok());
  EXPECT_TRUE(
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()}).ok());
}

// ---------- ww conflicts (paper §3.3.3) ----------

TEST_F(TxnFixture, ConcurrentWritersBlockOrderWinnerTakesRow) {
  Seed(1, "a", 100, 1);
  auto t1 = BeginCsn();
  auto t2 = BeginCsn();
  // Both update the same row without blocking each other.
  ASSERT_TRUE(SetBalance(&t1, 1, 111).ok());
  ASSERT_TRUE(SetBalance(&t2, 1, 222).ok());

  std::vector<TxnId> members = {t1.id(), t2.id()};
  Status s1 = t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members);
  Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members);
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_FALSE(s2.ok());
  // Loser reports a retriable conflict (either ww or rw-based abort).
  EXPECT_TRUE(s2.IsRetriable()) << s2.ToString();

  auto fresh = BeginCsn();
  auto r = ReadBalance(&fresh, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 111);
}

// ---------- UNIQUE / PK enforcement ----------

TEST_F(TxnFixture, SnapshotDuplicateInsertFailsFast) {
  Seed(1, "a", 100, 1);
  auto t = BeginCsn();
  Status st =
      t.Insert(accounts_, {Value::Int(1), Value::Text("dup"), Value::Int(0)});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
}

TEST_F(TxnFixture, ConcurrentDuplicateInsertCaughtAtCommit) {
  auto t1 = BeginCsn();
  auto t2 = BeginCsn();
  ASSERT_TRUE(
      t1.Insert(accounts_, {Value::Int(7), Value::Text("a"), Value::Int(0)})
          .ok());
  ASSERT_TRUE(
      t2.Insert(accounts_, {Value::Int(7), Value::Text("b"), Value::Int(0)})
          .ok());
  std::vector<TxnId> members = {t1.id(), t2.id()};
  EXPECT_TRUE(
      t1.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, members).ok());
  Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 1, members);
  EXPECT_EQ(s2.code(), StatusCode::kConstraintViolation);
}

TEST_F(TxnFixture, SelfUpdateKeepingKeyIsNotADuplicate) {
  Seed(1, "a", 100, 1);
  auto t = BeginCsn();
  ASSERT_TRUE(SetBalance(&t, 1, 101).ok());
  EXPECT_TRUE(
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()}).ok());
}

// ---------- Block-aware abort rules (paper Table 2) ----------

TEST_F(TxnFixture, BlockAwareNearInSameBlockWithoutFarSurvives) {
  Seed(1, "a", 100, 1);
  auto t = BeginAtHeight(1);   // committing transaction (writer)
  auto n = BeginAtHeight(1);   // nearConflict: reads what t writes
  ASSERT_TRUE(ReadBalance(&n, 1).ok());
  ASSERT_TRUE(SetBalance(&t, 1, 150).ok());
  ASSERT_TRUE(
      n.Insert(accounts_, {Value::Int(9), Value::Text("n"), Value::Int(0)})
          .ok());

  std::vector<TxnId> members = {t.id(), n.id()};
  EXPECT_TRUE(t.CommitSerially(SsiPolicy::kBlockAware, 2, 0, members).ok());
  EXPECT_TRUE(n.CommitSerially(SsiPolicy::kBlockAware, 2, 1, members).ok());
}

TEST_F(TxnFixture, BlockAwareNearOutsideBlockIsAborted) {
  Seed(1, "a", 100, 1);
  auto t = BeginAtHeight(1);
  auto n = BeginAtHeight(1);  // executes concurrently, ordered into a later block
  ASSERT_TRUE(ReadBalance(&n, 1).ok());
  ASSERT_TRUE(SetBalance(&t, 1, 150).ok());
  ASSERT_TRUE(
      n.Insert(accounts_, {Value::Int(9), Value::Text("n"), Value::Int(0)})
          .ok());

  // t's block contains only t; n is not a member.
  EXPECT_TRUE(t.CommitSerially(SsiPolicy::kBlockAware, 2, 0, {t.id()}).ok());
  Status sn = n.CommitSerially(SsiPolicy::kBlockAware, 3, 0, {n.id()});
  EXPECT_EQ(sn.code(), StatusCode::kSerializationFailure);
}

TEST_F(TxnFixture, BlockAwareCommittedCrossBlockOutConflictAbortsSelf) {
  Seed(1, "a", 100, 1);
  auto reader = BeginAtHeight(1);
  ASSERT_TRUE(ReadBalance(&reader, 1).ok());

  auto writer = BeginAtHeight(1);
  ASSERT_TRUE(SetBalance(&writer, 1, 200).ok());
  // Writer commits in block 2; reader's rw edge to it is now cross-block.
  ASSERT_TRUE(
      writer.CommitSerially(SsiPolicy::kBlockAware, 2, 0, {writer.id()}).ok());

  ASSERT_TRUE(reader
                  .Insert(accounts_, {Value::Int(8), Value::Text("r"),
                                      Value::Int(1)})
                  .ok());
  Status sr =
      reader.CommitSerially(SsiPolicy::kBlockAware, 3, 0, {reader.id()});
  EXPECT_EQ(sr.code(), StatusCode::kSerializationFailure);
}

TEST_F(TxnFixture, BlockAwareSameBlockChainAllCommit) {
  // Pure chain F ->rw N ->rw T within one block: serializable as F, N, T.
  // The barrier rules out hidden wr-edges inside the block, so no member
  // needs to abort (less conservative than a literal paper Table 2).
  Seed(1, "a", 10, 1);
  Seed(2, "b", 10, 1);
  auto t = BeginAtHeight(1);
  auto n = BeginAtHeight(1);
  auto f = BeginAtHeight(1);

  // N reads b, T writes b  => N -> T.
  ASSERT_TRUE(ReadBalance(&n, 2).ok());
  ASSERT_TRUE(SetBalance(&t, 2, 0).ok());
  // F reads a, N writes a  => F -> N.
  ASSERT_TRUE(ReadBalance(&f, 1).ok());
  ASSERT_TRUE(SetBalance(&n, 1, 0).ok());
  ASSERT_TRUE(
      f.Insert(accounts_, {Value::Int(99), Value::Text("f"), Value::Int(0)})
          .ok());

  std::vector<TxnId> members = {t.id(), n.id(), f.id()};
  Status st = t.CommitSerially(SsiPolicy::kBlockAware, 2, 0, members);
  Status sn = n.CommitSerially(SsiPolicy::kBlockAware, 2, 1, members);
  Status sf = f.CommitSerially(SsiPolicy::kBlockAware, 2, 2, members);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(sn.ok()) << sn.ToString();
  EXPECT_TRUE(sf.ok()) << sf.ToString();
}

TEST_F(TxnFixture, BlockAwareSameBlockCycleBreaksAtLastMember) {
  // Write skew T1 <-> T2 within one block: the later one is the closing
  // pivot (committed in- and out-conflicts) and must abort.
  Seed(1, "x", 10, 1);
  Seed(2, "y", 10, 1);
  auto t1 = BeginAtHeight(1);
  auto t2 = BeginAtHeight(1);
  ASSERT_TRUE(ReadBalance(&t1, 1).ok());
  ASSERT_TRUE(ReadBalance(&t2, 2).ok());
  ASSERT_TRUE(SetBalance(&t1, 2, 0).ok());  // T1 writes what T2 read
  ASSERT_TRUE(SetBalance(&t2, 1, 0).ok());  // T2 writes what T1 read

  std::vector<TxnId> members = {t1.id(), t2.id()};
  Status s1 = t1.CommitSerially(SsiPolicy::kBlockAware, 2, 0, members);
  Status s2 = t2.CommitSerially(SsiPolicy::kBlockAware, 2, 1, members);
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(s2.code(), StatusCode::kSerializationFailure);
}

// ---------- write-set determinism & provenance & GC ----------

TEST_F(TxnFixture, WriteSetEncodingIsDeterministicAcrossDatabases) {
  auto run = [](std::string* out) {
    Database db;
    Table* accounts = db.CreateTable(AccountsSchema()).value();
    TxnManager* mgr = db.txn_manager();
    TxnContext ctx(&db, mgr->Begin(Snapshot::AtCsn(0)), TxnMode::kNormal);
    ASSERT_TRUE(ctx.Insert(accounts, {Value::Int(1), Value::Text("a"),
                                      Value::Int(10)})
                    .ok());
    ASSERT_TRUE(ctx.Insert(accounts, {Value::Int(2), Value::Text("b"),
                                      Value::Int(20)})
                    .ok());
    *out = ctx.EncodeWriteSet();
  };
  std::string a, b;
  run(&a);
  run(&b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(TxnFixture, ProvenanceSeesAllCommittedVersions) {
  Seed(1, "alice", 100, 1);
  {
    auto t = BeginCsn();
    ASSERT_TRUE(SetBalance(&t, 1, 200).ok());
    ASSERT_TRUE(
        t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()}).ok());
  }
  TxnContext prov(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                  TxnMode::kProvenance);
  int versions = 0;
  BlockNum deleter_of_old = 0;
  ASSERT_TRUE(prov.ScanVersions(accounts_,
                                [&](RowId, const Row& row, const VersionMeta& m) {
                                  ++versions;
                                  if (row[2].AsInt() == 100) {
                                    deleter_of_old = m.deleter_block;
                                  }
                                  return true;
                                })
                  .ok());
  EXPECT_EQ(versions, 2);          // old and new version both visible
  EXPECT_EQ(deleter_of_old, 2u);   // old version deleted by block 2

  // Provenance queries cannot write.
  EXPECT_EQ(prov.Insert(accounts_,
                        {Value::Int(5), Value::Text("x"), Value::Int(0)})
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TxnFixture, GarbageCollectDropsFinishedTransactions) {
  Seed(1, "a", 10, 1);
  for (int i = 0; i < 5; ++i) {
    auto t = BeginCsn();
    ASSERT_TRUE(SetBalance(&t, 1, 10 + i).ok());
    ASSERT_TRUE(t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2 + i, 0,
                                 {t.id()})
                    .ok());
  }
  size_t before = mgr()->TrackedCount();
  size_t collected = mgr()->GarbageCollect();
  EXPECT_GT(collected, 0u);
  EXPECT_LT(mgr()->TrackedCount(), before);

  // Visibility still works for GC'd creators (treated as long-committed).
  auto fresh = BeginCsn();
  auto r = ReadBalance(&fresh, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 14);
}

// ---------- context lifetime: destroying an unfinished context aborts ----

TEST_F(TxnFixture, DestroyedUnfinishedContextAborts) {
  const Csn csn_before = mgr()->CurrentCsn();
  TxnId abandoned_id = 0;
  {
    auto abandoned = BeginCsn();
    abandoned_id = abandoned.id();
    ASSERT_TRUE(abandoned
                    .Insert(accounts_,
                            {Value::Int(7), Value::Text("ghost"), Value::Int(0)})
                    .ok());
  }
  EXPECT_EQ(mgr()->StateOf(abandoned_id), TxnState::kAborted);
  EXPECT_EQ(mgr()->CurrentCsn(), csn_before);  // ending assigns no CSN

  // The abandoned insert is invisible and no longer a duplicate.
  auto reader = BeginCsn();
  auto r = ReadBalance(&reader, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().has_value());
  ASSERT_TRUE(
      reader
          .Insert(accounts_, {Value::Int(7), Value::Text("real"), Value::Int(1)})
          .ok());
  EXPECT_TRUE(
      reader.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {reader.id()})
          .ok());
}

TEST_F(TxnFixture, GarbageCollectCollectsAbandonedAndLaterCommits) {
  Seed(1, "a", 10, 1);
  TxnId abandoned_id = 0;
  TxnId later_id = 0;
  {
    // A reader that never finishes (a query returning) and a writer that
    // commits while the reader is still open: the reader's begin CSN is
    // below the writer's commit CSN, so an active reader pins the writer.
    auto abandoned = BeginCsn();
    abandoned_id = abandoned.id();
    ASSERT_TRUE(ReadBalance(&abandoned, 1).ok());
    auto later = BeginCsn();
    later_id = later.id();
    ASSERT_TRUE(SetBalance(&later, 1, 11).ok());
    ASSERT_TRUE(
        later.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {later_id})
            .ok());
    mgr()->GarbageCollect();
    EXPECT_TRUE(mgr()->StatusViewOf(later_id).known);
  }
  // GC keeps the newest commit, so commit once more past `later`.
  Seed(2, "b", 20, 3);
  mgr()->GarbageCollect();
  EXPECT_FALSE(mgr()->StatusViewOf(abandoned_id).known);
  EXPECT_FALSE(mgr()->StatusViewOf(later_id).known);

  auto fresh = BeginCsn();
  auto r = ReadBalance(&fresh, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 11);
}

TEST_F(TxnFixture, DestroyingFinishedContextChangesNothing) {
  TxnId committed_id = 0;
  TxnId aborted_id = 0;
  Csn commit_csn = 0;
  Csn csn_after_commit = 0;
  {
    auto committed = BeginCsn();
    committed_id = committed.id();
    ASSERT_TRUE(
        committed
            .Insert(accounts_, {Value::Int(1), Value::Text("a"), Value::Int(5)})
            .ok());
    ASSERT_TRUE(committed
                    .CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0,
                                    {committed_id})
                    .ok());
    commit_csn = mgr()->CommitCsnOf(committed_id);
    csn_after_commit = mgr()->CurrentCsn();
    auto aborted = BeginCsn();
    aborted_id = aborted.id();
    aborted.Abort(Status::WriteConflict("explicit"));
  }
  EXPECT_EQ(mgr()->StateOf(committed_id), TxnState::kCommitted);
  EXPECT_EQ(mgr()->CommitCsnOf(committed_id), commit_csn);
  EXPECT_EQ(mgr()->CurrentCsn(), csn_after_commit);
  EXPECT_EQ(mgr()->StateOf(aborted_id), TxnState::kAborted);
  EXPECT_EQ(mgr()->DoomReason(aborted_id).code(), StatusCode::kWriteConflict);

  auto reader = BeginCsn();
  auto r = ReadBalance(&reader, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->second, 5);
}

TEST_F(TxnFixture, FinishedTransactionRejectsFurtherWork) {
  auto t = BeginCsn();
  ASSERT_TRUE(
      t.Insert(accounts_, {Value::Int(1), Value::Text("a"), Value::Int(0)})
          .ok());
  ASSERT_TRUE(
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 2, 0, {t.id()}).ok());
  EXPECT_FALSE(
      t.Insert(accounts_, {Value::Int(2), Value::Text("b"), Value::Int(0)})
          .ok());
  EXPECT_FALSE(
      t.CommitSerially(SsiPolicy::kAbortDuringCommit, 3, 0, {t.id()}).ok());
}

}  // namespace
}  // namespace brdb
