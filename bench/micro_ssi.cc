// Ablation micro benchmarks for the SSI machinery: commit validation cost
// with and without conflicts, the overhead of SIREAD/predicate tracking,
// and index-range vs full-scan predicate reads (the paper's §4.3 reason
// for mandating index access in execute-order-in-parallel).
#include <benchmark/benchmark.h>

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

class SsiBench {
 public:
  SsiBench() {
    accounts_ = db_.CreateTable(AccountsSchema()).value();
    TxnContext seed(&db_, Begin(), TxnMode::kInternal);
    for (int i = 0; i < 1000; ++i) {
      (void)seed.Insert(accounts_, {Value::Int(i), Value::Int(100)});
    }
    (void)seed.CommitInternal(1);
  }

  TxnInfo* Begin() {
    return db_.txn_manager()->Begin(
        Snapshot::AtCsn(db_.txn_manager()->CurrentCsn()));
  }
  TxnInfo* BeginAt(BlockNum h) {
    return db_.txn_manager()->Begin(Snapshot::AtBlockHeight(h));
  }

  Database db_;
  Table* accounts_ = nullptr;
};

void BM_CommitValidationNoConflicts(benchmark::State& state) {
  SsiBench bench;
  BlockNum block = 10;
  int key = 10000;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kNormal);
    (void)ctx.Insert(bench.accounts_, {Value::Int(key++), Value::Int(1)});
    Status st = ctx.CommitSerially(SsiPolicy::kAbortDuringCommit, block++, 0,
                                   {ctx.id()});
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_CommitValidationNoConflicts);

void BM_CommitValidationWithConflicts(benchmark::State& state) {
  // Write-skew pairs: every iteration validates a dangerous structure.
  SsiBench bench;
  BlockNum block = 10;
  for (auto _ : state) {
    TxnContext t1(&bench.db_, bench.Begin(), TxnMode::kNormal);
    TxnContext t2(&bench.db_, bench.Begin(), TxnMode::kNormal);
    Value k1 = Value::Int(1), k2 = Value::Int(2);
    RowId r1 = kInvalidRowId, r2 = kInvalidRowId;
    (void)t1.ScanRange(bench.accounts_, 0, &k1, true, &k1, true,
                       [&](RowId rid, const Row&) {
                         r1 = rid;
                         return true;
                       });
    (void)t2.ScanRange(bench.accounts_, 0, &k2, true, &k2, true,
                       [&](RowId rid, const Row&) {
                         r2 = rid;
                         return true;
                       });
    (void)t1.Update(bench.accounts_, r2, {Value::Int(2), Value::Int(0)});
    (void)t2.Update(bench.accounts_, r1, {Value::Int(1), Value::Int(0)});
    std::vector<TxnId> members = {t1.id(), t2.id()};
    Status s1 = t1.CommitSerially(SsiPolicy::kAbortDuringCommit, block, 0,
                                  members);
    Status s2 = t2.CommitSerially(SsiPolicy::kAbortDuringCommit, block, 1,
                                  members);
    ++block;
    benchmark::DoNotOptimize(s1);
    benchmark::DoNotOptimize(s2);
  }
}
BENCHMARK(BM_CommitValidationWithConflicts);

void BM_IndexRangePredicateScan(benchmark::State& state) {
  SsiBench bench;
  Value lo = Value::Int(100), hi = Value::Int(200);
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kNormal);
    int count = 0;
    (void)ctx.ScanRange(bench.accounts_, 0, &lo, true, &hi, true,
                        [&](RowId, const Row&) {
                          ++count;
                          return true;
                        });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_IndexRangePredicateScan);

void BM_FullScanPredicate(benchmark::State& state) {
  SsiBench bench;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kNormal);
    int count = 0;
    (void)ctx.ScanAll(bench.accounts_, [&](RowId, const Row&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FullScanPredicate);

void BM_BlockHeightVisibility(benchmark::State& state) {
  SsiBench bench;
  Value lo = Value::Int(0), hi = Value::Int(999);
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.BeginAt(1), TxnMode::kNormal);
    int count = 0;
    (void)ctx.ScanRange(bench.accounts_, 0, &lo, true, &hi, true,
                        [&](RowId, const Row&) {
                          ++count;
                          return true;
                        });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BlockHeightVisibility);

void BM_GarbageCollect(benchmark::State& state) {
  SsiBench bench;
  BlockNum block = 10;
  int key = 50000;
  for (auto _ : state) {
    for (int i = 0; i < 50; ++i) {
      TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kNormal);
      (void)ctx.Insert(bench.accounts_, {Value::Int(key++), Value::Int(1)});
      (void)ctx.CommitSerially(SsiPolicy::kAbortDuringCommit, block++, 0,
                               {ctx.id()});
    }
    benchmark::DoNotOptimize(bench.db_.txn_manager()->GarbageCollect());
  }
}
BENCHMARK(BM_GarbageCollect);

}  // namespace
}  // namespace brdb

BENCHMARK_MAIN();
