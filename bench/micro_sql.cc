// Micro benchmarks for the SQL engine: parsing, single-row DML, indexed
// point reads, joins and aggregation — the per-statement costs underlying
// the tet (transaction execution time) differences between the simple and
// complex contracts (§5.2).
#include <benchmark/benchmark.h>

#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

class SqlBench {
 public:
  SqlBench() : engine_(&db_) {
    TxnContext ddl(&db_, Begin(), TxnMode::kInternal);
    Exec(&ddl,
         "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, "
         "balance INT)");
    Exec(&ddl, "CREATE INDEX idx_owner ON accounts (owner)");
    for (int i = 0; i < 1000; ++i) {
      Exec(&ddl, "INSERT INTO accounts VALUES (" + std::to_string(i) +
                     ", 'owner" + std::to_string(i % 50) + "', " +
                     std::to_string(i * 3) + ")");
    }
    ddl.CommitInternal(1);
  }

  TxnInfo* Begin() {
    return db_.txn_manager()->Begin(
        Snapshot::AtCsn(db_.txn_manager()->CurrentCsn()));
  }

  void Exec(TxnContext* ctx, const std::string& sql) {
    auto r = engine_.Execute(ctx, sql);
    if (!r.ok()) std::abort();
  }

  Database db_;
  sql::SqlEngine engine_;
};

void BM_ParseSelect(benchmark::State& state) {
  const std::string sql =
      "SELECT a.owner, SUM(a.balance) AS total FROM accounts a "
      "WHERE a.id >= 10 AND a.id < 500 GROUP BY a.owner "
      "HAVING SUM(a.balance) > 100 ORDER BY total DESC LIMIT 5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parse(sql));
  }
}
BENCHMARK(BM_ParseSelect);

void BM_IndexedPointSelect(benchmark::State& state) {
  SqlBench bench;
  int i = 0;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kInternal);
    auto r = bench.engine_.Execute(
        &ctx, "SELECT balance FROM accounts WHERE id = $1",
        {Value::Int(i++ % 1000)});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_IndexedPointSelect);

void BM_SecondaryIndexRange(benchmark::State& state) {
  SqlBench bench;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kInternal);
    auto r = bench.engine_.Execute(
        &ctx, "SELECT COUNT(*) FROM accounts WHERE owner = 'owner7'");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SecondaryIndexRange);

void BM_GroupByAggregate(benchmark::State& state) {
  SqlBench bench;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kInternal);
    auto r = bench.engine_.Execute(
        &ctx,
        "SELECT owner, SUM(balance) AS t FROM accounts GROUP BY owner "
        "ORDER BY t DESC LIMIT 1");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GroupByAggregate);

void BM_InsertCommit(benchmark::State& state) {
  SqlBench bench;
  int key = 1000000;
  BlockNum block = 100;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kNormal);
    auto r = bench.engine_.Execute(
        &ctx, "INSERT INTO accounts VALUES ($1, 'new', 0)",
        {Value::Int(key++)});
    benchmark::DoNotOptimize(r);
    Status st = ctx.CommitSerially(SsiPolicy::kAbortDuringCommit, block++, 0,
                                   {ctx.id()});
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_InsertCommit);

void BM_JoinAggregate(benchmark::State& state) {
  SqlBench bench;
  {
    TxnContext ddl(&bench.db_, bench.Begin(), TxnMode::kInternal);
    bench.Exec(&ddl, "CREATE TABLE owners (name TEXT PRIMARY KEY, org TEXT)");
    for (int i = 0; i < 50; ++i) {
      bench.Exec(&ddl, "INSERT INTO owners VALUES ('owner" +
                           std::to_string(i) + "', 'org" +
                           std::to_string(i % 4) + "')");
    }
    ddl.CommitInternal(2);
  }
  for (auto _ : state) {
    TxnContext ctx(&bench.db_, bench.Begin(), TxnMode::kInternal);
    auto r = bench.engine_.Execute(
        &ctx,
        "SELECT o.org, SUM(a.balance) FROM accounts a "
        "JOIN owners o ON a.owner = o.name GROUP BY o.org ORDER BY o.org");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_JoinAggregate);

// The EOP complex_join contract's SELECT (contracts/workload_contracts.cc)
// as each replica executes it: a kNormal transaction at a block-height
// snapshot under the execute-order-in-parallel options, over 100 customers
// and 1,000 orders.
void BM_EopComplexJoin(benchmark::State& state) {
  SqlBench bench;
  const char* const kRegions[] = {"emea", "amer", "apac", "latam"};
  {
    TxnContext ddl(&bench.db_, bench.Begin(), TxnMode::kInternal);
    bench.Exec(&ddl,
               "CREATE TABLE customers (cust_id INT PRIMARY KEY, region TEXT)");
    bench.Exec(&ddl, "CREATE INDEX idx_region ON customers (region)");
    bench.Exec(&ddl,
               "CREATE TABLE orders (order_id INT PRIMARY KEY, cust INT, "
               "amount INT)");
    bench.Exec(&ddl, "CREATE INDEX idx_cust ON orders (cust)");
    for (int c = 0; c < 100; ++c) {
      bench.Exec(&ddl, "INSERT INTO customers VALUES (" + std::to_string(c) +
                           ", '" + kRegions[(c * 7) % 4] + "')");
    }
    for (int o = 0; o < 1000; ++o) {
      bench.Exec(&ddl, "INSERT INTO orders VALUES (" + std::to_string(o) +
                           ", " + std::to_string((o * 37) % 100) + ", " +
                           std::to_string(10 + o % 90) + ")");
    }
    ddl.CommitInternal(2);
  }
  const sql::ExecOptions eop = sql::ExecOptions::ExecuteOrderParallel();
  size_t i = 0;
  for (auto _ : state) {
    TxnContext ctx(&bench.db_,
                   bench.db_.txn_manager()->Begin(Snapshot::AtBlockHeight(2)),
                   TxnMode::kNormal);
    auto r = bench.engine_.Execute(
        &ctx,
        "SELECT COALESCE(SUM(o.amount), 0) FROM orders o "
        "JOIN customers c ON o.cust = c.cust_id WHERE c.region = $1",
        {Value::Text(kRegions[i++ % 4])}, eop);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EopComplexJoin);

}  // namespace
}  // namespace brdb

BENCHMARK_MAIN();
