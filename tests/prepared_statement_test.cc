// Prepared statements and the SQL engine's plan cache: parameter metadata
// inference, strict bind checks (arity + types), plan reuse across
// snapshots, and invalidation when DDL changes the catalog.
#include <gtest/gtest.h>

#include "core/blockchain_network.h"
#include "sql/executor.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace {

// ---------- engine level: plan cache + bind checks ----------

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : engine_(&db_) {
    Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score DOUBLE)");
  }

  sql::ResultSet Exec(const std::string& sql,
                      const std::vector<Value>& params = {}) {
    TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
    auto r = engine_.Execute(&ctx, sql, params);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return sql::ResultSet{};
    EXPECT_TRUE(ctx.CommitInternal(0).ok());
    return std::move(r).value();
  }

  Database db_;
  sql::SqlEngine engine_;
};

TEST_F(PlanCacheTest, InfersParamCountAndTypes) {
  auto plan = engine_.Prepare("SELECT name FROM t WHERE id = $1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->info().param_count, 1);
  ASSERT_EQ(plan.value()->info().param_types.size(), 1u);
  EXPECT_EQ(plan.value()->info().param_types[0], ValueType::kInt);
  EXPECT_EQ(plan.value()->info().type, sql::StatementType::kSelect);

  auto insert = engine_.Prepare("INSERT INTO t VALUES ($1, $2, $3)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert.value()->info().param_count, 3);
  ASSERT_EQ(insert.value()->info().param_types.size(), 3u);
  EXPECT_EQ(insert.value()->info().param_types[0], ValueType::kInt);
  EXPECT_EQ(insert.value()->info().param_types[1], ValueType::kText);
  EXPECT_EQ(insert.value()->info().param_types[2], ValueType::kDouble);
}

TEST_F(PlanCacheTest, BindCheckRejectsArityAndTypeMismatches) {
  auto plan = engine_.Prepare("INSERT INTO t VALUES ($1, $2, $3)");
  ASSERT_TRUE(plan.ok());
  const sql::PreparedPlan& p = *plan.value();

  EXPECT_TRUE(p.BindCheck({Value::Int(1), Value::Text("a"), Value::Double(.5)})
                  .ok());
  // INT binds where DOUBLE is expected (numeric widening).
  EXPECT_TRUE(
      p.BindCheck({Value::Int(1), Value::Text("a"), Value::Int(2)}).ok());
  // NULL binds anywhere.
  EXPECT_TRUE(
      p.BindCheck({Value::Int(1), Value::Null(), Value::Null()}).ok());
  // Wrong arity.
  EXPECT_EQ(p.BindCheck({Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(p.BindCheck({}).code(), StatusCode::kInvalidArgument);
  // Type mismatches.
  EXPECT_EQ(
      p.BindCheck({Value::Text("x"), Value::Text("a"), Value::Int(1)}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(p.BindCheck({Value::Int(1), Value::Int(5), Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  // DOUBLE does not narrow to INT.
  auto where_int = engine_.Prepare("SELECT * FROM t WHERE id = $1");
  ASSERT_TRUE(where_int.ok());
  EXPECT_EQ(where_int.value()->BindCheck({Value::Double(1.5)}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanCacheTest, RepeatedStatementsHitTheCache) {
  const uint64_t misses0 = engine_.plan_cache_misses();
  const uint64_t hits0 = engine_.plan_cache_hits();
  const std::string sql = "SELECT COUNT(*) FROM t WHERE id = $1";
  for (int i = 0; i < 5; ++i) {
    TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
    auto r = engine_.Execute(&ctx, sql, {Value::Int(i)});
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(engine_.plan_cache_misses() - misses0, 1u);
  EXPECT_EQ(engine_.plan_cache_hits() - hits0, 4u);
}

TEST_F(PlanCacheTest, DdlInvalidatesCachedPlans) {
  const std::string sql = "SELECT score FROM t WHERE name = $1";
  auto before = engine_.Prepare(sql);
  ASSERT_TRUE(before.ok());
  const uint64_t version_before = before.value()->schema_version();

  // Cached: preparing again is a hit, same plan object.
  const uint64_t hits0 = engine_.plan_cache_hits();
  auto again = engine_.Prepare(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine_.plan_cache_hits(), hits0 + 1);
  EXPECT_EQ(again.value().get(), before.value().get());

  // Any DDL bumps the catalog version and invalidates the plan.
  Exec("CREATE INDEX t_name ON t (name)");
  const uint64_t misses0 = engine_.plan_cache_misses();
  auto after = engine_.Prepare(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine_.plan_cache_misses(), misses0 + 1);
  EXPECT_NE(after.value().get(), before.value().get());
  EXPECT_GT(after.value()->schema_version(), version_before);

  // DROP + recreate with different column types: the fresh plan re-infers.
  Exec("DROP TABLE t");
  Exec("CREATE TABLE t (id INT PRIMARY KEY, name INT, score TEXT)");
  auto recreated = engine_.Prepare("INSERT INTO t VALUES ($1, $2, $3)");
  ASSERT_TRUE(recreated.ok());
  ASSERT_EQ(recreated.value()->info().param_types.size(), 3u);
  EXPECT_EQ(recreated.value()->info().param_types[1], ValueType::kInt);
  EXPECT_EQ(recreated.value()->info().param_types[2], ValueType::kText);
}

TEST_F(PlanCacheTest, AccessPathAnalyzedOncePerPlan) {
  Exec("INSERT INTO t VALUES (1, 'a', 1.0)");
  Exec("INSERT INTO t VALUES (2, 'b', 2.0)");
  Exec("INSERT INTO t VALUES (3, 'c', 3.0)");

  const std::string sql = "SELECT name FROM t WHERE id = $1";
  auto plan = engine_.Prepare(sql);
  ASSERT_TRUE(plan.ok());

  // The prepare-time analysis found the sargable pk conjunct.
  const sql::AccessPath* path =
      plan.value()->FindAccessPath(plan.value()->statement().select.get());
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(path->analyzed);
  EXPECT_TRUE(path->where_touches_table);
  ASSERT_EQ(path->conjuncts.size(), 1u);
  EXPECT_EQ(path->conjuncts[0].column, 0);

  // Executions reuse it: the hit counter moves, results stay right.
  const uint64_t hits0 = engine_.access_path_hits();
  for (int i = 1; i <= 3; ++i) {
    TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
    auto r = engine_.ExecutePrepared(&ctx, *plan.value(),
                                     {Value::Int(i)}, sql::ExecOptions());
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().rows.size(), 1u);
    ctx.Abort(Status::Aborted("test"));
  }
  EXPECT_EQ(engine_.access_path_hits(), hits0 + 3);
}

TEST_F(PlanCacheTest, StalePlanAccessPathIgnoredAfterDdl) {
  Exec("INSERT INTO t VALUES (1, 'a', 1.0)");
  auto plan = engine_.Prepare("SELECT name FROM t WHERE id = $1");
  ASSERT_TRUE(plan.ok());

  // DDL bumps the schema version: the stale plan still executes correctly,
  // but its cached access path is ignored (no hit recorded).
  Exec("CREATE INDEX t_name ON t (name)");
  const uint64_t hits0 = engine_.access_path_hits();
  TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  auto r = engine_.ExecutePrepared(&ctx, *plan.value(), {Value::Int(1)},
                                   sql::ExecOptions());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  ctx.Abort(Status::Aborted("test"));
  EXPECT_EQ(engine_.access_path_hits(), hits0);
}

TEST_F(PlanCacheTest, AccessPathSeesIndexesCreatedAfterFirstPrepare) {
  Exec("INSERT INTO t VALUES (1, 'a', 1.0)");
  // Under execute-order-in-parallel rules a predicate without a usable
  // index aborts. The cached access path must not fossilize that: after
  // CREATE INDEX, a re-prepared plan picks the new index up.
  const std::string sql = "SELECT id FROM t WHERE name = 'a'";
  auto run = [&]() -> Status {
    TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                   TxnMode::kInternal);
    auto r = engine_.Execute(&ctx, sql, {},
                             sql::ExecOptions::ExecuteOrderParallel());
    ctx.Abort(Status::Aborted("test"));
    return r.status();
  };
  EXPECT_FALSE(run().ok());
  Exec("CREATE INDEX t_name ON t (name)");
  EXPECT_TRUE(run().ok());
}

TEST_F(PlanCacheTest, StalePlanAgainstDroppedTableFailsCleanly) {
  auto plan = engine_.Prepare("SELECT * FROM t WHERE id = $1");
  ASSERT_TRUE(plan.ok());
  Exec("DROP TABLE t");
  // Executing the stale plan resolves tables at execution time: a clean
  // NotFound, never a crash or stale read.
  TxnContext ctx(&db_, db_.txn_manager()->BeginAtCurrentCsn(),
                 TxnMode::kInternal);
  auto r = engine_.ExecutePrepared(&ctx, *plan.value(), {Value::Int(1)},
                                   sql::ExecOptions());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// ---------- session level: prepared statements over the network ----------

NetworkOptions FastOptions() {
  NetworkOptions opts;
  opts.flow = TransactionFlow::kOrderThenExecute;
  opts.orderer_config.block_size = 10;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  return opts;
}

TEST(SessionPreparedTest, PreparedQueryReusesAcrossSnapshots) {
  auto net = BlockchainNetwork::Create(FastOptions());
  ASSERT_TRUE(net->RegisterNativeContract(
                     "put_kv",
                     [](ContractContext* ctx) -> Status {
                       auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2)",
                                             ctx->args());
                       return r.ok() ? Status::OK() : r.status();
                     })
                  .ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                                  "v INT)")
                  .ok());
  Session* session = net->CreateSession("org1", "alice");

  auto prep = session->Prepare("SELECT v FROM kv WHERE k = $1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_EQ(prep.value().param_count(), 1);
  EXPECT_EQ(prep.value().type(), sql::StatementType::kSelect);

  // Bind-time validation happens client-side, before any frame is sent.
  EXPECT_EQ(session->Query(prep.value(), {Value::Text("one")}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query(prep.value(), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Query(prep.value(), {Value::Int(1), Value::Int(2)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The same prepared statement works across successive snapshots: each
  // execution sees the latest committed state. Reads are round-robin, so
  // wait for ALL nodes before querying (majority-commit would race a read
  // landing on the still-catching-up peer).
  ASSERT_TRUE(session->Submit("put_kv", {Value::Int(1), Value::Int(10)})
                  .WaitAllNodes()
                  .ok());
  auto r1 = session->Query(prep.value(), {Value::Int(1)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().Scalar().value().AsInt(), 10);

  ASSERT_TRUE(session->Submit("put_kv", {Value::Int(2), Value::Int(20)})
                  .WaitAllNodes()
                  .ok());
  net->WaitIdle();
  auto r2 = session->Query(prep.value(), {Value::Int(2)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().Scalar().value().AsInt(), 20);

  // Repeated executions hit the per-node plan caches (parse-once).
  uint64_t hits = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(session->Query(prep.value(), {Value::Int(1)}).ok());
  }
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    hits += net->node(i)->sql_engine()->plan_cache_hits();
  }
  EXPECT_GT(hits, 0u);

  // Only SELECT may be prepared by clients (rejected before it can occupy
  // a plan-cache slot).
  EXPECT_EQ(session->Prepare("INSERT INTO kv VALUES (1, 1)").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(session->Prepare("SELEC nonsense").status().code(),
            StatusCode::kPermissionDenied);
  // Parse errors surface at prepare time.
  EXPECT_EQ(session->Prepare("SELECT FROM WHERE").status().code(),
            StatusCode::kInvalidArgument);
  net->Stop();
}

}  // namespace
}  // namespace brdb
