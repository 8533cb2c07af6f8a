// Unit tests for src/sql: lexer/parser acceptance, expression semantics
// (NULL logic, arithmetic, functions), the full SELECT pipeline (joins,
// aggregation, grouping, ordering, limits), DML, CHECK constraints,
// determinism restrictions and provenance pseudo-columns.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ledger/history_builder.h"
#include "sql/eval.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/columnar.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace sql {
namespace {

class SqlFixture : public ::testing::Test {
 protected:
  SqlFixture() : engine_(&db_) {}

  TxnManager* mgr() { return db_.txn_manager(); }

  /// Execute and commit a statement in its own transaction.
  Result<ResultSet> Exec(const std::string& sql,
                         const std::vector<Value>& params = {},
                         const ExecOptions& opts = ExecOptions()) {
    TxnContext ctx(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                   TxnMode::kNormal);
    auto r = engine_.Execute(&ctx, sql, params, opts);
    if (!r.ok()) {
      ctx.Abort(r.status());
      return r;
    }
    Status st = ctx.CommitSerially(SsiPolicy::kAbortDuringCommit,
                                   next_block_++, 0, {ctx.id()});
    if (!st.ok()) return st;
    return r;
  }

  /// Execute in provenance mode (read-only, sees all versions).
  Result<ResultSet> Provenance(const std::string& sql) {
    TxnContext ctx(&db_, mgr()->Begin(Snapshot::AtCsn(mgr()->CurrentCsn())),
                   TxnMode::kProvenance);
    return engine_.Execute(&ctx, sql);
  }

  void MustExec(const std::string& sql) {
    auto r = Exec(sql);
    ASSERT_TRUE(r.ok()) << sql << " => " << r.status().ToString();
  }

  void SetUpAccounts() {
    MustExec(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT NOT NULL, "
        "balance INT, CHECK (balance >= 0))");
    MustExec("CREATE INDEX idx_owner ON accounts (owner)");
    MustExec("INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 200), "
             "(3, 'alice', 300), (4, 'carol', 50)");
  }

  Database db_;
  SqlEngine engine_;
  BlockNum next_block_ = 1;
};

// ---------- parsing ----------

TEST(ParserTest, RejectsGarbageAndTrailingInput) {
  EXPECT_FALSE(Parse("FOO BAR").ok());
  EXPECT_FALSE(Parse("SELECT 1 SELECT 2").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
  EXPECT_FALSE(Parse("INSERT INTO t").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(ParserTest, ParsesSelectShape) {
  auto r = Parse(
      "SELECT a.x, SUM(b.y) AS total FROM t1 a JOIN t2 b ON a.id = b.id "
      "WHERE a.x > 3 GROUP BY a.x HAVING SUM(b.y) > 10 "
      "ORDER BY total DESC LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = *r.value().select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "total");
  ASSERT_TRUE(s.from.has_value());
  EXPECT_EQ(s.from->alias, "a");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(s.group_by.size(), 1u);
  EXPECT_TRUE(s.having != nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].desc);
  EXPECT_EQ(s.limit.value_or(0), 5);
}

TEST(ParserTest, FetchFirstIsLimit) {
  auto r = Parse("SELECT x FROM t ORDER BY x FETCH FIRST 3 ROWS ONLY");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().select->limit.value_or(0), 3);
}

TEST(ParserTest, StringEscapes) {
  auto r = Parse("SELECT 'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().select->items[0].expr->literal.AsText(), "it's");
}

TEST(ParserTest, PartitionByHashIsNotSql) {
  // The dialect has no PARTITION BY clause: it is trailing input.
  EXPECT_FALSE(
      Parse("CREATE TABLE t (k INT PRIMARY KEY, v INT) PARTITION BY HASH (k)")
          .ok());
  EXPECT_TRUE(Parse("CREATE TABLE t (k INT PRIMARY KEY, v INT)").ok());
}

TEST(ParserTest, CreateTableWithConstraints) {
  auto r = Parse(
      "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20) NOT NULL UNIQUE, "
      "score DOUBLE PRECISION, ok BOOLEAN, CHECK (score >= 0))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CreateTableStmt& c = *r.value().create_table;
  ASSERT_EQ(c.columns.size(), 4u);
  EXPECT_TRUE(c.columns[0].primary_key);
  EXPECT_TRUE(c.columns[1].not_null);
  EXPECT_TRUE(c.columns[1].unique);
  EXPECT_EQ(c.columns[2].type, ValueType::kDouble);
  EXPECT_EQ(c.columns[3].type, ValueType::kBool);
  ASSERT_EQ(c.check_exprs.size(), 1u);
  EXPECT_EQ(c.check_exprs[0], "score >= 0");
}

TEST(ParserTest, ExpressionPrecedence) {
  // 1 + 2 * 3 = 7, not 9.
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EvalContext ctx;
  auto v = Eval(*e.value(), ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsInt(), 7);
}

// ---------- expression semantics ----------

Value EvalText(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  EvalContext ctx;
  auto v = Eval(*e.value(), ctx);
  EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  return v.ok() ? v.value() : Value::Null();
}

TEST(EvalTest, Arithmetic) {
  EXPECT_EQ(EvalText("7 / 2").AsInt(), 3);            // integer division
  EXPECT_DOUBLE_EQ(EvalText("7 / 2.0").AsDouble(), 3.5);
  EXPECT_EQ(EvalText("7 % 3").AsInt(), 1);
  EXPECT_EQ(EvalText("-(3 + 4)").AsInt(), -7);
  EXPECT_EQ(EvalText("2 * 3 + 4").AsInt(), 10);
}

TEST(EvalTest, DivisionByZeroIsAnError) {
  auto e = ParseExpression("1 / 0");
  ASSERT_TRUE(e.ok());
  EvalContext ctx;
  EXPECT_FALSE(Eval(*e.value(), ctx).ok());
}

TEST(EvalTest, IntegerOverflowIsAnErrorAtEveryOperator) {
  // Each int64 operation at its boundary: one step past it is an error,
  // never a trap (INT64_MIN / -1 raises SIGFPE) or a wrapped value.
  const std::string kMin = "(-9223372036854775807 - 1)";
  const std::string kMax = "9223372036854775807";
  for (const std::string& text : std::vector<std::string>{
           kMax + " + 1", kMin + " + -1", kMin + " - 1", kMax + " - -1",
           kMax + " * 2", kMin + " * -1", "-1 * " + kMin, kMin + " / -1",
           "-" + kMin, "abs(" + kMin + ")", "floor(9223372036854775808.0)",
           "ceil(-9223372036854777856.0)"}) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    auto v = Eval(*e.value(), EvalContext());
    ASSERT_FALSE(v.ok()) << text << " = " << v.value().ToString();
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(v.status().ToString().find("integer out of range"),
              std::string::npos)
        << text;
  }
  // The boundaries themselves are representable.
  EXPECT_EQ(EvalText("9223372036854775806 + 1").AsInt(), INT64_MAX);
  EXPECT_EQ(EvalText(kMin).AsInt(), INT64_MIN);
  EXPECT_EQ(EvalText(kMin + " + 0").AsInt(), INT64_MIN);
  EXPECT_EQ(EvalText(kMin + " * 1").AsInt(), INT64_MIN);
  EXPECT_EQ(EvalText(kMin + " / 1").AsInt(), INT64_MIN);
  EXPECT_EQ(EvalText(kMax + " / -1").AsInt(), -INT64_MAX);
  EXPECT_EQ(EvalText("-" + kMax).AsInt(), -INT64_MAX);
  EXPECT_EQ(EvalText("abs(-" + kMax + ")").AsInt(), INT64_MAX);
  EXPECT_EQ(EvalText("floor(-9223372036854775808.0)").AsInt(), INT64_MIN);
  // x % -1 is 0, as in PostgreSQL (INT64_MIN % -1 also traps in hardware).
  EXPECT_EQ(EvalText(kMin + " % -1").AsInt(), 0);
  EXPECT_EQ(EvalText("mod(" + kMin + ", -1)").AsInt(), 0);
  EXPECT_EQ(EvalText("7 % -1").AsInt(), 0);
  EXPECT_EQ(EvalText("-7 % 2").AsInt(), -1);
}

TEST(EvalTest, NullPropagation) {
  EXPECT_TRUE(EvalText("1 + NULL").is_null());
  EXPECT_TRUE(EvalText("NULL = NULL").is_null());
  EXPECT_TRUE(EvalText("NOT NULL").is_null());
  EXPECT_TRUE(EvalText("NULL IS NULL").AsBool());
  EXPECT_FALSE(EvalText("1 IS NULL").AsBool());
  EXPECT_TRUE(EvalText("1 IS NOT NULL").AsBool());
}

TEST(EvalTest, KleeneLogic) {
  EXPECT_FALSE(EvalText("FALSE AND NULL").AsBool());  // false dominates
  EXPECT_TRUE(EvalText("TRUE OR NULL").AsBool());     // true dominates
  EXPECT_TRUE(EvalText("TRUE AND NULL").is_null());
  EXPECT_TRUE(EvalText("FALSE OR NULL").is_null());
  EXPECT_TRUE(EvalText("TRUE AND TRUE").AsBool());
  EXPECT_FALSE(EvalText("FALSE OR FALSE").AsBool());
}

TEST(EvalTest, ComparisonAndBetweenAndIn) {
  EXPECT_TRUE(EvalText("2 BETWEEN 1 AND 3").AsBool());
  EXPECT_FALSE(EvalText("4 BETWEEN 1 AND 3").AsBool());
  EXPECT_TRUE(EvalText("4 NOT BETWEEN 1 AND 3").AsBool());
  EXPECT_TRUE(EvalText("2 IN (1, 2, 3)").AsBool());
  EXPECT_FALSE(EvalText("5 IN (1, 2, 3)").AsBool());
  EXPECT_TRUE(EvalText("5 NOT IN (1, 2, 3)").AsBool());
  EXPECT_TRUE(EvalText("5 IN (1, NULL)").is_null());  // unknown
  EXPECT_TRUE(EvalText("'b' > 'a'").AsBool());
}

TEST(EvalTest, MixedTypeComparisonIsError) {
  auto e = ParseExpression("1 = 'one'");
  ASSERT_TRUE(e.ok());
  EvalContext ctx;
  EXPECT_FALSE(Eval(*e.value(), ctx).ok());
}

TEST(EvalTest, CaseWhen) {
  EXPECT_EQ(EvalText("CASE WHEN 1 < 2 THEN 'lo' ELSE 'hi' END").AsText(),
            "lo");
  EXPECT_EQ(EvalText("CASE WHEN 1 > 2 THEN 'lo' ELSE 'hi' END").AsText(),
            "hi");
  EXPECT_TRUE(EvalText("CASE WHEN FALSE THEN 1 END").is_null());
}

TEST(EvalTest, ScalarFunctions) {
  EXPECT_EQ(EvalText("abs(-5)").AsInt(), 5);
  EXPECT_EQ(EvalText("length('hello')").AsInt(), 5);
  EXPECT_EQ(EvalText("upper('abc')").AsText(), "ABC");
  EXPECT_EQ(EvalText("lower('ABC')").AsText(), "abc");
  EXPECT_EQ(EvalText("coalesce(NULL, NULL, 3)").AsInt(), 3);
  EXPECT_EQ(EvalText("substr('hello', 2, 3)").AsText(), "ell");
  EXPECT_EQ(EvalText("'a' || 'b' || 'c'").AsText(), "abc");
  EXPECT_EQ(EvalText("concat('x', NULL, 'y')").AsText(), "xy");
  EXPECT_EQ(EvalText("greatest(3, 9, 1)").AsInt(), 9);
  EXPECT_EQ(EvalText("least(3, 9, 1)").AsInt(), 1);
  EXPECT_EQ(EvalText("mod(9, 4)").AsInt(), 1);
  EXPECT_EQ(EvalText("floor(2.7)").AsInt(), 2);
  EXPECT_EQ(EvalText("ceil(2.1)").AsInt(), 3);
  EXPECT_TRUE(EvalText("nullif(3, 3)").is_null());
  EXPECT_EQ(EvalText("nullif(3, 4)").AsInt(), 3);
}

TEST(EvalTest, DeterminismValidatorRejectsForbiddenFunctions) {
  for (const char* text : {"now()", "random()", "current_timestamp()",
                           "nextval('s')", "clock_timestamp()"}) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    EXPECT_EQ(CheckDeterministic(*e.value()).code(),
              StatusCode::kDeterminismViolation)
        << text;
  }
  auto ok = ParseExpression("abs(x) + length(y)");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CheckDeterministic(*ok.value()).ok());
}

// ---------- end-to-end statements ----------

TEST_F(SqlFixture, InsertAndSelectAll) {
  SetUpAccounts();
  auto r = Exec("SELECT * FROM accounts WHERE id = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][1].AsText(), "bob");
  EXPECT_EQ(r.value().columns[2], "balance");
}

TEST_F(SqlFixture, SelectWithParams) {
  SetUpAccounts();
  auto r = Exec("SELECT balance FROM accounts WHERE id = $1",
                {Value::Int(3)});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().Scalar().ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 300);
  // Missing param
  EXPECT_FALSE(Exec("SELECT balance FROM accounts WHERE id = $2",
                    {Value::Int(3)})
                   .ok());
}

TEST_F(SqlFixture, RangePredicateUsesIndexAndFilters) {
  SetUpAccounts();
  auto r = Exec(
      "SELECT id FROM accounts WHERE id >= 2 AND id <= 3 ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.value().rows[1][0].AsInt(), 3);
}

TEST_F(SqlFixture, NonIndexedResidualPredicate) {
  SetUpAccounts();
  auto r = Exec("SELECT id FROM accounts WHERE balance > 150 ORDER BY id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 2u);  // bob(200), alice#3(300)
}

TEST_F(SqlFixture, OrderByDescAndLimit) {
  SetUpAccounts();
  auto r = Exec("SELECT id, balance FROM accounts ORDER BY balance DESC "
                "LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.value().rows[1][0].AsInt(), 2);
}

TEST_F(SqlFixture, LimitWithoutOrderByIsRejected) {
  SetUpAccounts();
  auto r = Exec("SELECT id FROM accounts LIMIT 2");
  EXPECT_EQ(r.status().code(), StatusCode::kDeterminismViolation);
}

TEST_F(SqlFixture, AggregatesGlobal) {
  SetUpAccounts();
  auto r = Exec(
      "SELECT COUNT(*), SUM(balance), AVG(balance), MIN(balance), "
      "MAX(balance) FROM accounts");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  const Row& row = r.value().rows[0];
  EXPECT_EQ(row[0].AsInt(), 4);
  EXPECT_EQ(row[1].AsInt(), 650);
  EXPECT_DOUBLE_EQ(row[2].AsDouble(), 162.5);
  EXPECT_EQ(row[3].AsInt(), 50);
  EXPECT_EQ(row[4].AsInt(), 300);
}

TEST_F(SqlFixture, AggregateOverEmptyTable) {
  MustExec("CREATE TABLE empty_t (id INT PRIMARY KEY, v INT)");
  auto r = Exec("SELECT COUNT(*), SUM(v) FROM empty_t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.value().rows[0][1].is_null());
}

TEST_F(SqlFixture, GroupByHavingOrder) {
  SetUpAccounts();
  auto r = Exec(
      "SELECT owner, SUM(balance) AS total, COUNT(*) FROM accounts "
      "GROUP BY owner HAVING SUM(balance) > 60 ORDER BY total DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);  // alice=400, bob=200 (carol=50 out)
  EXPECT_EQ(r.value().rows[0][0].AsText(), "alice");
  EXPECT_EQ(r.value().rows[0][1].AsInt(), 400);
  EXPECT_EQ(r.value().rows[1][0].AsText(), "bob");
  EXPECT_EQ(r.value().rows[1][2].AsInt(), 1);
}

TEST_F(SqlFixture, NonGroupedColumnOutsideAggregateFails) {
  SetUpAccounts();
  auto r = Exec("SELECT owner, balance FROM accounts GROUP BY owner");
  EXPECT_FALSE(r.ok());
}

TEST_F(SqlFixture, JoinInner) {
  SetUpAccounts();
  MustExec("CREATE TABLE orgs (owner TEXT PRIMARY KEY, org TEXT)");
  MustExec("INSERT INTO orgs VALUES ('alice', 'org1'), ('bob', 'org2')");
  auto r = Exec(
      "SELECT a.id, o.org FROM accounts a JOIN orgs o ON a.owner = o.owner "
      "ORDER BY a.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 3u);  // ids 1,2,3 (carol unmatched)
  EXPECT_EQ(r.value().rows[0][1].AsText(), "org1");
  EXPECT_EQ(r.value().rows[1][1].AsText(), "org2");
}

TEST_F(SqlFixture, LeftJoinPadsNulls) {
  SetUpAccounts();
  MustExec("CREATE TABLE orgs (owner TEXT PRIMARY KEY, org TEXT)");
  MustExec("INSERT INTO orgs VALUES ('alice', 'org1')");
  auto r = Exec(
      "SELECT a.id, o.org FROM accounts a LEFT JOIN orgs o "
      "ON a.owner = o.owner ORDER BY a.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 4u);
  EXPECT_EQ(r.value().rows[0][1].AsText(), "org1");
  EXPECT_TRUE(r.value().rows[1][1].is_null());  // bob has no org row
}

TEST_F(SqlFixture, JoinWithAggregation) {
  // The paper's complex-join contract shape: join two tables, aggregate,
  // write the result into a third table.
  SetUpAccounts();
  MustExec("CREATE TABLE orgs (owner TEXT PRIMARY KEY, org TEXT)");
  MustExec("INSERT INTO orgs VALUES ('alice', 'org1'), ('bob', 'org1'), "
           "('carol', 'org2')");
  MustExec("CREATE TABLE org_totals (org TEXT PRIMARY KEY, total INT)");
  auto r = Exec(
      "INSERT INTO org_totals SELECT o.org, SUM(a.balance) FROM accounts a "
      "JOIN orgs o ON a.owner = o.owner GROUP BY o.org ORDER BY o.org");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected, 2);
  auto check = Exec("SELECT total FROM org_totals WHERE org = 'org1'");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().Scalar().value().AsInt(), 600);
}

// The row path reads joined rows in place, as references into the table's
// version arena (Table::ValuesOf). Chunk 0 of the arena holds 512 versions;
// these statements append past it while references taken earlier in the
// same statement are still in use.
TEST_F(SqlFixture, InsertSelectJoinGrowsTablePastFirstArenaChunk) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)");
  MustExec("CREATE TABLE u (grp INT PRIMARY KEY, mult INT)");
  MustExec("INSERT INTO u VALUES (0, 3), (1, 5), (2, 7)");
  constexpr int kRows = 400;
  std::string values;
  for (int i = 0; i < kRows; ++i) {
    values += (i ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i % 4) + ", " + std::to_string(i) + ")";
  }
  MustExec("INSERT INTO t VALUES " + values);
  // grp 3 has no u row, so a quarter of t drops out of the join.
  auto r = Exec(
      "INSERT INTO t SELECT t.id + 1000, u.grp, t.v * u.mult FROM t "
      "JOIN u ON t.grp = u.grp ORDER BY t.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected, kRows / 4 * 3);
  auto check = Exec("SELECT id, grp, v FROM t WHERE id >= 1000 ORDER BY id");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  std::vector<Row> want;
  const int64_t mult[] = {3, 5, 7};
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 4 == 3) continue;
    want.push_back({Value::Int(i + 1000), Value::Int(i % 4),
                    Value::Int(i * mult[i % 4])});
  }
  EXPECT_EQ(check.value().rows, want);
}

TEST_F(SqlFixture, UpdateAppendsVersionsWhileScanReferencesAreLive) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)");
  constexpr int kRows = 1000;  // + 1000 new versions: chunks 0, 1 and 2
  std::string values;
  for (int i = 0; i < kRows; ++i) {
    values += (i ? ", (" : "(") + std::to_string(i) + ", " +
              std::to_string(i % 3) + ", " + std::to_string(i) + ")";
  }
  MustExec("INSERT INTO t VALUES " + values);
  auto r = Exec("UPDATE t SET v = v * 2 + grp WHERE grp >= 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected, kRows);
  auto check = Exec("SELECT id, v FROM t ORDER BY id");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  ASSERT_EQ(check.value().rows.size(), static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(check.value().rows[i],
              (Row{Value::Int(i), Value::Int(i * 2 + i % 3)}));
  }
}

// Null-extended rows belong to no table: the executor owns them. A
// three-way LEFT JOIN pinned to a block height must return the same rows on
// the row path and on the columnar path, whose scans also return rows no
// table holds.
TEST_F(SqlFixture, ThreeWayLeftJoinSameOnRowAndColumnarPaths) {
  MustExec("CREATE TABLE cust (id INT PRIMARY KEY, name TEXT)");
  MustExec("CREATE TABLE ord (id INT PRIMARY KEY, cust INT, amount INT)");
  MustExec("CREATE INDEX idx_ord_cust ON ord (cust)");
  MustExec("CREATE TABLE item (id INT PRIMARY KEY, ord INT, qty INT)");
  MustExec("CREATE INDEX idx_item_ord ON item (ord)");
  MustExec("INSERT INTO cust VALUES (1, 'ann'), (2, 'bo'), (3, 'cy'), "
           "(4, 'di'), (5, 'ed'), (6, 'fay')");
  MustExec("INSERT INTO ord VALUES (10, 1, 5), (11, 1, 6), (12, 2, 7), "
           "(13, 4, 8), (14, 99, 9)");
  MustExec("INSERT INTO item VALUES (100, 10, 1), (101, 10, 2), "
           "(102, 12, 3)");
  const BlockNum height = next_block_ - 1;

  ColumnStore store;
  HistoryBuilder builder(&db_, &store, {/*segment_blocks=*/1, ""});
  builder.Bootstrap(height);
  builder.Start();
  ASSERT_TRUE(builder.WaitForWatermark(height));

  std::atomic<uint64_t> vectorized{0};
  auto encode = [](const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& r : rs.rows) out.push_back(EncodeRow(r));
    return out;
  };
  auto query = [&](const std::string& sql, bool columnar) {
    TxnContext ctx(&db_, mgr()->Begin(Snapshot::AtBlockHeight(height)),
                   TxnMode::kInternal);
    ExecOptions opts;
    opts.columnar.enabled = columnar;
    opts.columnar.store = &store;
    opts.columnar.vectorized_scans = &vectorized;
    return engine_.Execute(&ctx, sql, {}, opts);
  };
  const std::string joins =
      " FROM cust c LEFT JOIN ord o ON c.id = o.cust "
      "LEFT JOIN item i ON o.id = i.ord ";
  const std::string queries[] = {
      "SELECT c.id, o.id, i.id, i.qty" + joins + "ORDER BY c.id, o.id, i.id",
      "SELECT *" + joins + "ORDER BY c.id, o.id, i.id",
      "SELECT c.name, COUNT(o.id), COUNT(i.id), SUM(i.qty)" + joins +
          "GROUP BY c.name ORDER BY c.name",
  };
  for (const std::string& sql : queries) {
    auto row = query(sql, false);
    auto col = query(sql, true);
    ASSERT_TRUE(row.ok()) << sql << " => " << row.status().ToString();
    ASSERT_TRUE(col.ok()) << sql << " => " << col.status().ToString();
    EXPECT_EQ(encode(row.value()), encode(col.value())) << sql;
    EXPECT_EQ(row.value().columns, col.value().columns) << sql;
  }
  EXPECT_EQ(vectorized.load(), 3u);  // no statement fell back to the rows

  auto rows = query(queries[0], true);
  ASSERT_TRUE(rows.ok());
  const Value null = Value::Null();
  auto i = [](int64_t v) { return Value::Int(v); };
  const std::vector<Row> want = {
      {i(1), i(10), i(100), i(1)}, {i(1), i(10), i(101), i(2)},
      {i(1), i(11), null, null},   {i(2), i(12), i(102), i(3)},
      {i(3), null, null, null},    {i(4), i(13), null, null},
      {i(5), null, null, null},    {i(6), null, null, null},
  };
  EXPECT_EQ(rows.value().rows, want);
  auto star = query(queries[1], true);
  ASSERT_TRUE(star.ok());
  ASSERT_EQ(star.value().rows.size(), want.size());
  EXPECT_EQ(star.value().rows[4].size(), 8u);  // cust + ord + item columns
  builder.Stop();
}

TEST_F(SqlFixture, IntegerSumOutOfRangeIsAnError) {
  MustExec("CREATE TABLE big (id INT PRIMARY KEY, v INT)");
  MustExec("INSERT INTO big VALUES (1, 9223372036854775807)");
  MustExec("INSERT INTO big VALUES (2, 1)");
  auto sum = Exec("SELECT SUM(v) FROM big");
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sum.status().ToString().find("integer out of range"),
            std::string::npos);
  // AVG sums in double; it has nothing to overflow.
  auto avg = Exec("SELECT AVG(v) FROM big");
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  // The sum is exact until the end: back in range, it is returned.
  MustExec("INSERT INTO big VALUES (3, -2)");
  sum = Exec("SELECT SUM(v) FROM big");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum.value().rows[0][0].AsInt(), INT64_MAX - 1);
  MustExec("INSERT INTO big VALUES (4, -9223372036854775807)");
  MustExec("INSERT INTO big VALUES (5, -9223372036854775807)");
  MustExec("INSERT INTO big VALUES (6, -3)");
  EXPECT_FALSE(Exec("SELECT SUM(v) FROM big").ok());
}

TEST_F(SqlFixture, CrossTypeKeysFollowOneRule) {
  // INT 1 = DOUBLE 1.0 and 0 = -0.0 under `=`, so every plan (index join,
  // hash join, nested loop), GROUP BY and DISTINCT must agree with it.
  MustExec("CREATE TABLE a (id INT PRIMARY KEY, x INT)");
  MustExec("CREATE TABLE b (id INT PRIMARY KEY, y DOUBLE)");
  MustExec("INSERT INTO a VALUES (1, 1)");
  MustExec("INSERT INTO a VALUES (2, 2)");
  MustExec("INSERT INTO b VALUES (1, 1.0)");
  MustExec("INSERT INTO b VALUES (2, 2)");
  const std::string join =
      "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y ORDER BY a.id";
  auto hash = Exec(join);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  auto nested = Exec(
      "SELECT a.id, b.id FROM a JOIN b ON a.x + 0 = b.y + 0 ORDER BY a.id");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  MustExec("CREATE INDEX idx_y ON b (y)");
  auto index = Exec(join);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(hash.value().rows.size(), 2u);
  EXPECT_EQ(hash.value().rows, nested.value().rows);
  EXPECT_EQ(hash.value().rows, index.value().rows);

  MustExec("CREATE TABLE g (id INT PRIMARY KEY, y DOUBLE)");
  int id = 0;
  for (const char* y : {"1.0", "2", "1", "-0.0", "0"}) {
    MustExec("INSERT INTO g VALUES (" + std::to_string(++id) + ", " + y + ")");
  }
  auto groups = Exec("SELECT y, COUNT(*) FROM g GROUP BY y ORDER BY y");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups.value().rows.size(), 3u);
  EXPECT_EQ(groups.value().rows[0][1].AsInt(), 2);  // -0.0 and 0
  EXPECT_EQ(groups.value().rows[1][1].AsInt(), 2);  // 1.0 and 1
  EXPECT_EQ(groups.value().rows[2][1].AsInt(), 1);  // 2
  auto ones = Exec("SELECT COUNT(*) FROM g WHERE y = 1");
  ASSERT_TRUE(ones.ok());
  EXPECT_EQ(ones.value().rows[0][0].AsInt(), 2);
  auto distinct = Exec("SELECT DISTINCT y FROM g");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct.value().rows.size(), 3u);
}

TEST_F(SqlFixture, NanEqualsNanAndSortsAboveEveryNumber) {
  // PostgreSQL's rule: NaN = NaN, NaN > every other number, and every NaN
  // bit pattern is the same value — for `=`, GROUP BY, DISTINCT, both join
  // plans and ORDER BY alike.
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  const Value neg_nan =
      Value::Double(-std::numeric_limits<double>::quiet_NaN());
  MustExec("CREATE TABLE n (id INT PRIMARY KEY, y DOUBLE)");
  MustExec("CREATE TABLE m (id INT PRIMARY KEY, z DOUBLE)");
  const std::vector<std::pair<const char*, Value>> rows = {
      {"n", nan}, {"n", Value::Double(5.0)}, {"n", neg_nan},
      {"m", Value::Int(5)}, {"m", nan}};
  int id = 0;
  for (const auto& [table, y] : rows) {
    auto r = Exec(std::string("INSERT INTO ") + table + " VALUES ($1, $2)",
                  {Value::Int(++id), y});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  auto count = [&](const std::string& where, const Value& param) {
    auto r = Exec("SELECT COUNT(*) FROM n WHERE " + where, {param});
    EXPECT_TRUE(r.ok()) << where << " => " << r.status().ToString();
    return r.ok() ? r.value().rows[0][0].AsInt() : -1;
  };
  EXPECT_EQ(count("y = $1", Value::Int(5)), 1);
  EXPECT_EQ(count("y = $1", Value::Int(7)), 0);
  EXPECT_EQ(count("y = $1", nan), 2);
  EXPECT_EQ(count("y > $1", Value::Double(1e300)), 2);
  EXPECT_EQ(count("y < $1", nan), 1);

  auto groups = Exec("SELECT y, COUNT(*) FROM n GROUP BY y ORDER BY y");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups.value().rows.size(), 2u);
  EXPECT_EQ(groups.value().rows[0][0].AsDouble(), 5.0);
  EXPECT_EQ(groups.value().rows[0][1].AsInt(), 1);
  EXPECT_TRUE(std::isnan(groups.value().rows[1][0].AsDouble()));
  EXPECT_EQ(groups.value().rows[1][1].AsInt(), 2);
  auto distinct = Exec("SELECT DISTINCT y FROM n");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  EXPECT_EQ(distinct.value().rows.size(), 2u);

  auto order = Exec("SELECT id FROM n ORDER BY y DESC, id");
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  ASSERT_EQ(order.value().rows.size(), 3u);
  EXPECT_EQ(order.value().rows[0][0].AsInt(), 1);  // NaNs first when DESC
  EXPECT_EQ(order.value().rows[1][0].AsInt(), 3);
  EXPECT_EQ(order.value().rows[2][0].AsInt(), 2);

  // Two NaNs of n match m's NaN, 5.0 matches INT 5: three pairs on the
  // hash join and on the index join.
  const std::string join =
      "SELECT n.id, m.id FROM n JOIN m ON n.y = m.z ORDER BY n.id, m.id";
  auto hash = Exec(join);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  MustExec("CREATE INDEX idx_z ON m (z)");
  auto index = Exec(join);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(hash.value().rows.size(), 3u);
  EXPECT_EQ(hash.value().rows, index.value().rows);
}

TEST_F(SqlFixture, DistinctDedupes) {
  SetUpAccounts();
  auto r = Exec("SELECT DISTINCT owner FROM accounts ORDER BY owner");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 3u);
}

TEST_F(SqlFixture, UpdateWithWhere) {
  SetUpAccounts();
  auto r = Exec("UPDATE accounts SET balance = balance + 10 WHERE "
                "owner = 'alice'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected, 2);
  auto check = Exec("SELECT SUM(balance) FROM accounts");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().Scalar().value().AsInt(), 670);
}

TEST_F(SqlFixture, DeleteWithWhere) {
  SetUpAccounts();
  auto r = Exec("DELETE FROM accounts WHERE balance < 100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected, 1);
  auto check = Exec("SELECT COUNT(*) FROM accounts");
  EXPECT_EQ(check.value().Scalar().value().AsInt(), 3);
}

TEST_F(SqlFixture, CheckConstraintBlocksViolation) {
  SetUpAccounts();
  auto r = Exec("UPDATE accounts SET balance = -5 WHERE id = 1");
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  auto ins = Exec("INSERT INTO accounts VALUES (9, 'dan', -1)");
  EXPECT_EQ(ins.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlFixture, PrimaryKeyDuplicateRejected) {
  SetUpAccounts();
  auto r = Exec("INSERT INTO accounts VALUES (1, 'dup', 0)");
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlFixture, NotNullViolationRejected) {
  SetUpAccounts();
  auto r = Exec("INSERT INTO accounts (id, balance) VALUES (9, 10)");
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlFixture, InsertColumnListAndNullDefaults) {
  SetUpAccounts();
  ASSERT_TRUE(Exec("INSERT INTO accounts (owner, id) VALUES ('dan', 9)").ok());
  auto r = Exec("SELECT balance FROM accounts WHERE id = 9");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().Scalar().value().is_null());
}

TEST_F(SqlFixture, DropTable) {
  SetUpAccounts();
  ASSERT_TRUE(Exec("DROP TABLE accounts").ok());
  EXPECT_FALSE(Exec("SELECT * FROM accounts").ok());
}

TEST_F(SqlFixture, DdlDeniedWhenDisallowed) {
  ExecOptions opts;
  opts.allow_ddl = false;
  auto r = Exec("CREATE TABLE t (id INT PRIMARY KEY)", {}, opts);
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(SqlFixture, NonDeterministicStatementRejected) {
  SetUpAccounts();
  auto r = Exec("SELECT random() FROM accounts");
  EXPECT_EQ(r.status().code(), StatusCode::kDeterminismViolation);
  auto u = Exec("UPDATE accounts SET balance = random() WHERE id = 1");
  EXPECT_EQ(u.status().code(), StatusCode::kDeterminismViolation);
}

// ---------- execute-order-in-parallel restrictions ----------

TEST_F(SqlFixture, EopRequiresIndexForPredicates) {
  SetUpAccounts();
  ExecOptions eop = ExecOptions::ExecuteOrderParallel();
  // balance is not indexed -> predicate scan must abort.
  auto r = Exec("SELECT id FROM accounts WHERE balance > 100 ORDER BY id", {},
                eop);
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);
  // id is the primary key -> fine.
  auto ok = Exec("SELECT id FROM accounts WHERE id = 2", {}, eop);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(SqlFixture, EopForbidsBlindWrites) {
  SetUpAccounts();
  ExecOptions eop = ExecOptions::ExecuteOrderParallel();
  EXPECT_EQ(Exec("UPDATE accounts SET balance = 0", {}, eop).status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(Exec("DELETE FROM accounts", {}, eop).status().code(),
            StatusCode::kNotSupported);
}

// ---------- provenance ----------

TEST_F(SqlFixture, ProvenanceSeesHistoryAndPseudoColumns) {
  SetUpAccounts();
  MustExec("UPDATE accounts SET balance = 111 WHERE id = 1");
  // Normal query sees one row for id 1.
  auto normal = Exec("SELECT balance FROM accounts WHERE id = 1");
  ASSERT_TRUE(normal.ok());
  EXPECT_EQ(normal.value().Scalar().value().AsInt(), 111);

  // Provenance sees both versions with their deleter metadata.
  auto prov = Provenance(
      "SELECT balance, deleter FROM accounts WHERE id = 1 ORDER BY balance");
  ASSERT_TRUE(prov.ok()) << prov.status().ToString();
  ASSERT_EQ(prov.value().rows.size(), 2u);
  EXPECT_EQ(prov.value().rows[0][0].AsInt(), 100);
  EXPECT_FALSE(prov.value().rows[0][1].is_null());  // old version deleted
  EXPECT_EQ(prov.value().rows[1][0].AsInt(), 111);
  EXPECT_TRUE(prov.value().rows[1][1].is_null());   // live version
}

TEST_F(SqlFixture, PseudoColumnsUnknownOutsideProvenance) {
  SetUpAccounts();
  auto r = Exec("SELECT xmin FROM accounts WHERE id = 1");
  EXPECT_FALSE(r.ok());  // paper §4.3: row headers unavailable to contracts
}

TEST_F(SqlFixture, SelectWithoutFrom) {
  auto r = Exec("SELECT 1 + 2, 'x'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.value().rows[0][1].AsText(), "x");
}

TEST_F(SqlFixture, CaseInProjection) {
  SetUpAccounts();
  auto r = Exec(
      "SELECT id, CASE WHEN balance >= 200 THEN 'rich' ELSE 'poor' END "
      "AS bucket FROM accounts ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows[0][1].AsText(), "poor");
  EXPECT_EQ(r.value().rows[1][1].AsText(), "rich");
}

TEST_F(SqlFixture, ComplexGroupShape) {
  // The paper's complex-group contract shape: aggregate over subgroups,
  // order by the aggregate, keep the max via LIMIT 1.
  SetUpAccounts();
  auto r = Exec(
      "SELECT owner, SUM(balance) AS total FROM accounts GROUP BY owner "
      "ORDER BY total DESC, owner ASC LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsText(), "alice");
  EXPECT_EQ(r.value().rows[0][1].AsInt(), 400);
}

}  // namespace
}  // namespace sql
}  // namespace brdb
