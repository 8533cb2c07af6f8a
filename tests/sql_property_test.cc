// Property-style SQL engine tests: randomized data sets checked against
// independently computed expectations, across seeds and sizes
// (parameterized sweeps), plus edge cases not covered by sql_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "common/rng.h"
#include "sql/eval.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace sql {
namespace {

class SqlHarness {
 public:
  SqlHarness() : engine_(&db_) {}

  Result<ResultSet> Exec(
      const std::string& sql, const std::vector<Value>& params = {},
      const std::map<std::string, Value>* named_params = nullptr) {
    TxnContext ctx(&db_,
                   db_.txn_manager()->Begin(
                       Snapshot::AtCsn(db_.txn_manager()->CurrentCsn())),
                   TxnMode::kNormal);
    auto r = engine_.Execute(&ctx, sql, params, ExecOptions(), named_params);
    if (!r.ok()) {
      ctx.Abort(r.status());
      return r;
    }
    Status st = ctx.CommitSerially(SsiPolicy::kAbortDuringCommit,
                                   next_block_++, 0, {ctx.id()});
    if (!st.ok()) return st;
    return r;
  }

  Database db_;
  SqlEngine engine_;
  BlockNum next_block_ = 1;
};

struct SweepParam {
  uint64_t seed;
  int rows;
};

class RandomizedAggregates : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomizedAggregates, AggregatesMatchManualComputation) {
  const SweepParam p = GetParam();
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)")
                  .ok());
  ASSERT_TRUE(h.Exec("CREATE INDEX idx_grp ON t (grp)").ok());

  Rng rng(p.seed);
  std::map<int64_t, std::vector<int64_t>> by_group;
  for (int i = 0; i < p.rows; ++i) {
    int64_t grp = static_cast<int64_t>(rng.Uniform(5));
    int64_t v = rng.UniformRange(-100, 100);
    by_group[grp].push_back(v);
    ASSERT_TRUE(h.Exec("INSERT INTO t VALUES ($1, $2, $3)",
                       {Value::Int(i), Value::Int(grp), Value::Int(v)})
                    .ok());
  }

  // Global aggregates.
  auto r = h.Exec("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t");
  ASSERT_TRUE(r.ok());
  int64_t expect_sum = 0, expect_min = INT64_MAX, expect_max = INT64_MIN;
  for (const auto& [g, vs] : by_group) {
    for (int64_t v : vs) {
      expect_sum += v;
      expect_min = std::min(expect_min, v);
      expect_max = std::max(expect_max, v);
    }
  }
  const Row& row = r.value().rows[0];
  EXPECT_EQ(row[0].AsInt(), p.rows);
  EXPECT_EQ(row[1].AsInt(), expect_sum);
  EXPECT_EQ(row[2].AsInt(), expect_min);
  EXPECT_EQ(row[3].AsInt(), expect_max);

  // Per-group aggregates via GROUP BY.
  auto g = h.Exec("SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp "
                  "ORDER BY grp");
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g.value().rows.size(), by_group.size());
  size_t idx = 0;
  for (const auto& [grp, vs] : by_group) {
    const Row& gr = g.value().rows[idx++];
    EXPECT_EQ(gr[0].AsInt(), grp);
    EXPECT_EQ(gr[1].AsInt(), static_cast<int64_t>(vs.size()));
    EXPECT_EQ(gr[2].AsInt(), std::accumulate(vs.begin(), vs.end(), int64_t{0}));
  }

  // Indexed range count agrees with a manual filter.
  auto c = h.Exec("SELECT COUNT(*) FROM t WHERE grp >= 1 AND grp <= 3");
  ASSERT_TRUE(c.ok());
  int64_t expect_range = 0;
  for (const auto& [grp, vs] : by_group) {
    if (grp >= 1 && grp <= 3) expect_range += static_cast<int64_t>(vs.size());
  }
  EXPECT_EQ(c.value().Scalar().value().AsInt(), expect_range);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomizedAggregates,
    ::testing::Values(SweepParam{1, 20}, SweepParam{2, 50},
                      SweepParam{3, 100}, SweepParam{42, 200}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.rows);
    });

class RandomizedSorting : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedSorting, OrderByMatchesStdSort) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE s (id INT PRIMARY KEY, a INT, b TEXT)")
                  .ok());
  Rng rng(GetParam());
  std::vector<std::pair<int64_t, std::string>> data;
  for (int i = 0; i < 60; ++i) {
    int64_t a = rng.UniformRange(0, 9);  // duplicates force tie-breaking
    std::string b = "s" + std::to_string(rng.Uniform(1000));
    data.emplace_back(a, b);
    ASSERT_TRUE(h.Exec("INSERT INTO s VALUES ($1, $2, $3)",
                       {Value::Int(i), Value::Int(a), Value::Text(b)})
                    .ok());
  }
  auto r = h.Exec("SELECT a, b FROM s ORDER BY a DESC, b ASC");
  ASSERT_TRUE(r.ok());
  std::sort(data.begin(), data.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  ASSERT_EQ(r.value().rows.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(r.value().rows[i][0].AsInt(), data[i].first) << i;
    EXPECT_EQ(r.value().rows[i][1].AsText(), data[i].second) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSorting,
                         ::testing::Values(7, 11, 13));

// ---------- one key rule: no plan changes a result ----------

// A random DOUBLE-column key: INT and DOUBLE values that compare equal
// (1 and 1.0, 0 and -0.0), values no INT equals (k + 0.5), and NULL.
Value RandomKey(Rng* rng) {
  const int64_t k = static_cast<int64_t>(rng->Uniform(7)) - 3;
  switch (rng->Uniform(6)) {
    case 0: return Value::Int(k);
    case 1: return Value::Double(static_cast<double>(k));
    case 2: return Value::Double(static_cast<double>(k) + 0.5);
    case 3: return Value::Double(-0.0);
    case 4: return Value::Int(0);
    default: return Value::Null();
  }
}

std::vector<std::string> Encoded(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const Row& r : rs.rows) out.push_back(EncodeRow(r));
  return out;
}

class CrossTypeKeys : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrossTypeKeys, JoinGroupAndDistinctAgreeWithEquality) {
  const SweepParam p = GetParam();
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE a (id INT PRIMARY KEY, x DOUBLE)").ok());
  ASSERT_TRUE(h.Exec("CREATE TABLE b (id INT PRIMARY KEY, y DOUBLE)").ok());
  Rng rng(p.seed);
  std::vector<Value> xs, ys;
  for (int i = 0; i < p.rows; ++i) {
    xs.push_back(RandomKey(&rng));
    ys.push_back(RandomKey(&rng));
    ASSERT_TRUE(h.Exec("INSERT INTO a VALUES ($1, $2)", {Value::Int(i), xs[i]})
                    .ok());
    ASSERT_TRUE(h.Exec("INSERT INTO b VALUES ($1, $2)", {Value::Int(i), ys[i]})
                    .ok());
  }
  // The oracle: every (a.id, b.id) whose keys are non-null and `=`.
  std::vector<std::pair<int64_t, int64_t>> expect;
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.rows; ++j) {
      if (!xs[i].is_null() && !ys[j].is_null() && xs[i] == ys[j]) {
        expect.emplace_back(i, j);
      }
    }
  }
  auto pairs = [](const ResultSet& rs) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& r : rs.rows) out.emplace_back(r[0].AsInt(), r[1].AsInt());
    return out;
  };
  const std::string kJoin =
      "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y ORDER BY a.id, b.id";
  const std::string kLeftJoin =
      "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y ORDER BY a.id, b.id";
  auto hash = h.Exec(kJoin);
  auto hash_left = h.Exec(kLeftJoin);
  // Computed keys are no equi-join key: this is the nested loop.
  auto nested = h.Exec(
      "SELECT a.id, b.id FROM a JOIN b ON a.x + 0 = b.y + 0 "
      "ORDER BY a.id, b.id");
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  ASSERT_TRUE(hash_left.ok()) << hash_left.status().ToString();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(pairs(hash.value()), expect);
  EXPECT_EQ(pairs(nested.value()), expect);

  // GROUP BY, DISTINCT and WHERE y = key must split b the same way, without
  // the index on y and with it.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      ASSERT_TRUE(h.Exec("CREATE INDEX idx_y ON b (y)").ok());
      auto index = h.Exec(kJoin);
      auto index_left = h.Exec(kLeftJoin);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      ASSERT_TRUE(index_left.ok()) << index_left.status().ToString();
      EXPECT_EQ(pairs(index.value()), expect);
      EXPECT_EQ(Encoded(index_left.value()), Encoded(hash_left.value()));
    }
    auto groups = h.Exec("SELECT y, COUNT(*) FROM b GROUP BY y");
    auto distinct = h.Exec("SELECT DISTINCT y FROM b");
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
    ResultSet group_keys;
    int64_t total = 0;
    for (const Row& g : groups.value().rows) {
      group_keys.rows.push_back({g[0]});
      total += g[1].AsInt();
      auto count =
          g[0].is_null()
              ? h.Exec("SELECT COUNT(*) FROM b WHERE y IS NULL")
              : h.Exec("SELECT COUNT(*) FROM b WHERE y = $1", {g[0]});
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(count.value().Scalar().value().AsInt(), g[1].AsInt())
          << "pass " << pass << " key " << g[0].ToString();
    }
    EXPECT_EQ(total, p.rows);
    EXPECT_EQ(Encoded(distinct.value()), Encoded(group_keys));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrossTypeKeys,
    ::testing::Values(SweepParam{5, 12}, SweepParam{6, 40},
                      SweepParam{7, 90}, SweepParam{8, 150}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.rows);
    });

// ---------- bound column references: no plan changes a result ----------

// The index join (right key indexed) and the hash join (no index) over the
// same random rows return the same multiset of rows, or the same error, for
// every ON clause: qualified and unqualified names (some ambiguous, some
// unknown), NULL and mixed INT/DOUBLE keys, INNER and LEFT joins. A lone
// equi conjunct takes the path that skips ON evaluation on both plans.
class JoinPlanIndependence : public ::testing::TestWithParam<SweepParam> {};

TEST_P(JoinPlanIndependence, IndexAndHashJoinAgree) {
  const SweepParam p = GetParam();
  SqlHarness indexed, plain;
  for (SqlHarness* h : {&indexed, &plain}) {
    ASSERT_TRUE(h->Exec("CREATE TABLE l (id INT PRIMARY KEY, a DOUBLE, "
                        "k INT, tag TEXT)")
                    .ok());
    ASSERT_TRUE(h->Exec("CREATE TABLE r (id INT PRIMARY KEY, b DOUBLE, "
                        "k INT, note TEXT)")
                    .ok());
  }
  ASSERT_TRUE(indexed.Exec("CREATE INDEX idx_b ON r (b)").ok());
  ASSERT_TRUE(indexed.Exec("CREATE INDEX idx_k ON r (k)").ok());

  Rng rng(p.seed);
  auto small_int = [&rng]() {
    return rng.Uniform(5) == 0 ? Value::Null()
                               : Value::Int(rng.UniformRange(-1, 4));
  };
  auto text = [&rng]() {
    const uint64_t t = rng.Uniform(4);
    return t == 0 ? Value::Null() : Value::Text("t" + std::to_string(t));
  };
  auto insert = [&](const char* sql, const std::vector<Value>& row) {
    for (SqlHarness* h : {&indexed, &plain}) {
      auto r = h->Exec(sql, row);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  for (int i = 0; i < p.rows; ++i) {
    insert("INSERT INTO l VALUES ($1, $2, $3, $4)",
           {Value::Int(i), RandomKey(&rng), small_int(), text()});
  }
  for (int i = 0; i < p.rows + 8; ++i) {
    insert("INSERT INTO r VALUES ($1, $2, $3, $4)",
           {Value::Int(i), RandomKey(&rng), small_int(), text()});
  }

  const char* const kOn[] = {
      "l.a = r.b", "r.b = l.a", "a = b", "a = r.b", "l.k = r.k",
      "k = r.k",                          // ambiguous left key
      "r.k = k",                          // ambiguous left key, flipped
      "l.k = r.b", "l.a = r.k",           // INT against DOUBLE keys
      "l.tag = r.b",                      // TEXT against DOUBLE: no match
      "l.a = r.b AND r.note <> 't1'",     // ON evaluated on the posting
      "l.k = r.k AND l.tag = r.note",
      "l.k = r.k AND r.note > 1",         // cross-type error on a match
      "l.a = r.b AND nope = 1",           // unknown column on a match
      "r.b = l.a + r.id",                 // key does not resolve on the left
      "l.a = r.bogus",                    // no equi key: nested loop
      "r.b = l.a * 1",                    // computed left key
  };
  const char* const kWhere[] = {"", " WHERE r.note IS NULL",
                                " WHERE l.tag <> 't2' OR r.k > 2",
                                " WHERE id >= 0"};  // ambiguous
  const char* const kItems[] = {"l.id, r.id, r.b", "*"};
  auto sorted = [](const ResultSet& rs) {
    std::vector<std::string> rows = Encoded(rs);
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  int errors = 0, results = 0;
  for (const char* on : kOn) {
    for (const char* kind : {"JOIN", "LEFT JOIN"}) {
      for (const char* where : kWhere) {
        for (const char* items : kItems) {
          const std::string sql = std::string("SELECT ") + items +
                                  " FROM l " + kind + " r ON " + on + where;
          auto via_index = indexed.Exec(sql);
          auto via_hash = plain.Exec(sql);
          ASSERT_EQ(via_index.status().ToString(),
                    via_hash.status().ToString())
              << sql;
          if (!via_index.ok()) {
            ++errors;
            continue;
          }
          ++results;
          EXPECT_EQ(sorted(via_index.value()), sorted(via_hash.value()))
              << sql;
        }
      }
    }
  }
  EXPECT_GT(results, 0);
  EXPECT_GT(errors, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, JoinPlanIndependence,
    ::testing::Values(SweepParam{21, 0}, SweepParam{22, 6},
                      SweepParam{23, 25}, SweepParam{24, 60}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.rows);
    });

// ---------- comparisons read their operands in place ----------

// A comparison whose operands are both leaves (literal, bound column,
// provided $n) compares them in place; any other operand is evaluated into a
// copy first. The two must be indistinguishable: every statement spelled
// with leaves returns the same rows, or the same error text, as the same
// statement with an operand wrapped into a non-leaf that yields the same
// Value (COALESCE(x), or x + 0 / x || '' where the type allows). Operands
// cover NULL, NaN, INT against DOUBLE, TEXT and BOOL (cross-type errors),
// ambiguous and unknown columns, $n out of range, $name procedure
// variables bound and unbound, and post-aggregation HAVING/ORDER BY.
class LeafComparisons : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LeafComparisons, LeafAndComputedOperandsAgree) {
  const SweepParam p = GetParam();
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, k INT, x DOUBLE, "
                     "c TEXT, b BOOL)")
                  .ok());
  ASSERT_TRUE(h.Exec("CREATE TABLE u (id INT PRIMARY KEY, k INT, c TEXT)")
                  .ok());
  Rng rng(p.seed);
  auto maybe_null = [&rng](Value v) {
    return rng.Uniform(5) == 0 ? Value::Null() : std::move(v);
  };
  for (int i = 0; i < p.rows; ++i) {
    Value x = rng.Uniform(8) == 0 ? Value::Double(std::nan(""))
                                  : RandomKey(&rng);
    ASSERT_TRUE(
        h.Exec("INSERT INTO t VALUES ($1, $2, $3, $4, $5)",
               {Value::Int(i), maybe_null(Value::Int(rng.UniformRange(-2, 3))),
                x, maybe_null(Value::Text("t" + std::to_string(rng.Uniform(3)))),
                maybe_null(Value::Bool(rng.Uniform(2) == 0))})
            .ok());
    ASSERT_TRUE(h.Exec("INSERT INTO u VALUES ($1, $2, $3)",
                       {Value::Int(i + 1),
                        maybe_null(Value::Int(rng.UniformRange(-2, 3))),
                        maybe_null(Value::Text("t" + std::to_string(
                                                         rng.Uniform(3))))})
                    .ok());
  }

  // Each leaf with the non-leaf spellings that yield the same Value. No
  // operand names an indexed column (t.id, u.id): `id = 't1'` would become
  // an index range that never evaluates the comparison, `COALESCE(id) =
  // 't1'` a full scan that raises on the first row. k and c are ambiguous
  // once u is joined.
  struct Operand {
    std::string leaf;
    std::vector<std::string> computed;
  };
  const std::vector<Operand> kOperands = {
      {"k", {"COALESCE(k)", "(k + 0)"}},
      {"t.k", {"(t.k + 0)"}},
      {"x", {"COALESCE(x)", "(x + 0)"}},
      {"c", {"COALESCE(c)", "(c || '')"}},
      {"b", {"COALESCE(b)"}},
      {"u.c", {"(u.c || '')"}},
      {"2", {"(2 + 0)"}},
      {"0.5", {"COALESCE(0.5)"}},
      {"'t1'", {"('t1' || '')"}},
      {"TRUE", {"COALESCE(TRUE)"}},
      {"NULL", {"COALESCE(NULL)"}},
      {"$1", {"COALESCE($1)"}},
      {"$2", {"COALESCE($2)"}},
      {"$3", {"COALESCE($3)"}},  // never provided
      {"$v", {"COALESCE($v)"}},  // a bound procedure variable
      {"$w", {"COALESCE($w)"}},  // an unbound one
      {"nope", {"COALESCE(nope)"}},
  };
  const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto random_param = [&rng]() {
    switch (rng.Uniform(6)) {
      case 0: return Value::Null();
      case 1: return Value::Double(std::nan(""));
      case 2: return Value::Text("t" + std::to_string(rng.Uniform(3)));
      case 3: return Value::Bool(rng.Uniform(2) == 0);
      case 4: return Value::Double(static_cast<double>(rng.UniformRange(-2, 3)));
      default: return Value::Int(rng.UniformRange(-2, 3));
    }
  };

  int errors = 0, results = 0;
  for (int n = 0; n < 150; ++n) {
    const Operand& a = kOperands[rng.Uniform(kOperands.size())];
    const Operand& b = kOperands[rng.Uniform(kOperands.size())];
    const std::string op = kOps[rng.Uniform(6)];
    const bool join = rng.Uniform(2) == 0;
    const std::string from =
        join ? " FROM t JOIN u ON t.id = u.id" : " FROM t";
    std::vector<Value> params = {random_param(), random_param()};
    std::map<std::string, Value> vars = {{"v", random_param()}};
    auto statements = [&](const std::string& l, const std::string& r) {
      const std::string cmp = l + " " + op + " " + r;
      return std::vector<std::string>{
          "SELECT t.id" + from + " WHERE " + cmp + " ORDER BY t.id",
          "SELECT t.id, " + cmp + from + " ORDER BY t.id",
          "SELECT t.id" + from + " ORDER BY " + cmp + ", t.id",
          "SELECT COUNT(*)" + from + " WHERE NOT (" + cmp + ") OR t.id < 0",
          "SELECT t.id, u.id FROM t LEFT JOIN u ON t.k = u.k AND " + cmp +
              " ORDER BY t.id, u.id",
          // Post-aggregation: HAVING and ORDER BY over an aggregate.
          "SELECT t.k, COUNT(*) AS n" + from + " GROUP BY t.k HAVING " +
              cmp + " OR COUNT(*) " + op + " 2 ORDER BY n " +
              (op == "<" ? "DESC" : "ASC") + ", t.k",
      };
    };
    const std::vector<std::string> leaf = statements(a.leaf, b.leaf);
    std::vector<std::vector<std::string>> variants;
    for (const std::string& ca : a.computed) {
      variants.push_back(statements(ca, b.leaf));
    }
    for (const std::string& cb : b.computed) {
      variants.push_back(statements(a.leaf, cb));
    }
    variants.push_back(statements(a.computed[0], b.computed[0]));
    for (size_t q = 0; q < leaf.size(); ++q) {
      auto want = h.Exec(leaf[q], params, &vars);
      if (want.ok()) {
        ++results;
      } else {
        ++errors;
      }
      for (const auto& v : variants) {
        auto got = h.Exec(v[q], params, &vars);
        ASSERT_EQ(got.status().ToString(), want.status().ToString())
            << leaf[q] << "  vs  " << v[q];
        if (want.ok()) {
          EXPECT_EQ(Encoded(got.value()), Encoded(want.value()))
              << leaf[q] << "  vs  " << v[q];
        }
      }
    }
    // A procedure's REQUIRE evaluates with no row at all.
    auto expr = [&](const std::string& l, const std::string& r) {
      auto e = ParseExpression(l + " " + op + " " + r);
      EXPECT_TRUE(e.ok()) << e.status().ToString();
      EvalContext ctx;
      ctx.params = &params;
      ctx.named_params = &vars;
      auto v = Eval(*e.value(), ctx);
      return v.ok() ? EncodeRow({v.value()}) : v.status().ToString();
    };
    EXPECT_EQ(expr(a.computed[0], b.leaf), expr(a.leaf, b.leaf))
        << a.leaf << " " << op << " " << b.leaf;
  }
  EXPECT_GT(results, 0);
  EXPECT_GT(errors, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LeafComparisons,
    ::testing::Values(SweepParam{31, 0}, SweepParam{32, 5},
                      SweepParam{33, 20}, SweepParam{34, 40}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.rows);
    });

// ---------- additional edge cases ----------

TEST(SqlEdgeCases, InsertSelectCopiesFilteredRows) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE src (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(h.Exec("CREATE TABLE dst (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)").ok());
  auto r = h.Exec("INSERT INTO dst SELECT id, v FROM src WHERE v > 15 "
                  "ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().affected, 2);
  auto check = h.Exec("SELECT SUM(v) FROM dst");
  EXPECT_EQ(check.value().Scalar().value().AsInt(), 50);
}

TEST(SqlEdgeCases, ThreeWayJoin) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE a (id INT PRIMARY KEY, b_id INT)").ok());
  ASSERT_TRUE(h.Exec("CREATE TABLE b (id INT PRIMARY KEY, c_id INT)").ok());
  ASSERT_TRUE(h.Exec("CREATE TABLE c (id INT PRIMARY KEY, name TEXT)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO a VALUES (1, 10), (2, 20)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO b VALUES (10, 100), (20, 200)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO c VALUES (100, 'x'), (200, 'y')").ok());
  auto r = h.Exec(
      "SELECT a.id, c.name FROM a JOIN b ON a.b_id = b.id "
      "JOIN c ON b.c_id = c.id ORDER BY a.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_EQ(r.value().rows[0][1].AsText(), "x");
  EXPECT_EQ(r.value().rows[1][1].AsText(), "y");
}

TEST(SqlEdgeCases, BetweenAndInUseIndexRanges) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.Exec("INSERT INTO t VALUES ($1, $2)",
                       {Value::Int(i), Value::Int(i)})
                    .ok());
  }
  auto between = h.Exec("SELECT COUNT(*) FROM t WHERE id BETWEEN 5 AND 9");
  ASSERT_TRUE(between.ok());
  EXPECT_EQ(between.value().Scalar().value().AsInt(), 5);
  auto inlist = h.Exec("SELECT COUNT(*) FROM t WHERE id IN (1, 3, 99)");
  ASSERT_TRUE(inlist.ok());
  EXPECT_EQ(inlist.value().Scalar().value().AsInt(), 2);
}

TEST(SqlEdgeCases, UpdateSettingNull) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO t VALUES (1, 5)").ok());
  ASSERT_TRUE(h.Exec("UPDATE t SET v = NULL WHERE id = 1").ok());
  auto r = h.Exec("SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().Scalar().value().is_null());
  // NULL is excluded from aggregates but counted by COUNT(*).
  auto agg = h.Exec("SELECT COUNT(*), COUNT(v), SUM(v) FROM t");
  EXPECT_EQ(agg.value().rows[0][0].AsInt(), 1);
  EXPECT_EQ(agg.value().rows[0][1].AsInt(), 0);
  EXPECT_TRUE(agg.value().rows[0][2].is_null());
}

TEST(SqlEdgeCases, ErrorsAreReported) {
  SqlHarness h;
  EXPECT_EQ(h.Exec("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  // Unknown columns fail statically, even on an empty table.
  EXPECT_FALSE(h.Exec("SELECT nope FROM t").ok());
  EXPECT_FALSE(h.Exec("SELECT id FROM t WHERE nope = 1").ok());
  EXPECT_FALSE(h.Exec("INSERT INTO t VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(h.Exec("UPDATE t SET nope = 1 WHERE id = 1").ok());
  // Typing is dynamic (SQLite-style): cross-type comparisons error once a
  // row is actually evaluated.
  ASSERT_TRUE(h.Exec("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(h.Exec("SELECT id FROM t WHERE id + 'text' = 1").ok());
}

TEST(SqlEdgeCases, ColumnCheckConstraint) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, "
                     "pct INT CHECK (pct >= 0 AND pct <= 100))")
                  .ok());
  EXPECT_TRUE(h.Exec("INSERT INTO t VALUES (1, 50)").ok());
  EXPECT_EQ(h.Exec("INSERT INTO t VALUES (2, 101)").status().code(),
            StatusCode::kConstraintViolation);
  // NULL passes CHECK (SQL semantics).
  EXPECT_TRUE(h.Exec("INSERT INTO t VALUES (3, NULL)").ok());
}

TEST(SqlEdgeCases, UniqueColumnConstraint) {
  SqlHarness h;
  ASSERT_TRUE(
      h.Exec("CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO u VALUES (1, 'a@x.com')").ok());
  EXPECT_EQ(h.Exec("INSERT INTO u VALUES (2, 'a@x.com')").status().code(),
            StatusCode::kConstraintViolation);
  // Distinct values and NULLs are fine (NULL is never a duplicate).
  EXPECT_TRUE(h.Exec("INSERT INTO u VALUES (3, 'b@x.com')").ok());
  EXPECT_TRUE(h.Exec("INSERT INTO u VALUES (4, NULL)").ok());
  EXPECT_TRUE(h.Exec("INSERT INTO u VALUES (5, NULL)").ok());
}

TEST(SqlEdgeCases, DoubleArithmeticAndRounding) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE d (id INT PRIMARY KEY, x DOUBLE)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO d VALUES (1, 2.5), (2, 3.25)").ok());
  auto r = h.Exec("SELECT SUM(x), AVG(x), ROUND(SUM(x)) FROM d");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().rows[0][0].AsDouble(), 5.75);
  EXPECT_DOUBLE_EQ(r.value().rows[0][1].AsDouble(), 2.875);
  EXPECT_DOUBLE_EQ(r.value().rows[0][2].AsDouble(), 6.0);
}

TEST(SqlEdgeCases, FetchFirstSyntaxEndToEnd) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(h.Exec("INSERT INTO t VALUES ($1)", {Value::Int(i)}).ok());
  }
  auto r = h.Exec("SELECT id FROM t ORDER BY id DESC FETCH FIRST 3 ROWS ONLY");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 3u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 9);
}

TEST(SqlEdgeCases, DeleteThenReinsertSameKey) {
  SqlHarness h;
  ASSERT_TRUE(h.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(h.Exec("INSERT INTO t VALUES (1, 10)").ok());
  ASSERT_TRUE(h.Exec("DELETE FROM t WHERE id = 1").ok());
  // The key is free again after the delete committed.
  ASSERT_TRUE(h.Exec("INSERT INTO t VALUES (1, 20)").ok());
  auto r = h.Exec("SELECT v FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Scalar().value().AsInt(), 20);
}

}  // namespace
}  // namespace sql
}  // namespace brdb
