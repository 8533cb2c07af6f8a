// Analytics parity (the columnar invariant): every analytical query must
// return byte-identical results on the vectorized columnar path
// (QueryPath::kDefault) and the row-store path (QueryPath::kForceRow) at
// the same pinned snapshot height — over a randomized history of inserts,
// updates and deletes, at multiple snapshot heights (some fully sealed,
// some with the builder lagging so the row-store tail tops up the scan),
// at pipeline depths {1, 4}.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/blockchain_network.h"

namespace brdb {
namespace {

NetworkOptions ParityOptions(size_t pipeline_depth) {
  NetworkOptions opts;
  opts.orgs = {"org1"};
  opts.flow = TransactionFlow::kOrderThenExecute;
  opts.orderer_type = OrdererType::kSolo;
  opts.orderer_config.block_size = 4;
  opts.orderer_config.block_timeout_us = 20000;
  opts.profile = NetworkProfile::Instant();
  opts.node.executor_threads = 4;
  opts.node.pipeline_depth = pipeline_depth;
  opts.node.analytics_segment_blocks = 2;  // seal aggressively: many segments
  return opts;
}

Status RegisterContracts(BlockchainNetwork* net) {
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "put", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO kv VALUES ($1, $2, $3)",
                              ctx->args());
        return r.ok() ? Status::OK() : r.status();
      }));
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "bump", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("UPDATE kv SET v = v + 1 WHERE k = $1",
                              {ctx->args()[0]});
        return r.ok() ? Status::OK() : r.status();
      }));
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "retag", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("UPDATE kv SET tag = $2 WHERE k = $1",
                              ctx->args());
        return r.ok() ? Status::OK() : r.status();
      }));
  BRDB_RETURN_NOT_OK(net->RegisterNativeContract(
      "del", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("DELETE FROM kv WHERE k = $1", ctx->args());
        return r.ok() ? Status::OK() : r.status();
      }));
  return net->RegisterNativeContract(
      "wtag", [](ContractContext* ctx) -> Status {
        auto r = ctx->Execute("INSERT INTO tags VALUES ($1, $2)",
                              ctx->args());
        return r.ok() ? Status::OK() : r.status();
      });
}

/// Byte-exact signature of a result set: column names + encoded rows.
std::string Signature(const sql::ResultSet& rs) {
  std::ostringstream out;
  for (const auto& c : rs.columns) out << c << "|";
  out << "\n";
  for (const Row& row : rs.rows) {
    std::string enc = EncodeRow(row);
    out << enc.size() << ":" << enc << "\n";
  }
  return out.str();
}

struct ParityQuery {
  std::string sql;
  std::vector<std::vector<Value>> param_sets;
};

std::vector<ParityQuery> Queries() {
  return {
      {"SELECT * FROM kv", {{}}},
      {"SELECT k, v FROM kv WHERE k >= $1 AND k <= $2",
       {{Value::Int(20), Value::Int(90)}, {Value::Int(150), Value::Int(260)}}},
      {"SELECT tag, COUNT(*) AS n, SUM(v) AS total FROM kv "
       "GROUP BY tag ORDER BY tag ASC",
       {{}}},
      {"SELECT kv.k, t.w FROM kv JOIN tags t ON kv.tag = t.tag "
       "WHERE kv.k <= $1",
       {{Value::Int(200)}}},
      {"SELECT * FROM tags", {{}}},
  };
}

void CheckParity(DatabaseNode* node, const std::string& user,
                 const std::string& stage) {
  for (const ParityQuery& q : Queries()) {
    for (const auto& params : q.param_sets) {
      auto row_path = node->Query(user, q.sql, params, QueryPath::kForceRow);
      auto col_path = node->Query(user, q.sql, params, QueryPath::kDefault);
      ASSERT_EQ(row_path.ok(), col_path.ok())
          << stage << ": status diverged for " << q.sql << " — row="
          << row_path.status().ToString()
          << " columnar=" << col_path.status().ToString();
      if (!row_path.ok()) continue;
      EXPECT_EQ(Signature(row_path.value()), Signature(col_path.value()))
          << stage << ": results diverged for " << q.sql;
    }
  }
}

void RunMatrixCell(size_t pipeline_depth) {
  auto net = BlockchainNetwork::Create(ParityOptions(pipeline_depth));
  ASSERT_TRUE(RegisterContracts(net.get()).ok());
  ASSERT_TRUE(net->Start().ok());
  ASSERT_TRUE(net->DeployContract(
                     "CREATE TABLE kv (k INT PRIMARY KEY, v INT, tag TEXT)")
                  .ok());
  ASSERT_TRUE(
      net->DeployContract("CREATE TABLE tags (tag TEXT PRIMARY KEY, w INT)")
          .ok());
  Session* writer = net->CreateSession("org1", "writer");
  net->CreateSession("org1", "reader");

  static const char* kTags[] = {"red", "green", "blue", "amber"};
  for (int i = 0; i < 4; ++i) {
    TxnHandle t =
        writer->Submit("wtag", {Value::Text(kTags[i]), Value::Int(i)});
    ASSERT_TRUE(t.submit_status().ok());
    ASSERT_TRUE(t.Wait(30000000).ok());
  }

  Rng rng(0xc01a + pipeline_depth * 131 + 1);
  DatabaseNode* node = net->node(0);
  uint64_t last_vectorized = 0;
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<TxnHandle> txns;
    for (int i = 0; i < 30; ++i) {
      int64_t k = static_cast<int64_t>(rng.Uniform(300));
      uint64_t op = rng.Uniform(100);
      auto submit = [&]() -> TxnHandle {
        if (op < 50) {
          return writer->Submit(
              "put", {Value::Int(k),
                      Value::Int(static_cast<int64_t>(rng.Uniform(1000))),
                      Value::Text(kTags[rng.Uniform(4)])});
        }
        if (op < 70) return writer->Submit("bump", {Value::Int(k)});
        if (op < 85) {
          return writer->Submit(
              "retag", {Value::Int(k), Value::Text(kTags[rng.Uniform(4)])});
        }
        return writer->Submit("del", {Value::Int(k)});
      };
      TxnHandle t = submit();
      ASSERT_TRUE(t.submit_status().ok()) << t.submit_status().ToString();
      txns.push_back(t);
    }
    // Commit/abort decisions are the workload's business (duplicate-key
    // puts abort deterministically, concurrent bumps may conflict); parity
    // only needs a settled height.
    for (auto& t : txns) {
      Status st = t.Wait(30000000);
      ASSERT_NE(st.code(), StatusCode::kUnavailable) << st.ToString();
    }
    net->WaitIdle();

    std::string stage = "pipeline=" + std::to_string(pipeline_depth) +
                        " batch=" + std::to_string(batch);
    if (batch % 2 == 0) {
      // Fully sealed history: the scan reads only columnar segments.
      ASSERT_TRUE(node->history_builder()->WaitForWatermark(node->Height()))
          << stage;
    }  // odd batches: builder may lag — sealed segments + row-store tail
    CheckParity(node, "reader", stage);

    uint64_t vectorized = node->metrics()->Snapshot().vectorized_scans;
    EXPECT_GT(vectorized, last_vectorized)
        << stage << ": columnar path did not actually run";
    last_vectorized = vectorized;
  }
  net->Stop();
}

TEST(AnalyticsParityTest, Pipeline1) { RunMatrixCell(1); }
TEST(AnalyticsParityTest, Pipeline4) { RunMatrixCell(4); }

}  // namespace
}  // namespace brdb
