// SqlEngine: executes parsed statements against a Database through a
// TxnContext, honoring MVCC visibility, SSI bookkeeping and the paper's
// determinism restrictions.
//
// Physical operators: index-range scan (sargable conjunct extraction),
// primary-key-ordered full scan, index nested-loop join, hash join, hash
// aggregation, stable sort + limit, distinct. Provenance transactions see
// the xmin/xmax/creator/deleter pseudo-columns of every table (§4.2).
#ifndef BRDB_SQL_EXECUTOR_H_
#define BRDB_SQL_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/columnar.h"
#include "storage/database.h"
#include "txn/txn_context.h"

namespace brdb {
namespace sql {

/// Rows + output column names returned by a statement.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected = 0;  ///< rows written by INSERT/UPDATE/DELETE

  /// Single-value convenience for tests and contracts.
  Result<Value> Scalar() const {
    if (rows.size() != 1 || rows[0].size() != 1) {
      return Status::InvalidArgument("result is not a single scalar");
    }
    return rows[0][0];
  }
};

/// Execution-mode knobs. The execute-order-in-parallel flow uses the strict
/// settings (paper §3.4.3 and §4.3).
struct ExecOptions {
  /// Predicate reads must be served by an index; otherwise the transaction
  /// aborts (EOP-only restriction, §4.3).
  bool require_index_for_predicates = false;

  /// Reject UPDATE/DELETE without a WHERE clause (EOP forbids blind
  /// updates, §3.4.3).
  bool forbid_blind_writes = false;

  /// LIMIT / FETCH FIRST requires ORDER BY (determinism, §4.3).
  bool require_order_by_with_limit = true;

  /// Permit CREATE/DROP statements (the node layer disables this for
  /// direct client statements; DDL must go through deployment contracts).
  bool allow_ddl = true;

  /// Columnar analytics path. Engaged only for SELECTs running in a
  /// read-only kInternal transaction pinned to a block-height snapshot
  /// (core/node.cc sets this up for client queries over blockchain
  /// tables): base-table scans are served from the ColumnStore's sealed
  /// segments + row-store tail instead of the MVCC scan, joins switch the
  /// per-left-row index probe for a vectorized hash join where provably
  /// result-identical, and aggregation runs slot-resolved. Results are
  /// byte-identical to the row path by construction; statements whose
  /// shape cannot be proven safe fall back to the row path (counted).
  /// The scan height is the transaction's pinned block-height snapshot, so
  /// scan and MVCC visibility can never diverge.
  struct Columnar {
    bool enabled = false;
    const ColumnStore* store = nullptr;
    std::atomic<uint64_t>* vectorized_scans = nullptr;   ///< SELECTs via columnar
    std::atomic<uint64_t>* row_fallback_scans = nullptr; ///< eligible, fell back
    std::atomic<uint64_t>* zone_map_pruned = nullptr;    ///< segments skipped
  };
  Columnar columnar;

  static ExecOptions OrderThenExecute() { return ExecOptions{}; }
  static ExecOptions ExecuteOrderParallel() {
    ExecOptions o;
    o.require_index_for_predicates = true;
    o.forbid_blind_writes = true;
    return o;
  }
};

/// Walk every expression of a parsed statement and reject
/// non-deterministic constructs (used at execution and at contract deploy
/// time).
Status CheckStatementDeterminism(const Statement& stmt);

/// The table schema a CREATE TABLE statement declares (columns and CHECK
/// constraints; secondary indexes come from CREATE INDEX).
TableSchema SchemaOf(const CreateTableStmt& stmt);

/// Statement metadata derived once at Prepare() time and consumed by
/// client-side parameter binding (core/session.h).
struct PreparedInfo {
  int param_count = 0;
  /// Expected type per positional parameter ($1 at index 0); kNull when no
  /// type could be inferred from the schema (the parameter binds freely).
  std::vector<ValueType> param_types;
  StatementType type = StatementType::kSelect;
};

/// Strict binding check shared by server-side plans and client-side
/// prepared statements: exact arity, NULL binds anywhere, INT binds where
/// DOUBLE is expected, anything else must match the inferred type.
Status CheckParamBinding(const PreparedInfo& info,
                         const std::vector<Value>& params);

/// One sargable conjunct of a WHERE clause, normalized at prepare time to
/// `column op constant` (the constant side may contain $parameters and is
/// evaluated per execution).
struct SargConjunct {
  int column = -1;                 ///< schema position of an INDEXED column
  BinOp op = BinOp::kEq;           ///< normalized: column on the left
  const Expr* constant = nullptr;  ///< points into the owning plan's AST
};

/// Precomputed physical access path for one statement's base-table scan:
/// the sargable conjuncts on indexed columns and whether the WHERE clause
/// references the table at all. The value-dependent part (evaluating
/// constants, preferring an equality range) still runs per execution, so a
/// cached execution chooses exactly the index the uncached analysis would —
/// it just skips the expression-tree walk, the conjunct classification and
/// the schema/index lookups that used to run on every statement.
struct AccessPath {
  bool analyzed = false;  ///< table resolved at prepare time
  bool where_touches_table = false;
  std::vector<SargConjunct> conjuncts;
};

/// An immutable parsed-and-analyzed statement. Shareable across threads and
/// executions; the engine caches plans keyed on the SQL text and the
/// catalog version, so repeated statements (the ledger bookkeeping DML,
/// contract bodies, prepared client queries) parse exactly once per schema
/// epoch. Physical access-path analysis is likewise done once at Prepare()
/// and reused by every execution of the plan (schema-version keying
/// invalidates it together with the plan when DDL changes the catalog).
class PreparedPlan {
 public:
  const Statement& statement() const { return stmt_; }
  const PreparedInfo& info() const { return info_; }
  const std::string& sql() const { return sql_; }
  uint64_t schema_version() const { return schema_version_; }

  /// Cached access path for a statement node (SelectStmt/UpdateStmt/
  /// DeleteStmt pointer into this plan's AST); null when none was built.
  const AccessPath* FindAccessPath(const void* stmt_node) const {
    auto it = access_paths_.find(stmt_node);
    return it == access_paths_.end() ? nullptr : &it->second;
  }

  /// Prepare-time gate for the columnar analytics path: the statement is a
  /// base-table SELECT. Per-join safety (typed equi keys) is value- and
  /// schema-dependent and stays a runtime decision with row-path fallback.
  bool columnar_shape_ok() const { return columnar_shape_ok_; }

  /// Strict per-execution binding check: exact arity, and type agreement
  /// wherever a type was inferred. NULL always binds; INT binds where
  /// DOUBLE is expected (the engine's numeric widening rule).
  Status BindCheck(const std::vector<Value>& params) const;

 private:
  friend class SqlEngine;
  std::string sql_;
  Statement stmt_;
  PreparedInfo info_;
  uint64_t schema_version_ = 0;
  bool columnar_shape_ok_ = false;
  /// Immutable after Prepare(); keyed by statement-node address within
  /// `stmt_`, so lookups are pointer comparisons.
  std::unordered_map<const void*, AccessPath> access_paths_;
};

class SqlEngine {
 public:
  explicit SqlEngine(Database* db) : db_(db) {}

  /// Parse + execute one statement with $n `params`; `named_params` binds
  /// $name variables (used by the SQL-procedure interpreter). Parsing goes
  /// through the plan cache, so repeated SQL text costs one lookup.
  Result<ResultSet> Execute(
      TxnContext* ctx, const std::string& sql,
      const std::vector<Value>& params = {},
      const ExecOptions& opts = ExecOptions(),
      const std::map<std::string, Value>* named_params = nullptr);

  /// Execute an already-parsed statement.
  Result<ResultSet> ExecuteStatement(
      TxnContext* ctx, const Statement& stmt,
      const std::vector<Value>& params, const ExecOptions& opts,
      const std::map<std::string, Value>* named_params = nullptr);

  /// Parse and analyze once. Plans are cached keyed on the SQL text; a DDL
  /// statement bumps the database's schema version, which invalidates every
  /// cached plan lazily (stale entries re-parse on next use). Parse
  /// failures are not cached.
  Result<std::shared_ptr<const PreparedPlan>> Prepare(const std::string& sql);

  /// Execute a prepared plan. Callers decide whether to BindCheck first:
  /// the client session path validates, internal callers bind positionally
  /// exactly as Execute() does.
  Result<ResultSet> ExecutePrepared(
      TxnContext* ctx, const PreparedPlan& plan,
      const std::vector<Value>& params, const ExecOptions& opts,
      const std::map<std::string, Value>* named_params = nullptr);

  // Plan-cache observability (tests and metrics).
  uint64_t plan_cache_hits() const { return plan_hits_.load(); }
  uint64_t plan_cache_misses() const { return plan_misses_.load(); }
  size_t plan_cache_entries() const;

  /// Base-table scans that used a prepare-time access path instead of
  /// re-running sargable analysis.
  uint64_t access_path_hits() const { return access_path_hits_.load(); }

 private:
  /// Bounded FIFO plan cache; sized for a node's working set of distinct
  /// statements (system DML + contract bodies + client queries).
  static constexpr size_t kPlanCacheCapacity = 512;

  /// Shared execution core: `plan` (nullable) supplies cached access paths.
  Result<ResultSet> RunStatement(
      TxnContext* ctx, const PreparedPlan* plan, const Statement& stmt,
      const std::vector<Value>& params, const ExecOptions& opts,
      const std::map<std::string, Value>* named_params);

  Database* db_;
  /// Reader-writer lock: cache hits (every statement execution) take the
  /// shared side so the parallel executor pool never serializes on a
  /// repeated-statement lookup; only misses take the exclusive side.
  mutable std::shared_mutex plans_mu_;
  std::unordered_map<std::string, std::shared_ptr<const PreparedPlan>> plans_;
  std::deque<std::string> plan_fifo_;
  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> access_path_hits_{0};
};

}  // namespace sql
}  // namespace brdb

#endif  // BRDB_SQL_EXECUTOR_H_
