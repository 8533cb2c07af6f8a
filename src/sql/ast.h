// Abstract syntax tree for the supported SQL subset.
//
// Supported statements: CREATE TABLE, CREATE INDEX, DROP TABLE, INSERT
// (VALUES and SELECT forms), SELECT (joins, WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT), UPDATE, DELETE. Expressions cover literals, column
// references, $n parameters, arithmetic, comparisons, boolean logic with
// three-valued NULL semantics, IS [NOT] NULL, BETWEEN, IN (value list),
// CASE WHEN, scalar functions and aggregate functions.
#ifndef BRDB_SQL_AST_H_
#define BRDB_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace brdb {
namespace sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr, kConcat,
};

enum class UnOp { kNot, kNeg };

enum class ExprKind {
  kLiteral,
  kColumn,
  kParam,
  kUnary,
  kBinary,
  kFunction,  // scalar or aggregate; COUNT(*) has star=true
  kCase,
  kIsNull,    // a IS NULL / a IS NOT NULL (negated flag)
  kInList,    // a IN (e1, e2, ...) / NOT IN
};

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumn
  std::string qualifier;  // optional table alias
  std::string column;
  /// Number of this reference within its statement, set by the parser
  /// (-1 = unnumbered); indexes a ColumnBinding (sql/eval.h). Clone keeps
  /// it: BETWEEN's two copies of its operand are one reference.
  int column_ref = -1;

  // kParam: $n (1-based index) or $name (procedure variable)
  int param_index = 0;
  std::string param_name;

  // kUnary / kBinary
  UnOp un_op = UnOp::kNot;
  BinOp bin_op = BinOp::kEq;
  ExprPtr a;
  ExprPtr b;

  // kFunction
  std::string func_name;  // lower-case
  std::vector<ExprPtr> args;
  bool star = false;      // COUNT(*)

  // kCase
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  ExprPtr else_expr;

  // kIsNull / kInList
  bool negated = false;

  /// Structural key used to match aggregate calls and GROUP BY items, and
  /// for error messages. Deterministic.
  std::string ToKey() const;

  ExprPtr Clone() const;
};

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumn(std::string qualifier, std::string column);
ExprPtr MakeParam(int index);
ExprPtr MakeBinary(BinOp op, ExprPtr a, ExprPtr b);
ExprPtr MakeUnary(UnOp op, ExprPtr a);

/// True when the expression tree contains any aggregate function call.
bool ContainsAggregate(const Expr& e);

/// True when `name` is one of the aggregate functions.
bool IsAggregateFunction(const std::string& name);

// ---------------- statements ----------------

struct SelectItem {
  ExprPtr expr;        // null when star
  std::string alias;   // output column name (may be empty)
  bool star = false;   // SELECT *
};

struct TableRef {
  std::string table;
  std::string alias;  // defaults to table name
};

struct JoinClause {
  TableRef table;
  ExprPtr on;
  bool left = false;  // LEFT JOIN vs INNER JOIN
};

struct OrderItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::optional<TableRef> from;
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  bool distinct = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          // empty = schema order
  std::vector<std::vector<ExprPtr>> rows;    // VALUES form
  std::unique_ptr<SelectStmt> select;        // INSERT ... SELECT form
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> sets;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct ColumnDefAst {
  std::string name;
  ValueType type = ValueType::kNull;
  bool primary_key = false;
  bool not_null = false;
  bool unique = false;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDefAst> columns;
  std::vector<std::string> check_exprs;  // raw SQL text of CHECK (...)
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
};

struct DropTableStmt {
  std::string table;
};

enum class StatementType {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
};

struct Statement {
  StatementType type = StatementType::kSelect;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<DropTableStmt> drop_table;
};

}  // namespace sql
}  // namespace brdb

#endif  // BRDB_SQL_AST_H_
