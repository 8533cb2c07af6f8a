#include "sql/ast.h"

namespace brdb {
namespace sql {

namespace {
const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
    case BinOp::kConcat: return "||";
  }
  return "?";
}
}  // namespace

std::string Expr::ToKey() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return "lit:" + std::to_string(static_cast<int>(literal.type())) + ":" +
             literal.ToString();
    case ExprKind::kColumn:
      return qualifier.empty() ? "col:" + column
                               : "col:" + qualifier + "." + column;
    case ExprKind::kParam:
      return param_name.empty() ? "$" + std::to_string(param_index)
                                : "$" + param_name;
    case ExprKind::kUnary:
      return std::string("un:") + (un_op == UnOp::kNot ? "NOT" : "-") + "(" +
             a->ToKey() + ")";
    case ExprKind::kBinary:
      return std::string("bin:") + BinOpName(bin_op) + "(" + a->ToKey() + "," +
             b->ToKey() + ")";
    case ExprKind::kFunction: {
      std::string s = "fn:" + func_name + "(";
      if (star) s += "*";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) s += ",";
        s += args[i]->ToKey();
      }
      return s + ")";
    }
    case ExprKind::kCase: {
      std::string s = "case(";
      for (const auto& [w, t] : whens) {
        s += w->ToKey() + "->" + t->ToKey() + ";";
      }
      if (else_expr) s += "else:" + else_expr->ToKey();
      return s + ")";
    }
    case ExprKind::kIsNull:
      return std::string(negated ? "isnotnull(" : "isnull(") + a->ToKey() +
             ")";
    case ExprKind::kInList: {
      std::string s = negated ? "notin(" : "in(";
      s += a->ToKey() + ";";
      for (const auto& e : args) s += e->ToKey() + ",";
      return s + ")";
    }
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->qualifier = qualifier;
  out->column = column;
  out->column_ref = column_ref;
  out->param_index = param_index;
  out->param_name = param_name;
  out->un_op = un_op;
  out->bin_op = bin_op;
  if (a) out->a = a->Clone();
  if (b) out->b = b->Clone();
  out->func_name = func_name;
  for (const auto& arg : args) out->args.push_back(arg->Clone());
  out->star = star;
  for (const auto& [w, t] : whens) {
    out->whens.emplace_back(w->Clone(), t->Clone());
  }
  if (else_expr) out->else_expr = else_expr->Clone();
  out->negated = negated;
  return out;
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumn(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeParam(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kParam;
  e->param_index = index;
  return e;
}

ExprPtr MakeBinary(BinOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprPtr MakeUnary(UnOp op, ExprPtr a) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->un_op = op;
  e->a = std::move(a);
  return e;
}

bool IsAggregateFunction(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.func_name)) {
    return true;
  }
  if (e.a && ContainsAggregate(*e.a)) return true;
  if (e.b && ContainsAggregate(*e.b)) return true;
  for (const auto& arg : e.args) {
    if (arg && ContainsAggregate(*arg)) return true;
  }
  for (const auto& [w, t] : e.whens) {
    if (ContainsAggregate(*w) || ContainsAggregate(*t)) return true;
  }
  if (e.else_expr && ContainsAggregate(*e.else_expr)) return true;
  return false;
}

}  // namespace sql
}  // namespace brdb
