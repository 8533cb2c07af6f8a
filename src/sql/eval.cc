#include "sql/eval.h"

#include <cmath>
#include <set>

namespace brdb {
namespace sql {

Result<int> EvalScope::Resolve(const std::string& qualifier,
                               const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < bindings_.size(); ++i) {
    const Binding& b = bindings_[i];
    if (b.name != name) continue;
    if (!qualifier.empty() && b.qualifier != qualifier) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference: " +
                                     (qualifier.empty() ? name
                                                        : qualifier + "." + name));
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("unknown column: " +
                            (qualifier.empty() ? name : qualifier + "." + name));
  }
  return found;
}

bool EvalScope::References(const Expr& e) const {
  if (e.kind == ExprKind::kColumn) {
    return Resolve(e.qualifier, e.column).ok();
  }
  if (e.a && References(*e.a)) return true;
  if (e.b && References(*e.b)) return true;
  for (const auto& arg : e.args) {
    if (arg && References(*arg)) return true;
  }
  for (const auto& [w, t] : e.whens) {
    if (References(*w) || References(*t)) return true;
  }
  if (e.else_expr && References(*e.else_expr)) return true;
  return false;
}

Status BindColumns(const Expr& e, const EvalScope& scope,
                   ColumnBinding* binding) {
  Status first;
  auto bind = [&](const Expr& sub) {
    Status st = BindColumns(sub, scope, binding);
    if (first.ok()) first = st;
  };
  if (e.kind == ExprKind::kColumn) {
    auto slot = scope.Resolve(e.qualifier, e.column);
    if (!slot.ok()) return slot.status();
    if (e.column_ref >= 0) {
      const size_t ref = static_cast<size_t>(e.column_ref);
      if (binding->size() <= ref) binding->resize(ref + 1, -1);
      (*binding)[ref] = slot.value();
    }
    return Status::OK();
  }
  if (e.a) bind(*e.a);
  if (e.b) bind(*e.b);
  for (const auto& arg : e.args) {
    if (arg) bind(*arg);
  }
  for (const auto& [w, t] : e.whens) {
    bind(*w);
    bind(*t);
  }
  if (e.else_expr) bind(*e.else_expr);
  return first;
}

namespace {

Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx);
Result<Value> EvalFunction(const Expr& e, const EvalContext& ctx);

// Integer arithmetic. Every result is checked: signed overflow is undefined
// behavior, and INT64_MIN / -1 traps, which would stop every replica at the
// same block. x % -1 is 0, as in PostgreSQL.
Result<Value> IntArith(BinOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  bool overflow = false;
  switch (op) {
    case BinOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &r);
      break;
    case BinOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &r);
      break;
    case BinOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &r);
      break;
    case BinOp::kDiv:
    case BinOp::kMod:
      if (b == 0) return Status::InvalidArgument("division by zero");
      if (b == -1) {  // a / -1 = -a, a % -1 = 0
        overflow = op == BinOp::kDiv && __builtin_sub_overflow(0, a, &r);
      } else {
        r = op == BinOp::kDiv ? a / b : a % b;
      }
      break;
    default:
      return Status::Internal("not an arithmetic operator");
  }
  if (overflow) return Status::InvalidArgument("integer out of range");
  return Value::Int(r);
}

Result<Value> EvalArith(BinOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == BinOp::kConcat) {
    if (a.type() != ValueType::kText && b.type() != ValueType::kText) {
      return Status::InvalidArgument("|| requires at least one text operand");
    }
    return Value::Text(a.ToString() + b.ToString());
  }
  if (!a.IsNumeric() || !b.IsNumeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return IntArith(op, a.AsInt(), b.AsInt());
  }
  switch (op) {
    case BinOp::kAdd:
      return Value::Double(a.AsNumeric() + b.AsNumeric());
    case BinOp::kSub:
      return Value::Double(a.AsNumeric() - b.AsNumeric());
    case BinOp::kMul:
      return Value::Double(a.AsNumeric() * b.AsNumeric());
    case BinOp::kDiv:
      if (b.AsNumeric() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      return Value::Double(a.AsNumeric() / b.AsNumeric());
    case BinOp::kMod:
      return Status::InvalidArgument("% requires integers");
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

Result<Value> EvalComparison(BinOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  // Reject senseless cross-type comparisons (numeric<->numeric is fine).
  if (a.type() != b.type() && !(a.IsNumeric() && b.IsNumeric())) {
    return Status::InvalidArgument(
        std::string("cannot compare ") + ValueTypeToString(a.type()) +
        " with " + ValueTypeToString(b.type()));
  }
  int c = a.Compare(b);
  switch (op) {
    case BinOp::kEq: return Value::Bool(c == 0);
    case BinOp::kNe: return Value::Bool(c != 0);
    case BinOp::kLt: return Value::Bool(c < 0);
    case BinOp::kLe: return Value::Bool(c <= 0);
    case BinOp::kGt: return Value::Bool(c > 0);
    case BinOp::kGe: return Value::Bool(c >= 0);
    default:
      return Status::Internal("not a comparison operator");
  }
}

/// Scope slot of a column reference bound in ctx.binding; -1 = unbound.
int BoundSlot(const Expr& e, const EvalContext& ctx) {
  if (ctx.binding == nullptr || e.column_ref < 0 ||
      static_cast<size_t>(e.column_ref) >= ctx.binding->size()) {
    return -1;
  }
  return (*ctx.binding)[static_cast<size_t>(e.column_ref)];
}

/// The input row's value at scope slot `s`.
const Value& SlotValue(const EvalContext& ctx, size_t s) {
  if (ctx.parts == nullptr) return (*ctx.row)[s];
  size_t p = ctx.num_parts - 1;
  while (ctx.part_start[p] > s) --p;
  return (*ctx.parts[p])[s - ctx.part_start[p]];
}

/// A provided positional parameter $n; null for $name or a missing $n.
const Value* PositionalParam(const Expr& e, const EvalContext& ctx) {
  if (!e.param_name.empty() || ctx.params == nullptr || e.param_index < 1 ||
      static_cast<size_t>(e.param_index) > ctx.params->size()) {
    return nullptr;
  }
  return &(*ctx.params)[static_cast<size_t>(e.param_index - 1)];
}

/// The operand's value read in place when evaluating it can neither fail
/// nor compute anything: a literal, a column bound in ctx.binding over a
/// present row, or a provided $n. Null otherwise, and always after
/// aggregation (Eval substitutes by structural key first there).
const Value* Leaf(const Expr& e, const EvalContext& ctx) {
  if (ctx.agg != nullptr) return nullptr;
  switch (e.kind) {
    case ExprKind::kLiteral:
      return &e.literal;
    case ExprKind::kColumn: {
      if (ctx.scope == nullptr ||
          (ctx.row == nullptr && ctx.parts == nullptr)) {
        return nullptr;
      }
      const int slot = BoundSlot(e, ctx);
      return slot < 0 ? nullptr : &SlotValue(ctx, static_cast<size_t>(slot));
    }
    case ExprKind::kParam:
      return PositionalParam(e, ctx);
    default:
      return nullptr;
  }
}

Result<Value> EvalBinary(const Expr& e, const EvalContext& ctx) {
  // Kleene logic with short-circuiting on the dominant value.
  if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
    BRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.a, ctx));
    if (!a.is_null() && a.type() != ValueType::kBool) {
      return Status::InvalidArgument("AND/OR requires boolean operands");
    }
    bool dominant = e.bin_op == BinOp::kOr;  // OR: true wins; AND: false wins
    if (!a.is_null() && a.AsBool() == dominant) return Value::Bool(dominant);
    BRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.b, ctx));
    if (!b.is_null() && b.type() != ValueType::kBool) {
      return Status::InvalidArgument("AND/OR requires boolean operands");
    }
    if (!b.is_null() && b.AsBool() == dominant) return Value::Bool(dominant);
    if (a.is_null() || b.is_null()) return Value::Null();
    // Neither operand is the dominant value: AND of two trues, OR of two
    // falses — the result is the non-dominant value.
    return Value::Bool(!dominant);
  }

  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      // Two leaves cannot fail to evaluate, so comparing them in place
      // gives what evaluating both and comparing the copies would.
      const Value* la = Leaf(*e.a, ctx);
      const Value* lb = la != nullptr ? Leaf(*e.b, ctx) : nullptr;
      if (lb != nullptr) return EvalComparison(e.bin_op, *la, *lb);
      BRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.a, ctx));
      BRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.b, ctx));
      return EvalComparison(e.bin_op, a, b);
    }
    default:
      break;
  }
  BRDB_ASSIGN_OR_RETURN(Value a, Eval(*e.a, ctx));
  BRDB_ASSIGN_OR_RETURN(Value b, Eval(*e.b, ctx));
  return EvalArith(e.bin_op, a, b);
}

Result<Value> EvalFunction(const Expr& e, const EvalContext& ctx) {
  const std::string& fn = e.func_name;
  // Aggregates must have been substituted by the aggregation stage.
  if (IsAggregateFunction(fn)) {
    return Status::InvalidArgument(
        "aggregate function " + fn + " is not allowed in this context");
  }
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& arg : e.args) {
    BRDB_ASSIGN_OR_RETURN(Value v, Eval(*arg, ctx));
    args.push_back(std::move(v));
  }
  auto need = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument("wrong argument count for " + fn);
    }
    return Status::OK();
  };

  if (fn == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (fn == "nullif") {
    BRDB_RETURN_NOT_OK(need(2, 2));
    if (!args[0].is_null() && !args[1].is_null() &&
        args[0].Compare(args[1]) == 0) {
      return Value::Null();
    }
    return args[0];
  }
  if (fn == "concat") {
    std::string out;
    for (const Value& v : args) {
      if (!v.is_null()) out += v.ToString();
    }
    return Value::Text(std::move(out));
  }
  if (fn == "greatest" || fn == "least") {
    BRDB_RETURN_NOT_OK(need(1, 64));
    Value best = Value::Null();
    for (const Value& v : args) {
      if (v.is_null()) continue;
      if (best.is_null() ||
          (fn == "greatest" ? v.Compare(best) > 0 : v.Compare(best) < 0)) {
        best = v;
      }
    }
    return best;
  }

  // Remaining functions propagate NULL from their first argument.
  if (!args.empty() && args[0].is_null()) return Value::Null();

  if (fn == "abs") {
    BRDB_RETURN_NOT_OK(need(1, 1));
    if (!args[0].IsNumeric()) {
      return Status::InvalidArgument("abs requires a numeric argument");
    }
    if (args[0].type() == ValueType::kInt) {
      const int64_t v = args[0].AsInt();
      return v < 0 ? IntArith(BinOp::kSub, 0, v) : Value::Int(v);
    }
    return Value::Double(std::fabs(args[0].AsDouble()));
  }
  if (fn == "length") {
    BRDB_RETURN_NOT_OK(need(1, 1));
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument("length requires text");
    }
    return Value::Int(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (fn == "upper" || fn == "lower") {
    BRDB_RETURN_NOT_OK(need(1, 1));
    if (args[0].type() != ValueType::kText) {
      return Status::InvalidArgument(fn + " requires text");
    }
    std::string s = args[0].AsText();
    for (char& c : s) {
      c = fn == "upper" ? static_cast<char>(std::toupper(c))
                        : static_cast<char>(std::tolower(c));
    }
    return Value::Text(std::move(s));
  }
  if (fn == "substr") {
    BRDB_RETURN_NOT_OK(need(2, 3));
    if (args[0].type() != ValueType::kText ||
        args[1].type() != ValueType::kInt ||
        (args.size() == 3 && args[2].type() != ValueType::kInt)) {
      return Status::InvalidArgument("substr(text, int[, int])");
    }
    const std::string& s = args[0].AsText();
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    size_t pos = static_cast<size_t>(start - 1);
    if (pos >= s.size()) return Value::Text("");
    size_t len = args.size() == 3 && args[2].AsInt() >= 0
                     ? static_cast<size_t>(args[2].AsInt())
                     : std::string::npos;
    return Value::Text(s.substr(pos, len));
  }
  if (fn == "round") {
    BRDB_RETURN_NOT_OK(need(1, 2));
    if (!args[0].IsNumeric()) {
      return Status::InvalidArgument("round requires a numeric argument");
    }
    double scale = 1.0;
    if (args.size() == 2) {
      if (args[1].type() != ValueType::kInt) {
        return Status::InvalidArgument("round digits must be an integer");
      }
      scale = std::pow(10.0, static_cast<double>(args[1].AsInt()));
    }
    double v = std::round(args[0].AsNumeric() * scale) / scale;
    if (args.size() == 1 && args[0].type() == ValueType::kInt) return args[0];
    return Value::Double(v);
  }
  if (fn == "floor" || fn == "ceil" || fn == "ceiling") {
    BRDB_RETURN_NOT_OK(need(1, 1));
    if (!args[0].IsNumeric()) {
      return Status::InvalidArgument(fn + " requires a numeric argument");
    }
    double v = fn == "floor" ? std::floor(args[0].AsNumeric())
                             : std::ceil(args[0].AsNumeric());
    // [-2^63, 2^63) converts exactly; NaN and anything outside do not.
    if (!(v >= -0x1p63 && v < 0x1p63)) {
      return Status::InvalidArgument("integer out of range");
    }
    return Value::Int(static_cast<int64_t>(v));
  }
  if (fn == "mod") {
    BRDB_RETURN_NOT_OK(need(2, 2));
    return EvalArith(BinOp::kMod, args[0], args[1]);
  }
  if (fn == "sign") {
    BRDB_RETURN_NOT_OK(need(1, 1));
    if (!args[0].IsNumeric()) {
      return Status::InvalidArgument("sign requires a numeric argument");
    }
    double v = args[0].AsNumeric();
    return Value::Int(v > 0 ? 1 : (v < 0 ? -1 : 0));
  }
  return Status::NotFound("unknown function: " + fn);
}

}  // namespace

Result<Value> Eval(const Expr& e, const EvalContext& ctx) {
  // Post-aggregation substitution: group keys and aggregate results are
  // looked up by structural key before normal evaluation.
  if (ctx.agg != nullptr) {
    auto it = ctx.agg->find(e.ToKey());
    if (it != ctx.agg->end()) return it->second;
    if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.func_name)) {
      return Status::Internal("aggregate value missing for " + e.ToKey());
    }
    if (e.kind == ExprKind::kColumn) {
      return Status::InvalidArgument(
          "column " + e.column +
          " must appear in GROUP BY or inside an aggregate");
    }
  }

  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumn: {
      if (ctx.scope == nullptr ||
          (ctx.row == nullptr && ctx.parts == nullptr)) {
        return Status::InvalidArgument("column reference outside a query: " +
                                       e.column);
      }
      int slot = BoundSlot(e, ctx);
      if (slot < 0) {
        BRDB_ASSIGN_OR_RETURN(slot, ctx.scope->Resolve(e.qualifier, e.column));
      }
      return SlotValue(ctx, static_cast<size_t>(slot));
    }
    case ExprKind::kParam: {
      if (!e.param_name.empty()) {
        if (ctx.named_params != nullptr) {
          auto it = ctx.named_params->find(e.param_name);
          if (it != ctx.named_params->end()) return it->second;
        }
        return Status::InvalidArgument("variable $" + e.param_name +
                                       " is not bound");
      }
      if (const Value* v = PositionalParam(e, ctx)) return *v;
      return Status::InvalidArgument("parameter $" +
                                     std::to_string(e.param_index) +
                                     " not provided");
    }
    case ExprKind::kUnary: {
      BRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.a, ctx));
      if (v.is_null()) return Value::Null();
      if (e.un_op == UnOp::kNot) {
        if (v.type() != ValueType::kBool) {
          return Status::InvalidArgument("NOT requires a boolean");
        }
        return Value::Bool(!v.AsBool());
      }
      if (!v.IsNumeric()) {
        return Status::InvalidArgument("unary minus requires a number");
      }
      if (v.type() == ValueType::kInt) {
        return IntArith(BinOp::kSub, 0, v.AsInt());
      }
      return Value::Double(-v.AsDouble());
    }
    case ExprKind::kBinary:
      return EvalBinary(e, ctx);
    case ExprKind::kFunction:
      return EvalFunction(e, ctx);
    case ExprKind::kCase: {
      for (const auto& [when, then] : e.whens) {
        BRDB_ASSIGN_OR_RETURN(bool cond, EvalCondition(*when, ctx));
        if (cond) return Eval(*then, ctx);
      }
      if (e.else_expr) return Eval(*e.else_expr, ctx);
      return Value::Null();
    }
    case ExprKind::kIsNull: {
      BRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.a, ctx));
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kInList: {
      BRDB_ASSIGN_OR_RETURN(Value v, Eval(*e.a, ctx));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const auto& item : e.args) {
        BRDB_ASSIGN_OR_RETURN(Value w, Eval(*item, ctx));
        if (w.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(w) == 0) return Value::Bool(!e.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> EvalCondition(const Expr& e, const EvalContext& ctx) {
  BRDB_ASSIGN_OR_RETURN(Value v, Eval(e, ctx));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBool) {
    return Status::InvalidArgument("condition must be boolean");
  }
  return v.AsBool();
}

Status CheckDeterministic(const Expr& e) {
  if (e.kind == ExprKind::kFunction) {
    static const std::set<std::string> kForbidden = {
        "now",        "random",           "current_timestamp",
        "current_time", "current_date",   "timeofday",
        "clock_timestamp", "statement_timestamp", "transaction_timestamp",
        "nextval",    "setval",           "currval",
        "pg_sleep",   "pg_backend_pid",   "version",
        "inet_client_addr", "gen_random_uuid", "uuid_generate_v4",
    };
    if (kForbidden.count(e.func_name)) {
      return Status::DeterminismViolation(
          "function " + e.func_name +
          " is non-deterministic and forbidden in smart contracts");
    }
  }
  if (e.a) BRDB_RETURN_NOT_OK(CheckDeterministic(*e.a));
  if (e.b) BRDB_RETURN_NOT_OK(CheckDeterministic(*e.b));
  for (const auto& arg : e.args) {
    if (arg) BRDB_RETURN_NOT_OK(CheckDeterministic(*arg));
  }
  for (const auto& [w, t] : e.whens) {
    BRDB_RETURN_NOT_OK(CheckDeterministic(*w));
    BRDB_RETURN_NOT_OK(CheckDeterministic(*t));
  }
  if (e.else_expr) BRDB_RETURN_NOT_OK(CheckDeterministic(*e.else_expr));
  return Status::OK();
}

}  // namespace sql
}  // namespace brdb
