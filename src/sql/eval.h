// Expression evaluation with SQL three-valued NULL semantics, plus the
// name-resolution scopes used before and after aggregation.
#ifndef BRDB_SQL_EVAL_H_
#define BRDB_SQL_EVAL_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace brdb {
namespace sql {

/// A flat list of named columns over which expressions are evaluated.
/// Joins concatenate scopes; provenance scans add the xmin/xmax/creator/
/// deleter pseudo-columns per table.
class EvalScope {
 public:
  struct Binding {
    std::string qualifier;  ///< table alias ('' matches any)
    std::string name;
  };

  void Add(std::string qualifier, std::string name) {
    bindings_.push_back({std::move(qualifier), std::move(name)});
  }
  void Append(const EvalScope& other) {
    bindings_.insert(bindings_.end(), other.bindings_.begin(),
                     other.bindings_.end());
  }
  size_t size() const { return bindings_.size(); }
  const std::vector<Binding>& bindings() const { return bindings_; }

  /// Resolve a (possibly qualified) column to a slot; errors on ambiguity
  /// and on unknown names.
  Result<int> Resolve(const std::string& qualifier,
                      const std::string& name) const;

  /// True if any column of the expression resolves into this scope.
  bool References(const Expr& e) const;

 private:
  std::vector<Binding> bindings_;
};

/// Scope slot of each numbered column reference (Expr::column_ref) of a
/// statement, resolved once against one scope; -1 = unbound.
using ColumnBinding = std::vector<int>;

/// Bind every numbered column reference of `e` that resolves in `scope`.
/// Returns the error Resolve gives for the first one that does not; the
/// others are bound either way. An unbound reference resolves by name when
/// it is evaluated and raises that same error there, so callers whose
/// errors must surface per row may ignore the result.
Status BindColumns(const Expr& e, const EvalScope& scope,
                   ColumnBinding* binding);

/// Values of aggregate calls and GROUP BY keys for one output group,
/// keyed by Expr::ToKey().
using AggBindings = std::unordered_map<std::string, Value>;

/// Everything expression evaluation needs.
struct EvalContext {
  const EvalScope* scope = nullptr;       ///< input columns (may be null)
  const Row* row = nullptr;               ///< current input row
  /// A joined input row read in place: one row reference per joined table
  /// ("part"), in scope order. When set it replaces `row`: scope slot s is
  /// column s - part_start[p] of the last part p with part_start[p] <= s.
  const Row* const* parts = nullptr;
  const size_t* part_start = nullptr;
  size_t num_parts = 0;
  /// Column references bound against `scope` (may be null).
  const ColumnBinding* binding = nullptr;
  const std::vector<Value>* params = nullptr;  ///< $n parameters
  const std::map<std::string, Value>* named_params = nullptr;  ///< $name vars
  const AggBindings* agg = nullptr;       ///< post-aggregation substitutions
};

/// Evaluate an expression. NULL propagates per SQL rules; AND/OR use Kleene
/// logic; type errors and division by zero return error Statuses.
Result<Value> Eval(const Expr& e, const EvalContext& ctx);

/// Evaluate as a WHERE/HAVING condition: true only when the result is a
/// non-NULL true boolean.
Result<bool> EvalCondition(const Expr& e, const EvalContext& ctx);

/// Reject non-deterministic constructs (paper §4.3: date/time functions,
/// random, sequence manipulation, system information functions).
Status CheckDeterministic(const Expr& e);

}  // namespace sql
}  // namespace brdb

#endif  // BRDB_SQL_EVAL_H_
