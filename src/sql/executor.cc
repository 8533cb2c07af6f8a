#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/vectorized.h"

namespace brdb {
namespace sql {

namespace {

// ---------- helpers over expressions ----------

void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.bin_op == BinOp::kAnd) {
    CollectConjuncts(*e.a, out);
    CollectConjuncts(*e.b, out);
    return;
  }
  out->push_back(&e);
}

bool ContainsColumn(const Expr& e) {
  if (e.kind == ExprKind::kColumn) return true;
  if (e.a && ContainsColumn(*e.a)) return true;
  if (e.b && ContainsColumn(*e.b)) return true;
  for (const auto& arg : e.args) {
    if (arg && ContainsColumn(*arg)) return true;
  }
  for (const auto& [w, t] : e.whens) {
    if (ContainsColumn(*w) || ContainsColumn(*t)) return true;
  }
  if (e.else_expr && ContainsColumn(*e.else_expr)) return true;
  return false;
}

void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* out) {
  if (e.kind == ExprKind::kFunction && IsAggregateFunction(e.func_name)) {
    out->emplace(e.ToKey(), &e);
    return;  // nested aggregates are not supported anyway
  }
  if (e.a) CollectAggregates(*e.a, out);
  if (e.b) CollectAggregates(*e.b, out);
  for (const auto& arg : e.args) {
    if (arg) CollectAggregates(*arg, out);
  }
  for (const auto& [w, t] : e.whens) {
    CollectAggregates(*w, out);
    CollectAggregates(*t, out);
  }
  if (e.else_expr) CollectAggregates(*e.else_expr, out);
}

// ---------- relations ----------

// A relation is read in place (late materialization): each tuple is one
// row reference per joined table (a "part"), and only projection builds
// output rows. Scans, row-store and columnar alike, point into the table's
// version arena, whose payloads are immutable and never freed
// (Table::ValuesOf). Rows that belong to no table -- provenance rows with
// their metadata columns, the LEFT JOIN null row, the empty row of SELECT
// without FROM -- are adopted into `owned`, whose element addresses never
// move. Move-only: a copy would point into the source's storage.
struct Relation {
  Relation() = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  size_t num_parts() const { return part_start.size(); }
  size_t size() const { return tuples.size() / num_parts(); }
  const Row* const* tuple(size_t i) const {
    return tuples.data() + i * num_parts();
  }
  /// Part and column of a scope slot.
  std::pair<size_t, size_t> Locate(size_t slot) const {
    size_t p = num_parts() - 1;
    while (part_start[p] > slot) --p;
    return {p, slot - part_start[p]};
  }
  /// Take ownership of rows no table holds, one single-part tuple each.
  void Adopt(std::vector<Row> rows) {
    owned.push_back(std::move(rows));
    for (const Row& r : owned.back()) tuples.push_back(&r);
  }

  EvalScope scope;
  std::vector<ValueType> col_types;  // declared type per scope slot
  std::vector<size_t> part_start;    // first scope slot of each part
  std::vector<const Row*> tuples;    // num_parts() references per tuple
  std::vector<RowId> rids;  // one per tuple; only for single-table DML
  std::list<std::vector<Row>> owned;
};

struct SargRange {
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;

  bool bounded() const { return lo.has_value() || hi.has_value(); }
  bool is_equality() const {
    return lo.has_value() && hi.has_value() && lo_inclusive && hi_inclusive &&
           lo->Compare(*hi) == 0;
  }
  void Tighten(BinOp op, const Value& v) {
    switch (op) {
      case BinOp::kEq:
        TightenLo(v, true);
        TightenHi(v, true);
        break;
      case BinOp::kGt:
        TightenLo(v, false);
        break;
      case BinOp::kGe:
        TightenLo(v, true);
        break;
      case BinOp::kLt:
        TightenHi(v, false);
        break;
      case BinOp::kLe:
        TightenHi(v, true);
        break;
      default:
        break;
    }
  }
  void TightenLo(const Value& v, bool inclusive) {
    if (!lo.has_value() || v.Compare(*lo) > 0 ||
        (v.Compare(*lo) == 0 && !inclusive)) {
      lo = v;
      lo_inclusive = inclusive;
    }
  }
  void TightenHi(const Value& v, bool inclusive) {
    if (!hi.has_value() || v.Compare(*hi) < 0 ||
        (v.Compare(*hi) == 0 && !inclusive)) {
      hi = v;
      hi_inclusive = inclusive;
    }
  }
};

BinOp FlipComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

// Sargable analysis of (table, WHERE): which conjuncts have the shape
// `indexed-column op constant` (after normalizing the column to the left),
// and whether the WHERE clause references the table at all. Pure shape
// analysis — no constant is evaluated — so Prepare() runs it once and every
// execution of the plan reuses the result.
void AnalyzeScanPath(Table* table, const TableRef& ref, const Expr& where,
                     AccessPath* out) {
  const TableSchema& schema = table->schema();
  out->analyzed = true;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary) continue;
    BinOp op = c->bin_op;
    if (op != BinOp::kEq && op != BinOp::kLt && op != BinOp::kLe &&
        op != BinOp::kGt && op != BinOp::kGe) {
      continue;
    }
    const Expr* col_side = nullptr;
    const Expr* const_side = nullptr;
    if (c->a->kind == ExprKind::kColumn && !ContainsColumn(*c->b)) {
      col_side = c->a.get();
      const_side = c->b.get();
    } else if (c->b->kind == ExprKind::kColumn && !ContainsColumn(*c->a)) {
      col_side = c->b.get();
      const_side = c->a.get();
      op = FlipComparison(op);
    } else {
      continue;
    }
    if (!col_side->qualifier.empty() && col_side->qualifier != ref.alias) {
      continue;
    }
    int col = schema.ColumnIndex(col_side->column);
    if (col < 0) continue;
    out->where_touches_table = true;
    if (!table->HasIndexOn(col)) continue;
    out->conjuncts.push_back(SargConjunct{col, op, const_side});
  }
  // Any column reference into this table counts as a predicate read.
  if (!out->where_touches_table) {
    EvalScope probe;
    for (const auto& col : schema.columns()) probe.Add(ref.alias, col.name);
    out->where_touches_table = probe.References(where);
  }
}

// Right rows of one join keyed on the key's native representation: the
// index join memoizes its probe results here, the hash join its build side.
// Keys follow the one key rule of Value::Hash: an integral DOUBLE below 2^53
// shares the int entry of its INT (1.0 with 1, -0.0 with 0). Compare is
// exact there, so both keys probe the same rows with the same predicate
// coverage, and a match implies `=`. Other doubles key on their bits (every
// NaN on one canonical NaN), text on its bytes; an INT and a DOUBLE at or
// above 2^53 get separate entries (see Value::Hash). Map nodes are
// stable, so entry pointers survive later insertions.
class ProbeMemo {
 public:
  using Posting = std::vector<const Row*>;

  /// The entry for non-null `key`; `*fresh` is set when it was just made.
  Posting* Entry(const Value& key, bool* fresh) {
    if (key.type() == ValueType::kText) {
      auto [it, inserted] = by_text_.try_emplace(key.AsText());
      *fresh = inserted;
      return &it->second;
    }
    int64_t bits = 0;
    const size_t map = Native(key, &bits);
    auto [it, inserted] = by_bits_[map].try_emplace(bits);
    *fresh = inserted;
    return &it->second;
  }

  /// The entry for non-null `key`, or null; never inserts.
  const Posting* Find(const Value& key) const {
    if (key.type() == ValueType::kText) {
      auto it = by_text_.find(key.AsText());
      return it == by_text_.end() ? nullptr : &it->second;
    }
    int64_t bits = 0;
    const auto& by_bits = by_bits_[Native(key, &bits)];
    auto it = by_bits.find(bits);
    return it == by_bits.end() ? nullptr : &it->second;
  }

 private:
  // Native bits of a non-text key; returns its map (bool/int/double).
  static size_t Native(const Value& key, int64_t* bits) {
    switch (key.type()) {
      case ValueType::kBool:
        *bits = key.AsBool() ? 1 : 0;
        return 0;
      case ValueType::kInt:
        *bits = key.AsInt();
        return 1;
      default: {
        const double d = key.AsDouble();
        if (std::fabs(d) < 0x1p53 && d == std::trunc(d)) {
          *bits = static_cast<int64_t>(d);
          return 1;
        }
        // Every NaN is one value (Value::Compare), so they share one key.
        const double canonical =
            std::isnan(d) ? std::numeric_limits<double>::quiet_NaN() : d;
        std::memcpy(bits, &canonical, sizeof(*bits));
        return 2;
      }
    }
  }

  std::unordered_map<int64_t, Posting> by_bits_[3];  // bool/int/double
  std::unordered_map<std::string, Posting> by_text_;
};

// ---------- the statement runner ----------

class Runner {
 public:
  Runner(Database* db, TxnContext* ctx, const std::vector<Value>& params,
         const ExecOptions& opts,
         const std::map<std::string, Value>* named_params,
         const PreparedPlan* plan = nullptr,
         std::atomic<uint64_t>* access_path_hits = nullptr)
      : db_(db),
        ctx_(ctx),
        params_(params),
        opts_(opts),
        named_params_(named_params),
        plan_(plan),
        access_path_hits_(access_path_hits) {}

  Result<ResultSet> Run(const Statement& stmt);

 private:
  Result<ResultSet> RunSelect(const SelectStmt& stmt);
  Result<ResultSet> RunSelectImpl(const SelectStmt& stmt);
  Result<ResultSet> RunInsert(const InsertStmt& stmt);
  Result<ResultSet> RunUpdate(const UpdateStmt& stmt);
  Result<ResultSet> RunDelete(const DeleteStmt& stmt);
  Result<ResultSet> RunCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> RunCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> RunDropTable(const DropTableStmt& stmt);

  /// Scan one base table applying sargable conjuncts of `where`. `cached`
  /// is the plan's prepare-time access path for this scan (null = analyze
  /// on the fly).
  Result<Relation> ScanBase(const TableRef& ref, const Expr* where,
                            bool want_rids,
                            const AccessPath* cached = nullptr);

  /// Plan-cached access path for a statement node, when running via a plan.
  const AccessPath* CachedPath(const void* stmt_node) const {
    return plan_ != nullptr ? plan_->FindAccessPath(stmt_node) : nullptr;
  }
  Status JoinInto(Relation* left, const JoinClause& join);

  /// The columnar analytics path engages per SELECT when the options enable
  /// it and the transaction is pinned to a block-height snapshot (the node
  /// sets both up together for all-blockchain-table client queries). The
  /// plan-shape flag is a cheap prepare-time pre-filter; per-operator
  /// safety still falls back at runtime via columnar_fallback_.
  bool ColumnarEligible() const {
    if (!opts_.columnar.enabled || opts_.columnar.store == nullptr) {
      return false;
    }
    if (ctx_->mode() != TxnMode::kInternal) return false;
    if (ctx_->info()->snapshot.kind != Snapshot::Kind::kBlockHeight) {
      return false;
    }
    return plan_ == nullptr || plan_->columnar_shape_ok();
  }

  Status EnforceChecks(Table* table, const Row& row);

  EvalContext ConstCtx() const {
    EvalContext c;
    c.params = &params_;
    c.named_params = named_params_;
    return c;
  }
  EvalContext RowCtx(const EvalScope& scope, const ColumnBinding& binding,
                     const Row& row) const {
    EvalContext c = ConstCtx();
    c.scope = &scope;
    c.binding = &binding;
    c.row = &row;
    return c;
  }
  EvalContext PartsCtx(const EvalScope& scope, const ColumnBinding& binding,
                       const std::vector<size_t>& part_start,
                       const Row* const* tuple) const {
    EvalContext c = ConstCtx();
    c.scope = &scope;
    c.binding = &binding;
    c.parts = tuple;
    c.part_start = part_start.data();
    c.num_parts = part_start.size();
    return c;
  }
  EvalContext TupleCtx(const Relation& rel, const ColumnBinding& binding,
                       const Row* const* tuple) const {
    return PartsCtx(rel.scope, binding, rel.part_start, tuple);
  }

  Database* db_;
  TxnContext* ctx_;
  const std::vector<Value>& params_;
  const ExecOptions& opts_;
  const std::map<std::string, Value>* named_params_;
  const PreparedPlan* plan_;
  std::atomic<uint64_t>* access_path_hits_;

  /// True while RunSelectImpl executes on the columnar path: base scans of
  /// blockchain tables read sealed segments + tail instead of the MVCC
  /// scan, and joins swap the index probe for a hash join when provably
  /// result-identical. columnar_fallback_ signals "shape not provable —
  /// rerun this statement on the row path" (Status::Aborted carrier).
  bool use_columnar_ = false;
  bool columnar_fallback_ = false;
};

Result<Relation> Runner::ScanBase(const TableRef& ref, const Expr* where,
                                  bool want_rids, const AccessPath* cached) {
  auto table_r = db_->GetTable(ref.table);
  if (!table_r.ok()) return table_r.status();
  Table* table = table_r.value();
  const TableSchema& schema = table->schema();
  const bool provenance = ctx_->mode() == TxnMode::kProvenance;

  Relation rel;
  rel.part_start = {0};
  for (const auto& col : schema.columns()) {
    rel.scope.Add(ref.alias, col.name);
    rel.col_types.push_back(col.type);
  }
  if (provenance) {
    rel.scope.Add(ref.alias, "xmin");
    rel.scope.Add(ref.alias, "xmax");
    rel.scope.Add(ref.alias, "creator");
    rel.scope.Add(ref.alias, "deleter");
    rel.col_types.insert(rel.col_types.end(), 4, ValueType::kInt);
  }

  // Sargable access path: reuse the plan's prepare-time analysis when
  // available, otherwise analyze here. Constants are evaluated per
  // execution either way (they may reference $parameters), and the index
  // choice rule is identical, so cached and uncached scans behave the same.
  int best_col = -1;
  SargRange best_range;
  bool where_touches_table = false;
  if (where != nullptr && !provenance) {
    AccessPath local;
    const AccessPath* path = cached;
    if (path != nullptr && path->analyzed) {
      if (access_path_hits_ != nullptr) {
        access_path_hits_->fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      AnalyzeScanPath(table, ref, *where, &local);
      path = &local;
    }
    where_touches_table = path->where_touches_table;
    std::map<int, SargRange> ranges;
    for (const SargConjunct& sc : path->conjuncts) {
      auto v = Eval(*sc.constant, ConstCtx());
      if (!v.ok()) return v.status();
      if (v.value().is_null()) {
        return rel;  // col op NULL matches nothing
      }
      ranges[sc.column].Tighten(sc.op, v.value());
    }
    for (auto& [col, range] : ranges) {
      if (!range.bounded()) continue;
      if (best_col < 0 || (range.is_equality() && !best_range.is_equality())) {
        best_col = col;
        best_range = range;
      }
    }
  }

  if (provenance) {
    // Provenance sees every committed version with its metadata appended.
    std::vector<Row> rows;
    Status st = ctx_->ScanVersions(
        table, [&](RowId rid, const Row& values, const VersionMeta& meta) {
          Row row = values;
          row.push_back(Value::Int(static_cast<int64_t>(meta.xmin)));
          row.push_back(meta.xmax == 0
                            ? Value::Null()
                            : Value::Int(static_cast<int64_t>(meta.xmax)));
          row.push_back(meta.creator_block == 0
                            ? Value::Null()
                            : Value::Int(static_cast<int64_t>(meta.creator_block)));
          row.push_back(meta.deleter_block == 0
                            ? Value::Null()
                            : Value::Int(static_cast<int64_t>(meta.deleter_block)));
          rows.push_back(std::move(row));
          if (want_rids) rel.rids.push_back(rid);
          return true;
        });
    if (!st.ok()) return st;
    rel.Adopt(std::move(rows));
    return rel;
  }

  if (best_col < 0 && opts_.require_index_for_predicates && where != nullptr &&
      where_touches_table) {
    // Paper §4.3: in execute-order-in-parallel, predicate reads must be
    // served by an index; otherwise the node aborts the transaction.
    return Status::SerializationFailure(
        "predicate on table " + ref.table +
        " has no usable index (required by execute-order-in-parallel)");
  }

  const Value* lo = best_range.lo ? &*best_range.lo : nullptr;
  const Value* hi = best_range.hi ? &*best_range.hi : nullptr;

  if (use_columnar_ && !want_rids &&
      table->db_schema() == kBlockchainSchema) {
    // Columnar path: sealed segments + row-store tail at the transaction's
    // pinned snapshot height. ColumnarScan reproduces the candidate set and
    // emission order of the MVCC scan bit for bit, so everything downstream
    // (residual WHERE, joins, aggregation) is shared with the row path.
    // A full scan of a table with an indexed primary key emits in PK order
    // (TxnContext::ScanAll iterates the PK index for cross-node scan-order
    // determinism), which is exactly an unbounded range on the PK column.
    int scan_col = best_col;
    if (scan_col < 0) {
      int pk = table->schema().pk_column();
      if (pk >= 0 && table->HasIndexOn(pk)) scan_col = pk;
    }
    ColumnarScanStats cstats;
    Status st = ColumnarScan(opts_.columnar.store->SnapshotFor(table),
                             ctx_->info()->snapshot.height, scan_col, lo,
                             best_range.lo_inclusive, hi,
                             best_range.hi_inclusive, &rel.tuples, &cstats);
    if (!st.ok()) return st;
    if (opts_.columnar.zone_map_pruned != nullptr &&
        cstats.segments_pruned > 0) {
      opts_.columnar.zone_map_pruned->fetch_add(cstats.segments_pruned,
                                                std::memory_order_relaxed);
    }
    return rel;
  }

  // `values` is the table's arena payload: read in place, never copied.
  RowCallback cb = [&](RowId rid, const Row& values) {
    rel.tuples.push_back(&values);
    if (want_rids) rel.rids.push_back(rid);
    return true;
  };

  Status st;
  if (best_col >= 0) {
    st = ctx_->ScanRange(table, best_col, lo, best_range.lo_inclusive, hi,
                         best_range.hi_inclusive, cb);
  } else {
    st = ctx_->ScanAll(table, cb);
  }
  if (!st.ok()) return st;
  return rel;
}

Status Runner::JoinInto(Relation* left, const JoinClause& join) {
  auto right_table_r = db_->GetTable(join.table.table);
  if (!right_table_r.ok()) return right_table_r.status();
  Table* right_table = right_table_r.value();
  const TableSchema& rschema = right_table->schema();

  EvalScope combined = left->scope;
  std::vector<ValueType> combined_types = left->col_types;
  Relation right_proto;
  for (const auto& col : rschema.columns()) {
    right_proto.scope.Add(join.table.alias, col.name);
    combined_types.push_back(col.type);
  }
  const bool provenance = ctx_->mode() == TxnMode::kProvenance;
  if (provenance) {
    right_proto.scope.Add(join.table.alias, "xmin");
    right_proto.scope.Add(join.table.alias, "xmax");
    right_proto.scope.Add(join.table.alias, "creator");
    right_proto.scope.Add(join.table.alias, "deleter");
    combined_types.insert(combined_types.end(), 4, ValueType::kInt);
  }
  combined.Append(right_proto.scope);

  // Find equi-join conjuncts: left-expr = right-column (or flipped).
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(*join.on, &conjuncts);
  const Expr* left_key = nullptr;
  int right_key_col = -1;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
    auto classify = [&](const Expr& e) -> int {
      // 2 = column of right table, 1 = refers only to left scope, 0 = other
      if (e.kind == ExprKind::kColumn &&
          (e.qualifier == join.table.alias ||
           (e.qualifier.empty() &&
            rschema.ColumnIndex(e.column) >= 0 &&
            !left->scope.Resolve("", e.column).ok()))) {
        return 2;
      }
      if (left->scope.References(e) || !ContainsColumn(e)) return 1;
      return 0;
    };
    int ca = classify(*c->a), cb = classify(*c->b);
    const Expr* lk = nullptr;
    const Expr* rk = nullptr;
    if (ca == 2 && cb == 1) {
      rk = c->a.get();
      lk = c->b.get();
    } else if (cb == 2 && ca == 1) {
      rk = c->b.get();
      lk = c->a.get();
    } else {
      continue;
    }
    int col = rschema.ColumnIndex(rk->column);
    if (col < 0) continue;
    left_key = lk;
    right_key_col = col;
    break;
  }

  // Columnar mode replaces the per-left-row index probe with the hash join,
  // but only when provably result-identical: both key sides must be plain
  // columns of the same declared type in {INT, TEXT, BOOL}. For those types
  // a ProbeMemo match is exactly Compare-equality, the hash build (rid
  // order) emits matches in the index's posting order, and the match set is
  // identical. A DOUBLE key is not proven (it may hold INTs, and at or above
  // 2^53 Compare and the native key disagree), nor is a computed key, so
  // either reruns the whole statement on the row path.
  const bool equi = left_key != nullptr && right_key_col >= 0;
  bool columnar_hash = false;
  if (use_columnar_ && equi && right_table->HasIndexOn(right_key_col) &&
      !provenance) {
    const ValueType rt = rschema.columns()[static_cast<size_t>(right_key_col)]
                             .type;
    bool typed_ok = false;
    if (left_key->kind == ExprKind::kColumn &&
        (rt == ValueType::kInt || rt == ValueType::kText ||
         rt == ValueType::kBool)) {
      auto slot = left->scope.Resolve(left_key->qualifier, left_key->column);
      typed_ok = slot.ok() &&
                 left->col_types[static_cast<size_t>(slot.value())] == rt;
    }
    if (!typed_ok) {
      columnar_fallback_ = true;
      return Status::Aborted("columnar-fallback");
    }
    columnar_hash = true;
  }

  // ON is bound once against the combined scope and the left key against
  // the left scope. A reference that does not resolve stays unbound and
  // raises its error when it is evaluated.
  ColumnBinding on_binding;
  const bool on_resolves = BindColumns(*join.on, combined, &on_binding).ok();
  ColumnBinding key_binding;
  if (equi) BindColumns(*left_key, left->scope, &key_binding);
  // A right row from the key's posting compares equal to the key, so ON
  // needs no evaluation when the equi conjunct is all of it and every
  // column in it resolves in the combined scope: the left key then reads
  // the slots it read in the left scope (a left key that does not resolve
  // there fails before any candidate is formed), `=` is true, and Compare
  // is 0 only between comparable values, so it raises nothing.
  const bool skip_on_eval = equi && conjuncts.size() == 1 && on_resolves;

  // Output tuples are the left tuple's references plus one to the right
  // row; ON is evaluated on the candidate tuple and nothing is copied.
  const size_t lparts = left->num_parts();
  std::vector<size_t> combined_start = left->part_start;
  combined_start.push_back(left->scope.size());
  std::vector<const Row*> out;
  std::vector<const Row*> cand(lparts + 1);
  const Row* null_row = nullptr;
  if (join.left) {
    left->owned.push_back({Row(right_proto.scope.size(), Value::Null())});
    null_row = &left->owned.back().front();
  }

  auto emit = [&](const Row* const* lt, const Row* rrow) -> Result<bool> {
    std::copy(lt, lt + lparts, cand.begin());
    cand[lparts] = rrow;
    auto cond = EvalCondition(
        *join.on, PartsCtx(combined, on_binding, combined_start, cand.data()));
    if (!cond.ok()) return cond.status();
    if (cond.value()) out.insert(out.end(), cand.begin(), cand.end());
    return cond.value();
  };
  // Emits each candidate right row (null = none) that satisfies ON, or the
  // null-extended tuple when none does and the join is LEFT.
  auto emit_all = [&](const Row* const* lt,
                      const ProbeMemo::Posting* rrows) -> Status {
    bool matched = false;
    const size_t n = rrows != nullptr ? rrows->size() : 0;
    for (size_t j = 0; j < n; ++j) {
      if (skip_on_eval) {
        out.insert(out.end(), lt, lt + lparts);
        out.push_back((*rrows)[j]);
        matched = true;
        continue;
      }
      auto m = emit(lt, (*rrows)[j]);
      if (!m.ok()) return m.status();
      matched = matched || m.value();
    }
    if (!matched && join.left) {
      out.insert(out.end(), lt, lt + lparts);
      out.push_back(null_row);
    }
    return Status::OK();
  };

  if (equi && right_table->HasIndexOn(right_key_col) && !provenance &&
      !columnar_hash) {
    // Index nested-loop join, set at a time: one SSI-tracked probe per
    // distinct left key, its matches (in index posting order) memoized for
    // this call only. Exact: repeated probes of one key would register the
    // same point predicate again, which only duplicates rw edges that edge
    // insertion deduplicates, and running all probes of a key at one instant
    // is a schedule the per-row loop could have run. Emission stays in
    // left-row order, so the output is unchanged.
    ProbeMemo memo;
    for (size_t i = 0; i < left->size(); ++i) {
      const Row* const* lt = left->tuple(i);
      auto key = Eval(*left_key, TupleCtx(*left, key_binding, lt));
      if (!key.ok()) return key.status();
      ProbeMemo::Posting* rrows = nullptr;
      if (!key.value().is_null()) {
        bool fresh = false;
        rrows = memo.Entry(key.value(), &fresh);
        if (fresh) {
          Status st = ctx_->ScanRange(
              right_table, right_key_col, &key.value(), true, &key.value(),
              true, [rrows](RowId, const Row& values) {
                rrows->push_back(&values);
                return true;
              });
          if (!st.ok()) return st;
        }
      }
      BRDB_RETURN_NOT_OK(emit_all(lt, rrows));
    }
  } else {
    // Hash join when an equi key exists, nested loop otherwise.
    auto right_rel = ScanBase(join.table, nullptr, false);
    if (!right_rel.ok()) return right_rel.status();
    const std::vector<const Row*>& rrows = right_rel.value().tuples;
    // Rows the right scan had to materialize must live as long as the
    // result that points at them.
    left->owned.splice(left->owned.end(), right_rel.value().owned);
    if (equi) {
      // The build keys on ProbeMemo in right scan order and probes read
      // left tuples in order, so matches come out in nested-loop order. A
      // bare-column left key is read in place; any other is evaluated.
      auto rslot = right_rel.value().scope.Resolve(
          join.table.alias, rschema.columns()[right_key_col].name);
      if (!rslot.ok()) return rslot.status();
      ProbeMemo build;
      for (const Row* rrow : rrows) {
        const Value& k = (*rrow)[static_cast<size_t>(rslot.value())];
        bool fresh = false;
        if (!k.is_null()) build.Entry(k, &fresh)->push_back(rrow);
      }
      std::optional<std::pair<size_t, size_t>> lslot;
      if (left_key->kind == ExprKind::kColumn) {
        auto slot = left->scope.Resolve(left_key->qualifier, left_key->column);
        if (slot.ok()) lslot = left->Locate(static_cast<size_t>(slot.value()));
      }
      Value evaluated;
      for (size_t i = 0; i < left->size(); ++i) {
        const Row* const* lt = left->tuple(i);
        const Value* key = &evaluated;
        if (lslot.has_value()) {
          key = &(*lt[lslot->first])[lslot->second];
        } else {
          auto k = Eval(*left_key, TupleCtx(*left, key_binding, lt));
          if (!k.ok()) return k.status();
          evaluated = std::move(k).value();
        }
        BRDB_RETURN_NOT_OK(
            emit_all(lt, key->is_null() ? nullptr : build.Find(*key)));
      }
    } else {
      for (size_t i = 0; i < left->size(); ++i) {
        BRDB_RETURN_NOT_OK(emit_all(left->tuple(i), &rrows));
      }
    }
  }

  left->scope = std::move(combined);
  left->col_types = std::move(combined_types);
  left->part_start = std::move(combined_start);
  left->tuples = std::move(out);
  left->rids.clear();
  return Status::OK();
}

// Aggregate accumulator (one per aggregate call per group).
struct AggAcc {
  int64_t count = 0;
  __int128 isum = 0;  // exact: an INT SUM is out of range only at the end
  double dsum = 0;
  bool any_double = false;
  bool has = false;
  Value min, max;

  Status Update(const std::string& fn, const Value& v) {
    if (fn == "count") {
      if (!v.is_null()) ++count;  // COUNT(expr) skips NULLs; COUNT(*)
      return Status::OK();        // passes a non-null marker per row
    }
    if (v.is_null()) return Status::OK();
    const bool numeric = fn == "sum" || fn == "avg";
    // As in PostgreSQL, there is no sum(text) or avg(boolean).
    if (numeric && !v.IsNumeric()) {
      return Status::InvalidArgument(fn + " requires a numeric argument, got " +
                                     ValueTypeToString(v.type()));
    }
    has = true;
    if (numeric) {
      ++count;
      if (v.type() == ValueType::kDouble) {
        any_double = true;
        dsum += v.AsDouble();
      } else {
        isum += v.AsInt();
        dsum += static_cast<double>(v.AsInt());
      }
    } else if (fn == "min") {
      if (min.is_null() || v.Compare(min) < 0) min = v;
    } else if (fn == "max") {
      if (max.is_null() || v.Compare(max) > 0) max = v;
    }
    return Status::OK();
  }

  Result<Value> Final(const std::string& fn) const {
    if (fn == "count") return Value::Int(count);
    if (!has) return Value::Null();
    if (fn == "sum") {
      if (any_double) return Value::Double(dsum);
      if (isum < INT64_MIN || isum > INT64_MAX) {
        return Status::InvalidArgument("integer out of range");
      }
      return Value::Int(static_cast<int64_t>(isum));
    }
    if (fn == "avg") return Value::Double(dsum / static_cast<double>(count));
    if (fn == "min") return min;
    if (fn == "max") return max;
    return Value::Null();
  }
};

Result<ResultSet> Runner::RunSelect(const SelectStmt& stmt) {
  if (stmt.from.has_value() && ColumnarEligible()) {
    use_columnar_ = true;
    columnar_fallback_ = false;
    auto r = RunSelectImpl(stmt);
    use_columnar_ = false;
    if (!columnar_fallback_) {
      if (r.ok() && opts_.columnar.vectorized_scans != nullptr) {
        opts_.columnar.vectorized_scans->fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      return r;
    }
    // An operator shape could not be proven result-identical (e.g. an
    // index join on a widening key type): rerun the whole statement on the
    // row path. Correctness never depends on the columnar attempt.
    columnar_fallback_ = false;
    if (opts_.columnar.row_fallback_scans != nullptr) {
      opts_.columnar.row_fallback_scans->fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  return RunSelectImpl(stmt);
}

Result<ResultSet> Runner::RunSelectImpl(const SelectStmt& stmt) {
  Relation rel;
  if (stmt.from.has_value()) {
    auto base = ScanBase(*stmt.from, stmt.where.get(), false,
                         CachedPath(&stmt));
    if (!base.ok()) return base.status();
    rel = std::move(base).value();
    for (const auto& join : stmt.joins) {
      BRDB_RETURN_NOT_OK(JoinInto(&rel, join));
    }
  } else {
    rel.part_start = {0};
    rel.Adopt({Row{}});  // SELECT 1: one empty row, empty scope
  }

  // Name resolution, once per statement: rows are evaluated against the
  // bound slots. WHERE, GROUP BY and the select items also fail here on an
  // unknown column even when the input has zero rows (per-row evaluation
  // would never touch them).
  ColumnBinding binding;
  if (stmt.where) {
    BRDB_RETURN_NOT_OK(BindColumns(*stmt.where, rel.scope, &binding));
  }
  for (const auto& g : stmt.group_by) {
    BRDB_RETURN_NOT_OK(BindColumns(*g, rel.scope, &binding));
  }
  for (const auto& item : stmt.items) {
    if (item.expr) {
      BRDB_RETURN_NOT_OK(BindColumns(*item.expr, rel.scope, &binding));
    }
  }
  // ORDER BY and HAVING raise their errors per row.
  for (const auto& o : stmt.order_by) {
    BindColumns(*o.expr, rel.scope, &binding);
  }
  if (stmt.having) BindColumns(*stmt.having, rel.scope, &binding);

  // WHERE: keep the tuples that pass, compacted in place.
  if (stmt.where) {
    const size_t np = rel.num_parts();
    size_t kept = 0;
    for (size_t i = 0; i < rel.size(); ++i) {
      const Row* const* t = rel.tuple(i);
      auto c = EvalCondition(*stmt.where, TupleCtx(rel, binding, t));
      if (!c.ok()) return c.status();
      if (!c.value()) continue;
      for (size_t p = 0; p < np; ++p) rel.tuples[kept * np + p] = t[p];
      ++kept;
    }
    rel.tuples.resize(kept * np);
  }

  // Determine aggregation need.
  std::map<std::string, const Expr*> aggs;
  for (const auto& item : stmt.items) {
    if (item.expr) CollectAggregates(*item.expr, &aggs);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &aggs);
  for (const auto& o : stmt.order_by) CollectAggregates(*o.expr, &aggs);
  const bool aggregated = !aggs.empty() || !stmt.group_by.empty();

  if (stmt.limit.has_value() && stmt.order_by.empty() &&
      opts_.require_order_by_with_limit) {
    return Status::DeterminismViolation(
        "LIMIT/FETCH requires ORDER BY (paper §4.3 determinism rule)");
  }

  ResultSet out;

  // Output column names.
  auto output_name = [&](const SelectItem& item) -> std::string {
    if (!item.alias.empty()) return item.alias;
    if (item.expr->kind == ExprKind::kColumn) return item.expr->column;
    if (item.expr->kind == ExprKind::kFunction) return item.expr->func_name;
    return "expr";
  };

  if (aggregated) {
    for (const auto& item : stmt.items) {
      if (item.star) {
        return Status::InvalidArgument("SELECT * cannot be combined with "
                                       "aggregation");
      }
      out.columns.push_back(output_name(item));
    }

    // Group rows.
    struct Group {
      Row key_values;
      std::map<std::string, AggAcc> accs;
    };
    std::unordered_map<Row, Group, RowHasher> groups;
    std::vector<Row> group_order;  // deterministic iteration

    // Slot-resolved fast path: a plain column reference evaluates to
    // exactly Resolve + the slot's value (sql/eval.cc), so group keys and
    // aggregate arguments that are bare columns read their (part, column)
    // directly instead of walking the expression tree per row. Anything
    // else (or an unresolvable reference, which must keep producing the
    // same error) stays on Eval.
    struct SlotRef {
      bool direct = false;
      size_t part = 0;
      size_t col = 0;
    };
    auto column_slot = [&](const Expr& e) -> SlotRef {
      if (e.kind != ExprKind::kColumn) return {};
      auto s = rel.scope.Resolve(e.qualifier, e.column);
      if (!s.ok()) return {};
      auto [part, col] = rel.Locate(static_cast<size_t>(s.value()));
      return {true, part, col};
    };
    std::vector<SlotRef> group_slots;
    for (const auto& g : stmt.group_by) group_slots.push_back(column_slot(*g));
    struct AggPlan {
      const std::string* key;
      const Expr* expr;
      SlotRef arg;  // not direct = Eval the argument (or no argument)
    };
    std::vector<AggPlan> agg_plans;
    for (const auto& [agg_key, agg_expr] : aggs) {
      AggPlan p;
      p.key = &agg_key;
      p.expr = agg_expr;
      if (!agg_expr->star && !agg_expr->args.empty()) {
        p.arg = column_slot(*agg_expr->args[0]);
      }
      agg_plans.push_back(p);
    }

    for (size_t ri = 0; ri < rel.size(); ++ri) {
      const Row* const* t = rel.tuple(ri);
      Row key;
      for (size_t gi = 0; gi < stmt.group_by.size(); ++gi) {
        const SlotRef& g = group_slots[gi];
        if (g.direct) {
          key.push_back((*t[g.part])[g.col]);
          continue;
        }
        auto v = Eval(*stmt.group_by[gi], TupleCtx(rel, binding, t));
        if (!v.ok()) return v.status();
        key.push_back(std::move(v).value());
      }
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.key_values = key;
        group_order.push_back(key);
      }
      for (const AggPlan& p : agg_plans) {
        Value arg = Value::Null();
        if (p.arg.direct) {
          arg = (*t[p.arg.part])[p.arg.col];
        } else if (!p.expr->star && !p.expr->args.empty()) {
          auto v = Eval(*p.expr->args[0], TupleCtx(rel, binding, t));
          if (!v.ok()) return v.status();
          arg = std::move(v).value();
        } else if (p.expr->star) {
          arg = Value::Int(1);  // COUNT(*) counts every row
        }
        BRDB_RETURN_NOT_OK(
            it->second.accs[*p.key].Update(p.expr->func_name, arg));
      }
    }
    // Global aggregate over zero rows still emits one group.
    if (groups.empty() && stmt.group_by.empty()) {
      Row key;
      groups.try_emplace(key);
      groups[key].key_values = key;
      group_order.push_back(key);
      for (const auto& [agg_key, agg_expr] : aggs) {
        groups[key].accs[agg_key];  // default-initialized accumulator
      }
    }

    // Resolve ORDER BY references to output aliases onto the aliased item
    // expressions (e.g. ORDER BY total when SELECT SUM(x) AS total).
    std::vector<const Expr*> agg_order_exprs;
    for (const auto& o : stmt.order_by) {
      const Expr* e = o.expr.get();
      if (e->kind == ExprKind::kColumn && e->qualifier.empty()) {
        for (const auto& item : stmt.items) {
          if (item.alias == e->column && item.expr) {
            e = item.expr.get();
            break;
          }
        }
      }
      agg_order_exprs.push_back(e);
    }

    for (const Row& key : group_order) {
      Group& g = groups[key];
      AggBindings bindings;
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        bindings[stmt.group_by[i]->ToKey()] = g.key_values[i];
      }
      for (const auto& [agg_key, agg_expr] : aggs) {
        BRDB_ASSIGN_OR_RETURN(bindings[agg_key],
                              g.accs[agg_key].Final(agg_expr->func_name));
      }
      EvalContext agg_ctx;
      agg_ctx.params = &params_;
      agg_ctx.named_params = named_params_;
      agg_ctx.agg = &bindings;
      if (stmt.having) {
        auto keep = EvalCondition(*stmt.having, agg_ctx);
        if (!keep.ok()) return keep.status();
        if (!keep.value()) continue;
      }
      Row out_row;
      std::vector<Value> order_vals;
      for (const auto& item : stmt.items) {
        auto v = Eval(*item.expr, agg_ctx);
        if (!v.ok()) return v.status();
        out_row.push_back(std::move(v).value());
      }
      for (const Expr* oe : agg_order_exprs) {
        auto v = Eval(*oe, agg_ctx);
        if (!v.ok()) return v.status();
        order_vals.push_back(std::move(v).value());
      }
      out_row.insert(out_row.end(), order_vals.begin(), order_vals.end());
      out.rows.push_back(std::move(out_row));
    }

    // Sort on trailing order columns, then strip them.
    size_t width = stmt.items.size();
    if (!stmt.order_by.empty()) {
      std::stable_sort(out.rows.begin(), out.rows.end(),
                       [&](const Row& a, const Row& b) {
                         for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                           int c = a[width + i].Compare(b[width + i]);
                           if (c != 0) {
                             return stmt.order_by[i].desc ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    for (Row& r : out.rows) r.resize(width);
  } else {
    // Non-aggregated path. Resolve ORDER BY aliases to item expressions.
    std::vector<const Expr*> order_exprs;
    std::vector<ExprPtr> owned;
    for (const auto& o : stmt.order_by) {
      const Expr* e = o.expr.get();
      if (e->kind == ExprKind::kColumn && e->qualifier.empty() &&
          !rel.scope.Resolve("", e->column).ok()) {
        for (const auto& item : stmt.items) {
          if (item.alias == e->column && item.expr) {
            e = item.expr.get();
            break;
          }
        }
      }
      order_exprs.push_back(e);
    }

    // Pre-compute sort keys on input tuples, then project.
    struct Pending {
      size_t input;  // tuple index
      std::vector<Value> keys;
    };
    std::vector<Pending> pending;
    pending.reserve(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) {
      Pending p;
      p.input = i;
      for (const Expr* e : order_exprs) {
        auto v = Eval(*e, TupleCtx(rel, binding, rel.tuple(i)));
        if (!v.ok()) return v.status();
        p.keys.push_back(std::move(v).value());
      }
      pending.push_back(std::move(p));
    }
    if (!stmt.order_by.empty()) {
      std::stable_sort(pending.begin(), pending.end(),
                       [&](const Pending& a, const Pending& b) {
                         for (size_t i = 0; i < a.keys.size(); ++i) {
                           int c = a.keys[i].Compare(b.keys[i]);
                           if (c != 0) {
                             return stmt.order_by[i].desc ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }

    // Column names.
    for (const auto& item : stmt.items) {
      if (item.star) {
        for (const auto& b : rel.scope.bindings()) out.columns.push_back(b.name);
      } else {
        out.columns.push_back(output_name(item));
      }
    }
    for (const Pending& p : pending) {
      const Row* const* t = rel.tuple(p.input);
      Row out_row;
      for (const auto& item : stmt.items) {
        if (item.star) {
          for (size_t part = 0; part < rel.num_parts(); ++part) {
            out_row.insert(out_row.end(), t[part]->begin(), t[part]->end());
          }
        } else {
          auto v = Eval(*item.expr, TupleCtx(rel, binding, t));
          if (!v.ok()) return v.status();
          out_row.push_back(std::move(v).value());
        }
      }
      out.rows.push_back(std::move(out_row));
    }
  }

  if (stmt.distinct) {
    // Rows are equal as GROUP BY keys are (Value::operator==), first kept.
    std::unordered_set<Row, RowHasher> seen;
    std::vector<Row> unique;
    for (Row& r : out.rows) {
      if (seen.insert(r).second) unique.push_back(std::move(r));
    }
    out.rows = std::move(unique);
  }

  if (stmt.limit.has_value() &&
      out.rows.size() > static_cast<size_t>(*stmt.limit)) {
    out.rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return out;
}

Status Runner::EnforceChecks(Table* table, const Row& row) {
  const TableSchema& schema = table->schema();
  if (schema.check_constraints().empty()) return Status::OK();
  EvalScope scope;
  for (const auto& col : schema.columns()) {
    scope.Add(schema.name(), col.name);
  }
  const ColumnBinding unbound;  // each CHECK is evaluated once per row
  for (const std::string& text : schema.check_constraints()) {
    auto parsed = ParseExpression(text);
    if (!parsed.ok()) {
      return Status::Internal("stored CHECK failed to parse: " + text);
    }
    auto v = Eval(*parsed.value(), RowCtx(scope, unbound, row));
    if (!v.ok()) return v.status();
    // SQL semantics: only an explicit FALSE violates; NULL passes.
    if (!v.value().is_null() && v.value().type() == ValueType::kBool &&
        !v.value().AsBool()) {
      return Status::ConstraintViolation("CHECK (" + text +
                                         ") violated on table " +
                                         schema.name());
    }
  }
  return Status::OK();
}

Result<ResultSet> Runner::RunInsert(const InsertStmt& stmt) {
  auto table_r = db_->GetTable(stmt.table);
  if (!table_r.ok()) return table_r.status();
  Table* table = table_r.value();
  const TableSchema& schema = table->schema();

  // Map the provided column list to schema slots.
  std::vector<int> slots;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      slots.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& name : stmt.columns) {
      int idx = schema.ColumnIndex(name);
      if (idx < 0) {
        return Status::NotFound("no column " + name + " in table " +
                                stmt.table);
      }
      slots.push_back(idx);
    }
  }

  std::vector<Row> source_rows;
  if (stmt.select) {
    auto sub = RunSelectImpl(*stmt.select);
    if (!sub.ok()) return sub.status();
    for (Row& r : sub.value().rows) source_rows.push_back(std::move(r));
  } else {
    for (const auto& exprs : stmt.rows) {
      Row r;
      for (const auto& e : exprs) {
        auto v = Eval(*e, ConstCtx());
        if (!v.ok()) return v.status();
        r.push_back(std::move(v).value());
      }
      source_rows.push_back(std::move(r));
    }
  }

  ResultSet out;
  for (const Row& src : source_rows) {
    if (src.size() != slots.size()) {
      return Status::InvalidArgument(
          "INSERT provides " + std::to_string(src.size()) + " values for " +
          std::to_string(slots.size()) + " columns");
    }
    Row full(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < slots.size(); ++i) {
      full[static_cast<size_t>(slots[i])] = src[i];
    }
    BRDB_RETURN_NOT_OK(EnforceChecks(table, full));
    BRDB_RETURN_NOT_OK(ctx_->Insert(table, std::move(full)));
    ++out.affected;
  }
  return out;
}

Result<ResultSet> Runner::RunUpdate(const UpdateStmt& stmt) {
  if (opts_.forbid_blind_writes && stmt.where == nullptr) {
    return Status::NotSupported(
        "blind UPDATE without WHERE is not supported in "
        "execute-order-in-parallel (paper §3.4.3)");
  }
  auto table_r = db_->GetTable(stmt.table);
  if (!table_r.ok()) return table_r.status();
  Table* table = table_r.value();
  const TableSchema& schema = table->schema();

  std::vector<std::pair<int, const Expr*>> sets;
  for (const auto& [name, expr] : stmt.sets) {
    int idx = schema.ColumnIndex(name);
    if (idx < 0) {
      return Status::NotFound("no column " + name + " in table " + stmt.table);
    }
    sets.emplace_back(idx, expr.get());
  }

  TableRef ref;
  ref.table = stmt.table;
  ref.alias = stmt.table;
  auto rel_r =
      ScanBase(ref, stmt.where.get(), /*want_rids=*/true, CachedPath(&stmt));
  if (!rel_r.ok()) return rel_r.status();
  Relation rel = std::move(rel_r).value();
  ColumnBinding binding;
  if (stmt.where) {
    BRDB_RETURN_NOT_OK(BindColumns(*stmt.where, rel.scope, &binding));
  }
  for (const auto& [idx, expr] : sets) {
    (void)idx;
    BRDB_RETURN_NOT_OK(BindColumns(*expr, rel.scope, &binding));
  }

  // Collect matches first: updating while scanning would revisit our own
  // new versions. The references stay valid while Update appends versions
  // (Table::ValuesOf).
  std::vector<std::pair<RowId, const Row*>> matches;
  for (size_t i = 0; i < rel.size(); ++i) {
    const Row* row = rel.tuple(i)[0];
    if (stmt.where) {
      auto c = EvalCondition(*stmt.where, RowCtx(rel.scope, binding, *row));
      if (!c.ok()) return c.status();
      if (!c.value()) continue;
    }
    matches.emplace_back(rel.rids[i], row);
  }

  ResultSet out;
  for (const auto& [rid, old_row] : matches) {
    Row new_row = *old_row;
    for (const auto& [idx, expr] : sets) {
      auto v = Eval(*expr, RowCtx(rel.scope, binding, *old_row));
      if (!v.ok()) return v.status();
      new_row[static_cast<size_t>(idx)] = std::move(v).value();
    }
    BRDB_RETURN_NOT_OK(EnforceChecks(table, new_row));
    BRDB_RETURN_NOT_OK(ctx_->Update(table, rid, std::move(new_row)));
    ++out.affected;
  }
  return out;
}

Result<ResultSet> Runner::RunDelete(const DeleteStmt& stmt) {
  if (opts_.forbid_blind_writes && stmt.where == nullptr) {
    return Status::NotSupported(
        "blind DELETE without WHERE is not supported in "
        "execute-order-in-parallel (paper §3.4.3)");
  }
  auto table_r = db_->GetTable(stmt.table);
  if (!table_r.ok()) return table_r.status();
  Table* table = table_r.value();

  TableRef ref;
  ref.table = stmt.table;
  ref.alias = stmt.table;
  auto rel_r =
      ScanBase(ref, stmt.where.get(), /*want_rids=*/true, CachedPath(&stmt));
  if (!rel_r.ok()) return rel_r.status();
  Relation rel = std::move(rel_r).value();
  ColumnBinding binding;
  if (stmt.where) {
    BRDB_RETURN_NOT_OK(BindColumns(*stmt.where, rel.scope, &binding));
  }

  std::vector<RowId> victims;
  for (size_t i = 0; i < rel.size(); ++i) {
    if (stmt.where) {
      auto c = EvalCondition(*stmt.where,
                             RowCtx(rel.scope, binding, *rel.tuple(i)[0]));
      if (!c.ok()) return c.status();
      if (!c.value()) continue;
    }
    victims.push_back(rel.rids[i]);
  }

  ResultSet out;
  for (RowId rid : victims) {
    BRDB_RETURN_NOT_OK(ctx_->Delete(table, rid));
    ++out.affected;
  }
  return out;
}

Result<ResultSet> Runner::RunCreateTable(const CreateTableStmt& stmt) {
  if (!opts_.allow_ddl) {
    return Status::PermissionDenied(
        "DDL must be deployed through system smart contracts (paper §3.7)");
  }
  auto t = db_->CreateTable(SchemaOf(stmt));
  if (!t.ok()) return t.status();
  return ResultSet{};
}

Result<ResultSet> Runner::RunCreateIndex(const CreateIndexStmt& stmt) {
  if (!opts_.allow_ddl) {
    return Status::PermissionDenied(
        "DDL must be deployed through system smart contracts (paper §3.7)");
  }
  auto table_r = db_->GetTable(stmt.table);
  if (!table_r.ok()) return table_r.status();
  BRDB_RETURN_NOT_OK(table_r.value()->CreateIndex(stmt.column));
  // Index DDL changes which plans are legal under
  // require_index_for_predicates; invalidate cached plans like other DDL.
  db_->BumpSchemaVersion();
  return ResultSet{};
}

Result<ResultSet> Runner::RunDropTable(const DropTableStmt& stmt) {
  if (!opts_.allow_ddl) {
    return Status::PermissionDenied(
        "DDL must be deployed through system smart contracts (paper §3.7)");
  }
  BRDB_RETURN_NOT_OK(db_->DropTable(stmt.table));
  return ResultSet{};
}

}  // namespace

TableSchema SchemaOf(const CreateTableStmt& stmt) {
  std::vector<ColumnDef> cols;
  for (const auto& c : stmt.columns) {
    ColumnDef def;
    def.name = c.name;
    def.type = c.type;
    def.not_null = c.not_null;
    def.primary_key = c.primary_key;
    def.unique = c.unique;
    cols.push_back(std::move(def));
  }
  TableSchema schema(stmt.table, std::move(cols));
  for (const auto& check : stmt.check_exprs) {
    schema.AddCheckConstraint(check);
  }
  return schema;
}

Status CheckStatementDeterminism(const Statement& stmt) {
  std::vector<const Expr*> exprs;
  auto add = [&](const ExprPtr& e) {
    if (e) exprs.push_back(e.get());
  };
  auto add_select = [&](const SelectStmt* s, auto&& self) -> void {
    if (s == nullptr) return;
    for (const auto& item : s->items) add(item.expr);
    for (const auto& j : s->joins) add(j.on);
    add(s->where);
    for (const auto& g : s->group_by) add(g);
    add(s->having);
    for (const auto& o : s->order_by) add(o.expr);
    (void)self;
  };
  switch (stmt.type) {
    case StatementType::kSelect:
      add_select(stmt.select.get(), add_select);
      break;
    case StatementType::kInsert:
      for (const auto& row : stmt.insert->rows) {
        for (const auto& e : row) add(e);
      }
      add_select(stmt.insert->select.get(), add_select);
      break;
    case StatementType::kUpdate:
      for (const auto& [col, e] : stmt.update->sets) add(e);
      add(stmt.update->where);
      break;
    case StatementType::kDelete:
      add(stmt.del->where);
      break;
    default:
      break;
  }
  for (const Expr* e : exprs) {
    BRDB_RETURN_NOT_OK(CheckDeterministic(*e));
  }
  return Status::OK();
}

namespace {

Result<ResultSet> Runner::Run(const Statement& stmt) {
  BRDB_RETURN_NOT_OK(CheckStatementDeterminism(stmt));
  switch (stmt.type) {
    case StatementType::kSelect:
      return RunSelect(*stmt.select);
    case StatementType::kInsert:
      return RunInsert(*stmt.insert);
    case StatementType::kUpdate:
      return RunUpdate(*stmt.update);
    case StatementType::kDelete:
      return RunDelete(*stmt.del);
    case StatementType::kCreateTable:
      return RunCreateTable(*stmt.create_table);
    case StatementType::kCreateIndex:
      return RunCreateIndex(*stmt.create_index);
    case StatementType::kDropTable:
      return RunDropTable(*stmt.drop_table);
  }
  return Status::Internal("unhandled statement type");
}

}  // namespace

namespace {

/// Best-effort parameter type inference from the schema: positions where a
/// bare $n parameter flows into a typed slot (INSERT column, UPDATE SET,
/// comparison against a column) get that column's type. Unresolvable or
/// conflicting positions stay kNull (= bind freely).
void InferParamTypes(const Statement& stmt, Database* db, PreparedInfo* info) {
  if (info->param_count <= 0) return;
  info->param_types.assign(static_cast<size_t>(info->param_count),
                           ValueType::kNull);
  std::vector<bool> conflicted(info->param_types.size(), false);

  auto note = [&](int param_index, ValueType type) {
    if (param_index < 1 || param_index > info->param_count) return;
    if (type == ValueType::kNull) return;
    ValueType& slot = info->param_types[param_index - 1];
    if (conflicted[param_index - 1]) return;
    if (slot == ValueType::kNull) {
      slot = type;
    } else if (slot != type) {
      // Two different inferred types: give up on this position.
      slot = ValueType::kNull;
      conflicted[param_index - 1] = true;
    }
  };

  // Tables in scope (by alias) for column type lookups.
  std::map<std::string, const TableSchema*> scope;
  auto add_ref = [&](const TableRef& ref) {
    auto t = db->GetTable(ref.table);
    if (!t.ok()) return;
    const std::string& alias = ref.alias.empty() ? ref.table : ref.alias;
    scope[alias] = &t.value()->schema();
  };
  auto column_type = [&](const Expr& col) -> ValueType {
    for (const auto& [alias, schema] : scope) {
      if (!col.qualifier.empty() && col.qualifier != alias) continue;
      int idx = schema->ColumnIndex(col.column);
      if (idx >= 0) return schema->columns()[idx].type;
    }
    return ValueType::kNull;
  };
  auto note_comparisons = [&](const Expr& e) {
    if (e.kind != ExprKind::kBinary) return;
    switch (e.bin_op) {
      case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
      case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
        break;
      default:
        return;
    }
    const Expr* col = nullptr;
    const Expr* param = nullptr;
    if (e.a->kind == ExprKind::kColumn && e.b->kind == ExprKind::kParam) {
      col = e.a.get();
      param = e.b.get();
    } else if (e.b->kind == ExprKind::kColumn &&
               e.a->kind == ExprKind::kParam) {
      col = e.b.get();
      param = e.a.get();
    }
    if (col == nullptr || !param->param_name.empty()) return;
    note(param->param_index, column_type(*col));
  };

  switch (stmt.type) {
    case StatementType::kSelect: {
      const SelectStmt& s = *stmt.select;
      if (s.from) add_ref(*s.from);
      for (const auto& j : s.joins) add_ref(j.table);
      break;
    }
    case StatementType::kInsert: {
      auto t = db->GetTable(stmt.insert->table);
      if (t.ok()) {
        const TableSchema& schema = t.value()->schema();
        scope[stmt.insert->table] = &schema;
        // Map VALUES positions to column types.
        for (const auto& row : stmt.insert->rows) {
          for (size_t j = 0; j < row.size(); ++j) {
            if (!row[j] || row[j]->kind != ExprKind::kParam ||
                !row[j]->param_name.empty()) {
              continue;
            }
            int col_idx = -1;
            if (stmt.insert->columns.empty()) {
              col_idx = static_cast<int>(j);
            } else if (j < stmt.insert->columns.size()) {
              col_idx = schema.ColumnIndex(stmt.insert->columns[j]);
            }
            if (col_idx >= 0 &&
                col_idx < static_cast<int>(schema.num_columns())) {
              note(row[j]->param_index, schema.columns()[col_idx].type);
            }
          }
        }
      }
      break;
    }
    case StatementType::kUpdate: {
      auto t = db->GetTable(stmt.update->table);
      if (t.ok()) {
        const TableSchema& schema = t.value()->schema();
        scope[stmt.update->table] = &schema;
        for (const auto& [col, e] : stmt.update->sets) {
          if (e && e->kind == ExprKind::kParam && e->param_name.empty()) {
            int idx = schema.ColumnIndex(col);
            if (idx >= 0) note(e->param_index, schema.columns()[idx].type);
          }
        }
      }
      break;
    }
    case StatementType::kDelete: {
      auto t = db->GetTable(stmt.del->table);
      if (t.ok()) scope[stmt.del->table] = &t.value()->schema();
      break;
    }
    default:
      return;  // DDL takes no parameters
  }

  ForEachStatementExpr(stmt, note_comparisons);
}

/// Build the prepare-time access paths for every base-table scan the
/// statement will run: the SELECT's FROM scan (including INSERT ... SELECT)
/// and the UPDATE/DELETE target scan. Keyed by statement-node address —
/// the same pointers Runner passes to ScanBase. Unresolvable tables are
/// simply skipped (execution falls back to on-the-fly analysis, which will
/// surface the real error).
void BuildAccessPaths(Database* db, const Statement& stmt,
                      std::unordered_map<const void*, AccessPath>* out) {
  auto analyze = [&](const void* key, const TableRef& ref,
                     const Expr* where) {
    if (where == nullptr) return;
    auto table = db->GetTable(ref.table);
    if (!table.ok()) return;
    AccessPath path;
    AnalyzeScanPath(table.value(), ref, *where, &path);
    out->emplace(key, std::move(path));
  };
  auto analyze_select = [&](const SelectStmt* s) {
    if (s == nullptr || !s->from.has_value()) return;
    analyze(s, *s->from, s->where.get());
  };
  switch (stmt.type) {
    case StatementType::kSelect:
      analyze_select(stmt.select.get());
      break;
    case StatementType::kInsert:
      analyze_select(stmt.insert->select.get());
      break;
    case StatementType::kUpdate: {
      TableRef ref;
      ref.table = stmt.update->table;
      ref.alias = stmt.update->table;
      analyze(stmt.update.get(), ref, stmt.update->where.get());
      break;
    }
    case StatementType::kDelete: {
      TableRef ref;
      ref.table = stmt.del->table;
      ref.alias = stmt.del->table;
      analyze(stmt.del.get(), ref, stmt.del->where.get());
      break;
    }
    default:
      break;  // DDL scans nothing
  }
}

}  // namespace

Status CheckParamBinding(const PreparedInfo& info,
                         const std::vector<Value>& params) {
  if (static_cast<int>(params.size()) != info.param_count) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(info.param_count) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (i >= info.param_types.size()) break;
    ValueType expected = info.param_types[i];
    if (expected == ValueType::kNull) continue;  // unknown: bind freely
    const Value& v = params[i];
    if (v.is_null()) continue;                   // NULL binds anywhere
    if (v.type() == expected) continue;
    if (expected == ValueType::kDouble && v.type() == ValueType::kInt) {
      continue;  // numeric widening
    }
    return Status::InvalidArgument(
        "parameter $" + std::to_string(i + 1) + " expects " +
        ValueTypeToString(expected) + ", got " + ValueTypeToString(v.type()));
  }
  return Status::OK();
}

Status PreparedPlan::BindCheck(const std::vector<Value>& params) const {
  return CheckParamBinding(info_, params);
}

Result<std::shared_ptr<const PreparedPlan>> SqlEngine::Prepare(
    const std::string& sql) {
  const uint64_t version = db_->schema_version();
  {
    std::shared_lock<std::shared_mutex> lock(plans_mu_);
    auto it = plans_.find(sql);
    if (it != plans_.end() && it->second->schema_version() == version) {
      plan_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);

  auto parsed = Parse(sql);
  if (!parsed.ok()) return parsed.status();

  auto plan = std::make_shared<PreparedPlan>();
  plan->sql_ = sql;
  plan->stmt_ = std::move(parsed).value();
  plan->schema_version_ = version;
  plan->info_.type = plan->stmt_.type;
  plan->info_.param_count = MaxParamIndex(plan->stmt_);
  plan->columnar_shape_ok_ = plan->stmt_.type == StatementType::kSelect &&
                             plan->stmt_.select->from.has_value();
  InferParamTypes(plan->stmt_, db_, &plan->info_);
  // Physical access-path analysis: done once here, reused by every
  // execution of this plan until DDL bumps the schema version.
  BuildAccessPaths(db_, plan->stmt_, &plan->access_paths_);

  std::shared_ptr<const PreparedPlan> shared = std::move(plan);
  std::unique_lock<std::shared_mutex> lock(plans_mu_);
  auto [it, inserted] = plans_.emplace(sql, shared);
  if (inserted) {
    plan_fifo_.push_back(sql);
    while (plan_fifo_.size() > kPlanCacheCapacity) {
      plans_.erase(plan_fifo_.front());
      plan_fifo_.pop_front();
    }
  } else {
    it->second = shared;  // replace a stale-schema entry in place
  }
  return shared;
}

size_t SqlEngine::plan_cache_entries() const {
  std::shared_lock<std::shared_mutex> lock(plans_mu_);
  return plans_.size();
}

Result<ResultSet> SqlEngine::Execute(
    TxnContext* ctx, const std::string& sql, const std::vector<Value>& params,
    const ExecOptions& opts,
    const std::map<std::string, Value>* named_params) {
  auto plan = Prepare(sql);
  if (!plan.ok()) return plan.status();
  return RunStatement(ctx, plan.value().get(), plan.value()->statement(),
                      params, opts, named_params);
}

Result<ResultSet> SqlEngine::ExecutePrepared(
    TxnContext* ctx, const PreparedPlan& plan, const std::vector<Value>& params,
    const ExecOptions& opts,
    const std::map<std::string, Value>* named_params) {
  return RunStatement(ctx, &plan, plan.statement(), params, opts,
                      named_params);
}

Result<ResultSet> SqlEngine::ExecuteStatement(
    TxnContext* ctx, const Statement& stmt, const std::vector<Value>& params,
    const ExecOptions& opts,
    const std::map<std::string, Value>* named_params) {
  return RunStatement(ctx, nullptr, stmt, params, opts, named_params);
}

Result<ResultSet> SqlEngine::RunStatement(
    TxnContext* ctx, const PreparedPlan* plan, const Statement& stmt,
    const std::vector<Value>& params, const ExecOptions& opts,
    const std::map<std::string, Value>* named_params) {
  // A stale plan (DDL since Prepare) may reference renumbered columns or
  // dropped indexes; its access paths are ignored and the scan re-analyzes
  // on the fly — exactly the pre-cache behavior.
  if (plan != nullptr && plan->schema_version() != db_->schema_version()) {
    plan = nullptr;
  }
  Runner runner(db_, ctx, params, opts, named_params, plan,
                &access_path_hits_);
  return runner.Run(stmt);
}

}  // namespace sql
}  // namespace brdb
