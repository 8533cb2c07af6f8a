#include "sql/parser.h"

#include <algorithm>
#include <cstdlib>

#include "sql/token.h"

namespace brdb {
namespace sql {

namespace {

class Parser {
 public:
  Parser(const std::string& input, std::vector<Token> tokens)
      : input_(input), tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement();
  Result<ExprPtr> ParseStandaloneExpression();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool MatchKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchSymbol(const char* sym) {
    if (Peek().IsSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     " near position " +
                                     std::to_string(Peek().position));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const char* sym) {
    if (!MatchSymbol(sym)) {
      return Status::InvalidArgument(std::string("expected '") + sym +
                                     "' near position " +
                                     std::to_string(Peek().position));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     " near position " +
                                     std::to_string(Peek().position));
    }
    return Advance().text;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect();
  Result<Statement> ParseInsert();
  Result<Statement> ParseUpdate();
  Result<Statement> ParseDelete();
  Result<Statement> ParseCreate();
  Result<Statement> ParseDrop();

  Result<TableRef> ParseTableRef();
  Result<ValueType> ParseType();

  Result<ExprPtr> ParseExpr() { return ParseOr(); }
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();

  const std::string& input_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<ExprPtr> Parser::ParseOr() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (MatchKeyword("OR")) {
    BRDB_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = MakeBinary(BinOp::kOr, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (MatchKeyword("AND")) {
    BRDB_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = MakeBinary(BinOp::kAnd, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    BRDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
    return MakeUnary(UnOp::kNot, std::move(inner));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

  // IS [NOT] NULL
  if (MatchKeyword("IS")) {
    bool negated = MatchKeyword("NOT");
    BRDB_RETURN_NOT_OK(ExpectKeyword("NULL"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIsNull;
    e->negated = negated;
    e->a = std::move(left);
    return ExprPtr(std::move(e));
  }

  // [NOT] BETWEEN a AND b  /  [NOT] IN (list)
  bool negated = false;
  if (Peek().IsKeyword("NOT") &&
      (Peek(1).IsKeyword("BETWEEN") || Peek(1).IsKeyword("IN"))) {
    Advance();
    negated = true;
  }
  if (MatchKeyword("BETWEEN")) {
    BRDB_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    BRDB_RETURN_NOT_OK(ExpectKeyword("AND"));
    BRDB_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    ExprPtr ge = MakeBinary(BinOp::kGe, left->Clone(), std::move(lo));
    ExprPtr le = MakeBinary(BinOp::kLe, std::move(left), std::move(hi));
    ExprPtr both = MakeBinary(BinOp::kAnd, std::move(ge), std::move(le));
    if (negated) return MakeUnary(UnOp::kNot, std::move(both));
    return both;
  }
  if (MatchKeyword("IN")) {
    BRDB_RETURN_NOT_OK(ExpectSymbol("("));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kInList;
    e->negated = negated;
    e->a = std::move(left);
    do {
      BRDB_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
      e->args.push_back(std::move(item));
    } while (MatchSymbol(","));
    BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
    return ExprPtr(std::move(e));
  }

  // binary comparisons
  struct OpMap {
    const char* sym;
    BinOp op;
  };
  static const OpMap kOps[] = {{"=", BinOp::kEq},  {"<>", BinOp::kNe},
                               {"<=", BinOp::kLe}, {">=", BinOp::kGe},
                               {"<", BinOp::kLt},  {">", BinOp::kGt}};
  for (const auto& [sym, op] : kOps) {
    if (MatchSymbol(sym)) {
      BRDB_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      return MakeBinary(op, std::move(left), std::move(right));
    }
  }
  return left;
}

Result<ExprPtr> Parser::ParseAdditive() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  for (;;) {
    BinOp op;
    if (MatchSymbol("+")) {
      op = BinOp::kAdd;
    } else if (MatchSymbol("-")) {
      op = BinOp::kSub;
    } else if (MatchSymbol("||")) {
      op = BinOp::kConcat;
    } else {
      break;
    }
    BRDB_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  for (;;) {
    BinOp op;
    if (MatchSymbol("*")) {
      op = BinOp::kMul;
    } else if (MatchSymbol("/")) {
      op = BinOp::kDiv;
    } else if (MatchSymbol("%")) {
      op = BinOp::kMod;
    } else {
      break;
    }
    BRDB_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    left = MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (MatchSymbol("-")) {
    BRDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    return MakeUnary(UnOp::kNeg, std::move(inner));
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kInteger: {
      Advance();
      return MakeLiteral(Value::Int(std::strtoll(t.text.c_str(), nullptr, 10)));
    }
    case TokenType::kFloat: {
      Advance();
      return MakeLiteral(Value::Double(std::strtod(t.text.c_str(), nullptr)));
    }
    case TokenType::kString: {
      Advance();
      return MakeLiteral(Value::Text(t.text));
    }
    case TokenType::kParam: {
      Advance();
      bool numeric = !t.text.empty();
      for (char ch : t.text) {
        if (!std::isdigit(static_cast<unsigned char>(ch))) {
          numeric = false;
          break;
        }
      }
      if (numeric) {
        return MakeParam(
            static_cast<int>(std::strtol(t.text.c_str(), nullptr, 10)));
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kParam;
      e->param_name = t.text;
      return ExprPtr(std::move(e));
    }
    case TokenType::kKeyword: {
      if (MatchKeyword("NULL")) return MakeLiteral(Value::Null());
      if (MatchKeyword("TRUE")) return MakeLiteral(Value::Bool(true));
      if (MatchKeyword("FALSE")) return MakeLiteral(Value::Bool(false));
      if (MatchKeyword("CASE")) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kCase;
        while (MatchKeyword("WHEN")) {
          BRDB_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
          BRDB_RETURN_NOT_OK(ExpectKeyword("THEN"));
          BRDB_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
          e->whens.emplace_back(std::move(cond), std::move(then));
        }
        if (e->whens.empty()) {
          return Status::InvalidArgument("CASE requires at least one WHEN");
        }
        if (MatchKeyword("ELSE")) {
          BRDB_ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
          e->else_expr = std::move(els);
        }
        BRDB_RETURN_NOT_OK(ExpectKeyword("END"));
        return ExprPtr(std::move(e));
      }
      return Status::InvalidArgument("unexpected keyword " + t.text +
                                     " in expression");
    }
    case TokenType::kSymbol: {
      if (MatchSymbol("(")) {
        BRDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
        return inner;
      }
      return Status::InvalidArgument("unexpected symbol '" + t.text +
                                     "' in expression");
    }
    case TokenType::kIdentifier: {
      std::string first = Advance().text;
      // function call
      if (Peek().IsSymbol("(")) {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFunction;
        e->func_name = first;
        if (MatchSymbol("*")) {
          e->star = true;
          BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
          return ExprPtr(std::move(e));
        }
        if (!MatchSymbol(")")) {
          // DISTINCT inside aggregates is not supported.
          if (Peek().IsKeyword("DISTINCT")) {
            return Status::NotSupported("DISTINCT inside aggregate");
          }
          do {
            BRDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            e->args.push_back(std::move(arg));
          } while (MatchSymbol(","));
          BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
        }
        return ExprPtr(std::move(e));
      }
      // qualified column
      if (Peek().IsSymbol(".")) {
        Advance();
        BRDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        return MakeColumn(first, col);
      }
      return MakeColumn("", first);
    }
    case TokenType::kEnd:
      return Status::InvalidArgument("unexpected end of input in expression");
  }
  return Status::InvalidArgument("unparsable expression");
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  BRDB_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier("table name"));
  if (MatchKeyword("AS")) {
    BRDB_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
  } else if (Peek().type == TokenType::kIdentifier) {
    ref.alias = Advance().text;
  } else {
    ref.alias = ref.table;
  }
  return ref;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("SELECT"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = MatchKeyword("DISTINCT");

  do {
    SelectItem item;
    if (MatchSymbol("*")) {
      item.star = true;
    } else {
      BRDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        BRDB_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("output alias"));
      } else if (Peek().type == TokenType::kIdentifier &&
                 !Peek(1).IsSymbol("(") && !Peek(1).IsSymbol(".")) {
        item.alias = Advance().text;
      }
    }
    stmt->items.push_back(std::move(item));
  } while (MatchSymbol(","));

  if (MatchKeyword("FROM")) {
    BRDB_ASSIGN_OR_RETURN(TableRef from, ParseTableRef());
    stmt->from = std::move(from);
    for (;;) {
      bool left = false;
      if (Peek().IsKeyword("LEFT")) {
        Advance();
        left = true;
        (void)MatchKeyword("INNER");  // not valid but harmless
        BRDB_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      } else if (Peek().IsKeyword("INNER")) {
        Advance();
        BRDB_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      } else if (Peek().IsKeyword("JOIN")) {
        Advance();
      } else {
        break;
      }
      JoinClause join;
      join.left = left;
      BRDB_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      BRDB_RETURN_NOT_OK(ExpectKeyword("ON"));
      BRDB_ASSIGN_OR_RETURN(join.on, ParseExpr());
      stmt->joins.push_back(std::move(join));
    }
  }

  if (MatchKeyword("WHERE")) {
    BRDB_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (MatchKeyword("GROUP")) {
    BRDB_RETURN_NOT_OK(ExpectKeyword("BY"));
    do {
      BRDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("HAVING")) {
    BRDB_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (MatchKeyword("ORDER")) {
    BRDB_RETURN_NOT_OK(ExpectKeyword("BY"));
    do {
      OrderItem item;
      BRDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.desc = true;
      } else {
        (void)MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().type != TokenType::kInteger) {
      return Status::InvalidArgument("LIMIT expects an integer literal");
    }
    stmt->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
  } else if (MatchKeyword("FETCH")) {
    // FETCH FIRST n ROWS ONLY
    BRDB_RETURN_NOT_OK(ExpectKeyword("FIRST"));
    if (Peek().type != TokenType::kInteger) {
      return Status::InvalidArgument("FETCH FIRST expects an integer literal");
    }
    stmt->limit = std::strtoll(Advance().text.c_str(), nullptr, 10);
    BRDB_RETURN_NOT_OK(ExpectKeyword("ROWS"));
    BRDB_RETURN_NOT_OK(ExpectKeyword("ONLY"));
  }
  return stmt;
}

Result<Statement> Parser::ParseInsert() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("INSERT"));
  BRDB_RETURN_NOT_OK(ExpectKeyword("INTO"));
  auto insert = std::make_unique<InsertStmt>();
  BRDB_ASSIGN_OR_RETURN(insert->table, ExpectIdentifier("table name"));

  if (Peek().IsSymbol("(")) {
    Advance();
    do {
      BRDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      insert->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
  }

  if (MatchKeyword("VALUES")) {
    do {
      BRDB_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        BRDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (MatchSymbol(","));
      BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
      insert->rows.push_back(std::move(row));
    } while (MatchSymbol(","));
  } else if (Peek().IsKeyword("SELECT")) {
    BRDB_ASSIGN_OR_RETURN(insert->select, ParseSelect());
  } else {
    return Status::InvalidArgument("INSERT expects VALUES or SELECT");
  }

  Statement stmt;
  stmt.type = StatementType::kInsert;
  stmt.insert = std::move(insert);
  return stmt;
}

Result<Statement> Parser::ParseUpdate() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
  auto update = std::make_unique<UpdateStmt>();
  BRDB_ASSIGN_OR_RETURN(update->table, ExpectIdentifier("table name"));
  BRDB_RETURN_NOT_OK(ExpectKeyword("SET"));
  do {
    BRDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    BRDB_RETURN_NOT_OK(ExpectSymbol("="));
    BRDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    update->sets.emplace_back(std::move(col), std::move(e));
  } while (MatchSymbol(","));
  if (MatchKeyword("WHERE")) {
    BRDB_ASSIGN_OR_RETURN(update->where, ParseExpr());
  }
  Statement stmt;
  stmt.type = StatementType::kUpdate;
  stmt.update = std::move(update);
  return stmt;
}

Result<Statement> Parser::ParseDelete() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("DELETE"));
  BRDB_RETURN_NOT_OK(ExpectKeyword("FROM"));
  auto del = std::make_unique<DeleteStmt>();
  BRDB_ASSIGN_OR_RETURN(del->table, ExpectIdentifier("table name"));
  if (MatchKeyword("WHERE")) {
    BRDB_ASSIGN_OR_RETURN(del->where, ParseExpr());
  }
  Statement stmt;
  stmt.type = StatementType::kDelete;
  stmt.del = std::move(del);
  return stmt;
}

Result<ValueType> Parser::ParseType() {
  if (MatchKeyword("INT") || MatchKeyword("INTEGER") || MatchKeyword("BIGINT")) {
    return ValueType::kInt;
  }
  if (MatchKeyword("DOUBLE")) {
    (void)MatchKeyword("PRECISION");
    return ValueType::kDouble;
  }
  if (MatchKeyword("FLOAT") || MatchKeyword("REAL")) return ValueType::kDouble;
  if (MatchKeyword("TEXT")) return ValueType::kText;
  if (MatchKeyword("VARCHAR") || MatchKeyword("CHAR")) {
    if (MatchSymbol("(")) {
      if (Peek().type != TokenType::kInteger) {
        return Status::InvalidArgument("VARCHAR length must be an integer");
      }
      Advance();
      BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    return ValueType::kText;
  }
  if (MatchKeyword("BOOL") || MatchKeyword("BOOLEAN")) return ValueType::kBool;
  return Status::InvalidArgument("unknown column type near position " +
                                 std::to_string(Peek().position));
}

Result<Statement> Parser::ParseCreate() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("CREATE"));
  if (MatchKeyword("TABLE")) {
    auto create = std::make_unique<CreateTableStmt>();
    BRDB_ASSIGN_OR_RETURN(create->table, ExpectIdentifier("table name"));
    BRDB_RETURN_NOT_OK(ExpectSymbol("("));
    do {
      // Table-level CHECK constraint.
      if (Peek().IsKeyword("CHECK") || Peek().IsKeyword("CONSTRAINT")) {
        if (MatchKeyword("CONSTRAINT")) {
          BRDB_ASSIGN_OR_RETURN(std::string ignored,
                                ExpectIdentifier("constraint name"));
          (void)ignored;
        }
        BRDB_RETURN_NOT_OK(ExpectKeyword("CHECK"));
        BRDB_RETURN_NOT_OK(ExpectSymbol("("));
        size_t expr_start = Peek().position;
        BRDB_ASSIGN_OR_RETURN(ExprPtr parsed, ParseExpr());
        (void)parsed;  // validated now, re-parsed from text at execution
        size_t expr_end = Peek().position;
        BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
        create->check_exprs.push_back(
            input_.substr(expr_start, expr_end - expr_start));
        continue;
      }
      ColumnDefAst col;
      BRDB_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      BRDB_ASSIGN_OR_RETURN(col.type, ParseType());
      for (;;) {
        if (MatchKeyword("PRIMARY")) {
          BRDB_RETURN_NOT_OK(ExpectKeyword("KEY"));
          col.primary_key = true;
        } else if (MatchKeyword("NOT")) {
          BRDB_RETURN_NOT_OK(ExpectKeyword("NULL"));
          col.not_null = true;
        } else if (MatchKeyword("UNIQUE")) {
          col.unique = true;
        } else if (Peek().IsKeyword("CHECK")) {
          Advance();
          BRDB_RETURN_NOT_OK(ExpectSymbol("("));
          size_t expr_start = Peek().position;
          BRDB_ASSIGN_OR_RETURN(ExprPtr parsed, ParseExpr());
          (void)parsed;
          size_t expr_end = Peek().position;
          BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
          create->check_exprs.push_back(
              input_.substr(expr_start, expr_end - expr_start));
        } else {
          break;
        }
      }
      create->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
    if (create->columns.empty()) {
      return Status::InvalidArgument("CREATE TABLE requires columns");
    }
    Statement stmt;
    stmt.type = StatementType::kCreateTable;
    stmt.create_table = std::move(create);
    return stmt;
  }
  if (MatchKeyword("INDEX")) {
    auto create = std::make_unique<CreateIndexStmt>();
    BRDB_ASSIGN_OR_RETURN(create->index_name, ExpectIdentifier("index name"));
    BRDB_RETURN_NOT_OK(ExpectKeyword("ON"));
    BRDB_ASSIGN_OR_RETURN(create->table, ExpectIdentifier("table name"));
    BRDB_RETURN_NOT_OK(ExpectSymbol("("));
    BRDB_ASSIGN_OR_RETURN(create->column, ExpectIdentifier("column name"));
    BRDB_RETURN_NOT_OK(ExpectSymbol(")"));
    Statement stmt;
    stmt.type = StatementType::kCreateIndex;
    stmt.create_index = std::move(create);
    return stmt;
  }
  return Status::InvalidArgument("CREATE expects TABLE or INDEX");
}

Result<Statement> Parser::ParseDrop() {
  BRDB_RETURN_NOT_OK(ExpectKeyword("DROP"));
  BRDB_RETURN_NOT_OK(ExpectKeyword("TABLE"));
  auto drop = std::make_unique<DropTableStmt>();
  BRDB_ASSIGN_OR_RETURN(drop->table, ExpectIdentifier("table name"));
  Statement stmt;
  stmt.type = StatementType::kDropTable;
  stmt.drop_table = std::move(drop);
  return stmt;
}

Result<Statement> Parser::ParseStatement() {
  Result<Statement> result = [&]() -> Result<Statement> {
    const Token& t = Peek();
    if (t.IsKeyword("SELECT")) {
      BRDB_ASSIGN_OR_RETURN(auto select, ParseSelect());
      Statement stmt;
      stmt.type = StatementType::kSelect;
      stmt.select = std::move(select);
      return stmt;
    }
    if (t.IsKeyword("INSERT")) return ParseInsert();
    if (t.IsKeyword("UPDATE")) return ParseUpdate();
    if (t.IsKeyword("DELETE")) return ParseDelete();
    if (t.IsKeyword("CREATE")) return ParseCreate();
    if (t.IsKeyword("DROP")) return ParseDrop();
    return Status::InvalidArgument("unsupported statement");
  }();
  if (!result.ok()) return result;
  (void)MatchSymbol(";");
  if (Peek().type != TokenType::kEnd) {
    return Status::InvalidArgument("trailing input after statement, position " +
                                   std::to_string(Peek().position));
  }
  return result;
}

Result<ExprPtr> Parser::ParseStandaloneExpression() {
  BRDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
  if (Peek().type != TokenType::kEnd) {
    return Status::InvalidArgument("trailing input after expression");
  }
  return e;
}

}  // namespace

Result<Statement> Parse(const std::string& input) {
  auto tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(input, std::move(tokens).value());
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(const std::string& input) {
  auto tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(input, std::move(tokens).value());
  return parser.ParseStandaloneExpression();
}

namespace {

void WalkExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  if (e.a) WalkExpr(*e.a, fn);
  if (e.b) WalkExpr(*e.b, fn);
  for (const auto& arg : e.args) {
    if (arg) WalkExpr(*arg, fn);
  }
  for (const auto& [when, then] : e.whens) {
    WalkExpr(*when, fn);
    WalkExpr(*then, fn);
  }
  if (e.else_expr) WalkExpr(*e.else_expr, fn);
}

void WalkSelect(const SelectStmt& s,
                const std::function<void(const Expr&)>& fn) {
  for (const auto& item : s.items) {
    if (item.expr) WalkExpr(*item.expr, fn);
  }
  for (const auto& join : s.joins) {
    if (join.on) WalkExpr(*join.on, fn);
  }
  if (s.where) WalkExpr(*s.where, fn);
  for (const auto& g : s.group_by) {
    if (g) WalkExpr(*g, fn);
  }
  if (s.having) WalkExpr(*s.having, fn);
  for (const auto& o : s.order_by) {
    if (o.expr) WalkExpr(*o.expr, fn);
  }
}

}  // namespace

void ForEachStatementExpr(const Statement& stmt,
                          const std::function<void(const Expr&)>& fn) {
  switch (stmt.type) {
    case StatementType::kSelect:
      WalkSelect(*stmt.select, fn);
      break;
    case StatementType::kInsert:
      for (const auto& row : stmt.insert->rows) {
        for (const auto& e : row) {
          if (e) WalkExpr(*e, fn);
        }
      }
      if (stmt.insert->select) WalkSelect(*stmt.insert->select, fn);
      break;
    case StatementType::kUpdate:
      for (const auto& [col, e] : stmt.update->sets) {
        if (e) WalkExpr(*e, fn);
      }
      if (stmt.update->where) WalkExpr(*stmt.update->where, fn);
      break;
    case StatementType::kDelete:
      if (stmt.del->where) WalkExpr(*stmt.del->where, fn);
      break;
    case StatementType::kCreateTable:
    case StatementType::kCreateIndex:
    case StatementType::kDropTable:
      break;
  }
}

int MaxParamIndex(const Statement& stmt) {
  int max_index = 0;
  ForEachStatementExpr(stmt, [&max_index](const Expr& e) {
    if (e.kind == ExprKind::kParam && e.param_name.empty()) {
      max_index = std::max(max_index, e.param_index);
    }
  });
  return max_index;
}

}  // namespace sql
}  // namespace brdb
