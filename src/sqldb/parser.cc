#include "sqldb/parser.h"

#include "common/string_util.h"
#include "sqldb/lexer.h"

namespace p3pdb::sqldb {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseSingle() {
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseStatement());
    Consume(TokenType::kSemicolon);
    if (Current().type != TokenType::kEnd) {
      return ErrorHere("unexpected input after statement");
    }
    return stmt;
  }

  Result<std::vector<std::unique_ptr<Statement>>> ParseAll() {
    std::vector<std::unique_ptr<Statement>> out;
    for (;;) {
      while (Consume(TokenType::kSemicolon)) {
      }
      if (Current().type == TokenType::kEnd) break;
      P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                             ParseStatement());
      out.push_back(std::move(stmt));
      if (Current().type != TokenType::kEnd &&
          !Consume(TokenType::kSemicolon)) {
        return ErrorHere("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool Consume(TokenType type) {
    if (Current().type == type) {
      Advance();
      return true;
    }
    return false;
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (Current().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return ErrorHere("expected " + std::string(kw));
    }
    return Status::OK();
  }

  Status Expect(TokenType type, std::string_view what) {
    if (!Consume(type)) return ErrorHere("expected " + std::string(what));
    return Status::OK();
  }

  Status ErrorHere(std::string msg) const {
    return Status::ParseError(msg + " near offset " +
                              std::to_string(Current().offset) +
                              (Current().text.empty()
                                   ? std::string(" (end of input)")
                                   : " ('" + Current().text + "')"));
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Current().type != TokenType::kIdentifier) {
      return ErrorHere("expected " + std::string(what));
    }
    std::string name = Current().text;
    Advance();
    return name;
  }

  // ---- statements ----

  Result<std::unique_ptr<Statement>> ParseStatement() {
    param_count_ = 0;
    if (Current().IsKeyword("SELECT")) {
      P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect());
      sel->param_count = param_count_;
      return std::unique_ptr<Statement>(std::move(sel));
    }
    if (ConsumeKeyword("EXPLAIN")) {
      auto explain = std::make_unique<ExplainStmt>();
      explain->analyze = ConsumeKeyword("ANALYZE");
      P3PDB_ASSIGN_OR_RETURN(explain->select, ParseSelect());
      explain->select->param_count = param_count_;
      return std::unique_ptr<Statement>(std::move(explain));
    }
    if (ConsumeKeyword("INSERT")) return ParseInsert();
    if (ConsumeKeyword("UPDATE")) return ParseUpdate();
    if (ConsumeKeyword("DELETE")) return ParseDelete();
    if (ConsumeKeyword("CREATE")) return ParseCreate();
    if (ConsumeKeyword("DROP")) return ParseDrop();
    return ErrorHere("expected a SQL statement");
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto select = std::make_unique<SelectStmt>();
    if (ConsumeKeyword("DISTINCT")) select->distinct = true;

    // Select list.
    for (;;) {
      SelectItem item;
      if (Consume(TokenType::kStar)) {
        item.is_star = true;
      } else {
        P3PDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          P3PDB_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        }
      }
      select->items.push_back(std::move(item));
      if (!Consume(TokenType::kComma)) break;
    }

    if (ConsumeKeyword("FROM")) {
      for (;;) {
        TableRef ref;
        P3PDB_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
        // Optional alias: a bare identifier that is not a clause keyword.
        if (Current().type == TokenType::kIdentifier && !IsClauseKeyword()) {
          ref.alias = Current().text;
          Advance();
        } else {
          ref.alias = ref.table_name;
        }
        select->from.push_back(std::move(ref));
        if (!Consume(TokenType::kComma)) break;
      }
    }

    if (ConsumeKeyword("WHERE")) {
      P3PDB_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (Current().IsKeyword("GROUP")) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        select->group_by.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
    }
    if (Current().IsKeyword("ORDER")) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        OrderByItem item;
        P3PDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        select->order_by.push_back(std::move(item));
        if (!Consume(TokenType::kComma)) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Current().type != TokenType::kInteger) {
        return ErrorHere("expected LIMIT count");
      }
      select->limit = Current().int_value;
      Advance();
    }
    return select;
  }

  bool IsClauseKeyword() const {
    static constexpr std::string_view kClauses[] = {
        "WHERE", "GROUP", "ORDER", "LIMIT", "ON",     "SET",
        "AND",   "OR",    "AS",    "FROM",  "VALUES", "UNION"};
    for (std::string_view kw : kClauses) {
      if (Current().IsKeyword(kw)) return true;
    }
    return false;
  }

  Result<std::unique_ptr<Statement>> ParseInsert() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto insert = std::make_unique<InsertStmt>();
    P3PDB_ASSIGN_OR_RETURN(insert->table_name,
                           ExpectIdentifier("table name"));
    if (Consume(TokenType::kLeftParen)) {
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        insert->columns.push_back(std::move(col));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    }
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    for (;;) {
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
      std::vector<ExprPtr> row;
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      insert->rows.push_back(std::move(row));
      if (!Consume(TokenType::kComma)) break;
    }
    return std::unique_ptr<Statement>(std::move(insert));
  }

  Result<std::unique_ptr<Statement>> ParseUpdate() {
    auto update = std::make_unique<UpdateStmt>();
    P3PDB_ASSIGN_OR_RETURN(update->table_name,
                           ExpectIdentifier("table name"));
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("SET"));
    for (;;) {
      UpdateStmt::Assignment assignment;
      P3PDB_ASSIGN_OR_RETURN(assignment.column,
                             ExpectIdentifier("column name"));
      if (Current().type != TokenType::kOperator || Current().text != "=") {
        return ErrorHere("expected '=' in SET");
      }
      Advance();
      P3PDB_ASSIGN_OR_RETURN(assignment.value, ParseExpr());
      update->assignments.push_back(std::move(assignment));
      if (!Consume(TokenType::kComma)) break;
    }
    if (ConsumeKeyword("WHERE")) {
      P3PDB_ASSIGN_OR_RETURN(update->where, ParseExpr());
    }
    return std::unique_ptr<Statement>(std::move(update));
  }

  Result<std::unique_ptr<Statement>> ParseDelete() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto del = std::make_unique<DeleteStmt>();
    P3PDB_ASSIGN_OR_RETURN(del->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword("WHERE")) {
      P3PDB_ASSIGN_OR_RETURN(del->where, ParseExpr());
    }
    return std::unique_ptr<Statement>(std::move(del));
  }

  Result<std::unique_ptr<Statement>> ParseCreate() {
    bool unique = ConsumeKeyword("UNIQUE");
    if (ConsumeKeyword("INDEX")) {
      auto ci = std::make_unique<CreateIndexStmt>();
      ci->unique = unique;
      P3PDB_ASSIGN_OR_RETURN(ci->index_name, ExpectIdentifier("index name"));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("ON"));
      P3PDB_ASSIGN_OR_RETURN(ci->table_name, ExpectIdentifier("table name"));
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(std::string col,
                               ExpectIdentifier("column name"));
        ci->columns.push_back(std::move(col));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return std::unique_ptr<Statement>(std::move(ci));
    }
    if (unique) return ErrorHere("expected INDEX after UNIQUE");
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto ct = std::make_unique<CreateTableStmt>();
    if (Current().IsKeyword("IF")) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      ct->if_not_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(std::string table_name,
                           ExpectIdentifier("table name"));
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
    std::vector<ColumnDef> columns;
    std::vector<std::string> primary_key;
    std::vector<ForeignKeyDef> fks;
    for (;;) {
      if (Current().IsKeyword("PRIMARY")) {
        Advance();
        P3PDB_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          primary_key.push_back(std::move(col));
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      } else if (Current().IsKeyword("FOREIGN")) {
        Advance();
        P3PDB_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        ForeignKeyDef fk;
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          fk.columns.push_back(std::move(col));
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        P3PDB_RETURN_IF_ERROR(ExpectKeyword("REFERENCES"));
        P3PDB_ASSIGN_OR_RETURN(fk.referenced_table,
                               ExpectIdentifier("table name"));
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'('"));
        for (;;) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          fk.referenced_columns.push_back(std::move(col));
          if (!Consume(TokenType::kComma)) break;
        }
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        fks.push_back(std::move(fk));
      } else {
        ColumnDef col;
        P3PDB_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
        if (ConsumeKeyword("INTEGER") || ConsumeKeyword("INT") ||
            ConsumeKeyword("BIGINT")) {
          col.type = ColumnType::kInteger;
        } else if (ConsumeKeyword("VARCHAR") || ConsumeKeyword("CHAR")) {
          col.type = ColumnType::kText;
          if (Consume(TokenType::kLeftParen)) {
            if (Current().type != TokenType::kInteger) {
              return ErrorHere("expected length");
            }
            Advance();
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
          }
        } else if (ConsumeKeyword("TEXT") || ConsumeKeyword("CLOB")) {
          col.type = ColumnType::kText;
        } else {
          return ErrorHere("expected column type");
        }
        if (Current().IsKeyword("NOT")) {
          Advance();
          P3PDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
          col.nullable = false;
        } else {
          ConsumeKeyword("NULL");
        }
        columns.push_back(std::move(col));
      }
      if (!Consume(TokenType::kComma)) break;
    }
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    ct->schema = TableSchema(std::move(table_name), std::move(columns));
    ct->schema.set_primary_key(std::move(primary_key));
    for (ForeignKeyDef& fk : fks) ct->schema.AddForeignKey(std::move(fk));
    return std::unique_ptr<Statement>(std::move(ct));
  }

  Result<std::unique_ptr<Statement>> ParseDrop() {
    P3PDB_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto drop = std::make_unique<DropTableStmt>();
    if (Current().IsKeyword("IF")) {
      Advance();
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      drop->if_exists = true;
    }
    P3PDB_ASSIGN_OR_RETURN(drop->table_name, ExpectIdentifier("table name"));
    return std::unique_ptr<Statement>(std::move(drop));
  }

  // ---- expressions ----

  Result<ExprPtr> ParseExpr() {
    P3PDB_RETURN_IF_ERROR(EnterNesting());
    Result<ExprPtr> expr = ParseOr();
    --depth_;
    return expr;
  }

  /// Opens one expression nesting level (see kMaxExpressionDepth); the
  /// caller closes it with --depth_.
  Status EnterNesting() {
    if (depth_ == kMaxExpressionDepth) {
      return ErrorHere("expression nested deeper than " +
                       std::to_string(kMaxExpressionDepth) + " levels");
    }
    ++depth_;
    return Status::OK();
  }

  Result<ExprPtr> ParseOr() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseAnd());
    if (!Current().IsKeyword("OR")) return first;
    std::vector<ExprPtr> operands;
    operands.push_back(std::move(first));
    while (ConsumeKeyword("OR")) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseAnd());
      operands.push_back(std::move(next));
    }
    return ExprPtr(new LogicalExpr(/*and_op=*/false, std::move(operands)));
  }

  Result<ExprPtr> ParseAnd() {
    P3PDB_ASSIGN_OR_RETURN(ExprPtr first, ParseNot());
    if (!Current().IsKeyword("AND")) return first;
    std::vector<ExprPtr> operands;
    operands.push_back(std::move(first));
    while (ConsumeKeyword("AND")) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr next, ParseNot());
      operands.push_back(std::move(next));
    }
    return ExprPtr(new LogicalExpr(/*and_op=*/true, std::move(operands)));
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      // NOT EXISTS folds into the ExistsExpr.
      if (Current().IsKeyword("EXISTS")) {
        Advance();
        return ParseExistsBody(/*negated=*/true);
      }
      P3PDB_RETURN_IF_ERROR(EnterNesting());
      Result<ExprPtr> inner = ParseNot();
      --depth_;
      P3PDB_RETURN_IF_ERROR(inner.status());
      return ExprPtr(new NotExpr(std::move(inner).value()));
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParseExistsBody(bool negated) {
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'(' after EXISTS"));
    P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sub, ParseSelect());
    P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
    return ExprPtr(new ExistsExpr(negated, std::move(sub)));
  }

  Result<ExprPtr> ParsePredicate() {
    if (ConsumeKeyword("EXISTS")) return ParseExistsBody(/*negated=*/false);
    P3PDB_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());

    if (Current().type == TokenType::kOperator) {
      CompareOp op;
      const std::string& sym = Current().text;
      if (sym == "=") {
        op = CompareOp::kEq;
      } else if (sym == "<>") {
        op = CompareOp::kNe;
      } else if (sym == "<") {
        op = CompareOp::kLt;
      } else if (sym == "<=") {
        op = CompareOp::kLe;
      } else if (sym == ">") {
        op = CompareOp::kGt;
      } else {
        op = CompareOp::kGe;
      }
      Advance();
      P3PDB_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      return ExprPtr(new ComparisonExpr(op, std::move(left), std::move(right)));
    }
    if (Current().IsKeyword("IS")) {
      Advance();
      bool negated = ConsumeKeyword("NOT");
      P3PDB_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return ExprPtr(new IsNullExpr(std::move(left), negated));
    }
    bool negated = false;
    if (Current().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("IN")) {
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kLeftParen, "'(' after IN"));
      std::vector<ExprPtr> items;
      for (;;) {
        P3PDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        items.push_back(std::move(e));
        if (!Consume(TokenType::kComma)) break;
      }
      P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
      return ExprPtr(new InListExpr(std::move(left), std::move(items), negated));
    }
    if (ConsumeKeyword("LIKE")) {
      P3PDB_ASSIGN_OR_RETURN(ExprPtr pattern, ParsePrimary());
      char escape = '\0';
      if (ConsumeKeyword("ESCAPE")) {
        if (Current().type != TokenType::kString ||
            Current().text.size() != 1) {
          return ErrorHere("ESCAPE requires a single-character string");
        }
        escape = Current().text[0];
        Advance();
      }
      return ExprPtr(
          new LikeExpr(std::move(left), std::move(pattern), negated, escape));
    }
    return left;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Current();
    switch (tok.type) {
      case TokenType::kQuestion: {
        ExprPtr e(new ParamExpr(param_count_++));
        Advance();
        return e;
      }
      case TokenType::kString: {
        ExprPtr e(new LiteralExpr(Value::Text(tok.text)));
        Advance();
        return e;
      }
      case TokenType::kInteger: {
        ExprPtr e(new LiteralExpr(Value::Integer(tok.int_value)));
        Advance();
        return e;
      }
      case TokenType::kOperator:
        if (tok.text == "<" || tok.text == ">") break;
        break;
      case TokenType::kLeftParen: {
        Advance();
        P3PDB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
        return inner;
      }
      case TokenType::kIdentifier: {
        if (tok.IsKeyword("NULL")) {
          Advance();
          return ExprPtr(new LiteralExpr(Value::Null()));
        }
        if (tok.IsKeyword("TRUE")) {
          Advance();
          return ExprPtr(new LiteralExpr(Value::Boolean(true)));
        }
        if (tok.IsKeyword("FALSE")) {
          Advance();
          return ExprPtr(new LiteralExpr(Value::Boolean(false)));
        }
        // Aggregate function?
        if (Peek(1).type == TokenType::kLeftParen) {
          if (tok.IsKeyword("COUNT")) {
            Advance();
            Advance();  // '('
            if (Consume(TokenType::kStar)) {
              P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
              return ExprPtr(new AggregateExpr(AggFunc::kCountStar, nullptr));
            }
            P3PDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
            return ExprPtr(new AggregateExpr(AggFunc::kCount, std::move(arg)));
          }
          AggFunc func;
          bool is_agg = true;
          if (tok.IsKeyword("MIN")) {
            func = AggFunc::kMin;
          } else if (tok.IsKeyword("MAX")) {
            func = AggFunc::kMax;
          } else if (tok.IsKeyword("SUM")) {
            func = AggFunc::kSum;
          } else {
            is_agg = false;
            func = AggFunc::kCount;
          }
          if (is_agg) {
            Advance();
            Advance();  // '('
            P3PDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            P3PDB_RETURN_IF_ERROR(Expect(TokenType::kRightParen, "')'"));
            return ExprPtr(new AggregateExpr(func, std::move(arg)));
          }
        }
        // Column reference: ident or ident.ident.
        std::string first = tok.text;
        Advance();
        if (Consume(TokenType::kDot)) {
          P3PDB_ASSIGN_OR_RETURN(std::string col,
                                 ExpectIdentifier("column name"));
          return ExprPtr(new ColumnRefExpr(std::move(first), std::move(col)));
        }
        return ExprPtr(new ColumnRefExpr("", std::move(first)));
      }
      default:
        break;
    }
    return ErrorHere("expected expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // `?` placeholders seen so far in the current statement; becomes the root
  // SELECT's param_count.
  size_t param_count_ = 0;
  // Open expression nesting levels (see EnterNesting).
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseStatement(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingle();
}

Result<std::vector<std::unique_ptr<Statement>>> ParseScript(
    std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace p3pdb::sqldb
