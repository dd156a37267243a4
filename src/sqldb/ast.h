// Abstract syntax tree for the sqldb SQL dialect.
//
// The dialect covers what the APPEL translators generate plus enough general
// SQL to be usable on its own: SELECT with correlated EXISTS subqueries,
// IN lists, LIKE, IS NULL, aggregates with GROUP BY, DISTINCT, ORDER BY and
// LIMIT; INSERT ... VALUES; DELETE; CREATE/DROP TABLE; CREATE INDEX.
//
// The binder annotates the tree in place (column refs get scope coordinates,
// table refs get table pointers); see binder.h.

#ifndef P3PDB_SQLDB_AST_H_
#define P3PDB_SQLDB_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

class Index;
class Table;
struct SelectStmt;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kParam,
  kColumnRef,
  kComparison,
  kLogical,
  kNot,
  kExists,
  kInList,
  kIsNull,
  kLike,
  kAggregate,
  kHashJoin,
};

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  /// Renders the expression back to SQL text (debugging / EXPLAIN).
  virtual std::string ToSql() const = 0;

  const ExprKind kind;
};

using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  std::string ToSql() const override { return value.ToString(); }

  Value value;
};

/// A `?` bind-parameter placeholder. Parameters are numbered left to right
/// across the whole statement (the root SelectStmt records the total in
/// `param_count`); values are supplied per execution, so one bound statement
/// serves concurrent executions with different inputs.
struct ParamExpr : Expr {
  explicit ParamExpr(size_t i) : Expr(ExprKind::kParam), index(i) {}
  std::string ToSql() const override { return "?"; }

  size_t index;
};

/// `column` or `table.column`. The binder fills the scope coordinates:
/// `level` counts enclosing SELECTs (0 = the SELECT containing this ref),
/// `table_slot` indexes that SELECT's FROM list, `column_ordinal` indexes the
/// table's columns.
struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string table, std::string column)
      : Expr(ExprKind::kColumnRef),
        table_name(std::move(table)),
        column_name(std::move(column)) {}
  std::string ToSql() const override {
    return table_name.empty() ? column_name : table_name + "." + column_name;
  }

  std::string table_name;  // may be empty (unqualified)
  std::string column_name;

  // Binder output.
  int level = -1;
  size_t table_slot = 0;
  size_t column_ordinal = 0;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSql(CompareOp op);

struct ComparisonExpr : Expr {
  ComparisonExpr(CompareOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kComparison),
        op(o),
        left(std::move(l)),
        right(std::move(r)) {}
  std::string ToSql() const override {
    return left->ToSql() + " " + CompareOpSql(op) + " " + right->ToSql();
  }

  CompareOp op;
  ExprPtr left;
  ExprPtr right;
};

/// N-ary AND / OR.
struct LogicalExpr : Expr {
  LogicalExpr(bool and_op, std::vector<ExprPtr> ops)
      : Expr(ExprKind::kLogical), is_and(and_op), operands(std::move(ops)) {}
  std::string ToSql() const override;

  bool is_and;
  std::vector<ExprPtr> operands;
};

struct NotExpr : Expr {
  explicit NotExpr(ExprPtr e) : Expr(ExprKind::kNot), operand(std::move(e)) {}
  std::string ToSql() const override { return "NOT (" + operand->ToSql() + ")"; }

  ExprPtr operand;
};

struct ExistsExpr : Expr {
  ExistsExpr(bool neg, std::unique_ptr<SelectStmt> sub);
  ~ExistsExpr() override;
  std::string ToSql() const override;

  bool negated;
  std::unique_ptr<SelectStmt> subquery;
};

/// Executor-shared runtime state for a HashJoinExpr: the cached build-side
/// key set plus the table-version stamp it was built at. Defined in
/// executor.h (it needs table.h's IndexKey); the AST only carries an opaque
/// shared_ptr so concurrent executions of one cached plan share the build.
struct HashJoinRuntime;

/// Planner output (never produced by the parser): a decorrelated
/// `[NOT] EXISTS` rewritten as a hash semi-/anti-join. The build side is the
/// former subquery with its correlation equalities stripped (local predicates
/// stay pushed below the build); `build_keys[i] = probe_keys[i]` are the
/// stripped equalities, with probe-side column-ref levels rebased by -1 so
/// they evaluate in the scope where this expression now sits. Evaluation
/// builds the key set over the build side once (cached across executions via
/// `runtime`, invalidated when any table in `dep_tables` changes) and then
/// answers each outer row with one hash probe. Keys containing NULL never
/// match on either side: a NULL build key is excluded from the set and a NULL
/// probe key yields false for EXISTS / true for NOT EXISTS, matching the
/// three-valued-logic result of the correlated path.
struct HashJoinExpr : Expr {
  HashJoinExpr(bool anti_join, std::unique_ptr<SelectStmt> build_select);
  ~HashJoinExpr() override;
  std::string ToSql() const override;

  bool anti;  // true = NOT EXISTS (anti-join), false = EXISTS (semi-join)
  std::unique_ptr<SelectStmt> build;
  std::vector<std::unique_ptr<ColumnRefExpr>> build_keys;  // level-0 in build
  std::vector<ExprPtr> probe_keys;  // evaluated in the enclosing scope
  /// Every table the build side reads (transitively, nested subqueries
  /// included); the cached key set is stale once any of their versions move.
  std::vector<const Table*> dep_tables;
  std::shared_ptr<HashJoinRuntime> runtime;
  /// Cost-model output: estimated rows the build side enumerates (drives
  /// cheapest-build-first ordering of sibling joins). Negative = not costed.
  double est_build_rows = -1.0;
};

struct InListExpr : Expr {
  InListExpr(ExprPtr op, std::vector<ExprPtr> list, bool neg)
      : Expr(ExprKind::kInList),
        operand(std::move(op)),
        items(std::move(list)),
        negated(neg) {}
  std::string ToSql() const override;

  ExprPtr operand;
  std::vector<ExprPtr> items;
  bool negated;
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr op, bool neg)
      : Expr(ExprKind::kIsNull), operand(std::move(op)), negated(neg) {}
  std::string ToSql() const override {
    return operand->ToSql() + (negated ? " IS NOT NULL" : " IS NULL");
  }

  ExprPtr operand;
  bool negated;
};

/// `expr [NOT] LIKE pattern [ESCAPE 'c']` with SQL wildcards % and _.
struct LikeExpr : Expr {
  LikeExpr(ExprPtr op, ExprPtr pat, bool neg, char esc = '\0')
      : Expr(ExprKind::kLike),
        operand(std::move(op)),
        pattern(std::move(pat)),
        negated(neg),
        escape_char(esc) {}
  std::string ToSql() const override {
    std::string out = operand->ToSql() + (negated ? " NOT LIKE " : " LIKE ") +
                      pattern->ToSql();
    if (escape_char != '\0') {
      out += " ESCAPE '";
      if (escape_char == '\'') out += "'";
      out += escape_char;
      out += "'";
    }
    return out;
  }

  ExprPtr operand;
  ExprPtr pattern;
  bool negated;
  char escape_char;  // '\0' = no ESCAPE clause
};

enum class AggFunc { kCountStar, kCount, kMin, kMax, kSum };

const char* AggFuncSql(AggFunc f);

struct AggregateExpr : Expr {
  AggregateExpr(AggFunc f, ExprPtr a)
      : Expr(ExprKind::kAggregate), func(f), arg(std::move(a)) {}
  std::string ToSql() const override {
    if (func == AggFunc::kCountStar) return "COUNT(*)";
    return std::string(AggFuncSql(func)) + "(" + arg->ToSql() + ")";
  }

  AggFunc func;
  ExprPtr arg;  // null for COUNT(*)
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kExplain,
};

struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  virtual ~Statement() = default;
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  const StatementKind kind;
};

/// `table [alias]` in a FROM list.
struct TableRef {
  std::string table_name;
  std::string alias;  // defaults to table_name

  // Binder output.
  const Table* table = nullptr;
};

struct SelectItem {
  bool is_star = false;  // bare `*`
  ExprPtr expr;          // null when is_star
  std::string alias;     // optional `AS alias`
};

/// Planner output (AnnotateSelect): the access path for one FROM slot,
/// chosen once at plan time; the executor and EXPLAIN only read it. `index`
/// is stable across CREATE INDEX (tables hold indexes by unique_ptr) and
/// `key_exprs` are aligned with `index->column_ordinals()`. `vector_filter`
/// marks the slot whose WHERE filtering the executor may run in chunks when
/// vectorization is on (the innermost slot; outer slots must stay
/// row-at-a-time so EXISTS early-out scans no extra rows).
struct SlotPlan {
  const Index* index = nullptr;          // null = sequential scan
  std::vector<const Expr*> key_exprs;    // probe keys, index column order
  bool vector_filter = false;
  /// Cost-model output: estimated rows this scan produces per loop, after
  /// the WHERE conjuncts local to the slot. Negative = not costed (cost
  /// model off or no statistics); EXPLAIN prints it only when present.
  double est_rows = -1.0;
  /// True when the cost model overrode the syntactic index choice with a
  /// sequential scan (the index's estimated selectivity was too poor).
  bool seq_forced = false;
};

struct OrderByItem {
  ExprPtr expr;  // integer literal means result-column ordinal (1-based)
  bool ascending = true;
};

struct SelectStmt : Statement {
  SelectStmt() : Statement(StatementKind::kSelect) {}
  std::string ToSql() const;

  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;  // may be null
  std::vector<ExprPtr> group_by;
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  /// Number of `?` placeholders in the whole statement (subqueries
  /// included). Only meaningful on the root SELECT; executions must supply
  /// exactly this many values.
  size_t param_count = 0;

  /// Per-FROM-slot access paths, one per FROM entry, filled by
  /// AnnotateSelect on every bound statement the executor runs (SELECTs
  /// prepared by Database::BindAndPlan and the DML WHERE probes).
  std::vector<SlotPlan> slot_plans;

  /// Bind-time execution hints (PrecomputeExecHints, called from
  /// Database::BindAndPlan on every SELECT it prepares): the rendered
  /// result column headers (shared with every QueryResult this statement
  /// produces) and whether the statement aggregates. Executor::RunSelect
  /// reads both; the DML WHERE probes never run through it.
  std::shared_ptr<const std::vector<std::string>> column_headers;
  bool aggregate_mode = false;

  /// Statement-telemetry entry for this statement's shape, stamped at
  /// prepare time by Database::BindAndPlan when statement stats are
  /// enabled. Null = untracked (telemetry off, or bound outside
  /// BindAndPlan). The entry outlives the plan: the registry never erases
  /// entries (see StatementStatsRegistry::Reset).
  class StatementStatsEntry* stats_entry = nullptr;
};

struct InsertStmt : Statement {
  InsertStmt() : Statement(StatementKind::kInsert) {}

  std::string table_name;
  std::vector<std::string> columns;  // empty = positional
  std::vector<std::vector<ExprPtr>> rows;
};

struct DeleteStmt : Statement {
  DeleteStmt() : Statement(StatementKind::kDelete) {}

  std::string table_name;
  ExprPtr where;  // may be null (delete all)
};

/// `UPDATE t SET col = expr [, ...] [WHERE ...]`. Assignment expressions
/// may reference the row's current column values.
struct UpdateStmt : Statement {
  UpdateStmt() : Statement(StatementKind::kUpdate) {}

  struct Assignment {
    std::string column;
    ExprPtr value;
  };

  std::string table_name;
  std::vector<Assignment> assignments;
  ExprPtr where;  // may be null (update all)
};

struct CreateTableStmt : Statement {
  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}

  TableSchema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt : Statement {
  CreateIndexStmt() : Statement(StatementKind::kCreateIndex) {}

  std::string index_name;
  std::string table_name;
  std::vector<std::string> columns;
  bool unique = false;
};

struct DropTableStmt : Statement {
  DropTableStmt() : Statement(StatementKind::kDropTable) {}

  std::string table_name;
  bool if_exists = false;
};

/// `EXPLAIN [ANALYZE] SELECT ...`: renders the access-path plan instead of
/// rows. With ANALYZE the statement is also executed and every plan node is
/// annotated with its actual row count, loop count, and elapsed time.
struct ExplainStmt : Statement {
  ExplainStmt() : Statement(StatementKind::kExplain) {}

  std::unique_ptr<SelectStmt> select;
  bool analyze = false;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_AST_H_
