#include "sqldb/explain.h"

#include <cmath>

#include "common/string_util.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

namespace {

void Indent(int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

/// Renders a cost-model row estimate. Estimates are only stamped when a
/// StatsCatalog was supplied at plan time; negative means "not costed" and
/// prints nothing, so rule-only plans render exactly as before.
void AppendEstimate(double est_rows, bool seq_forced, std::string* out) {
  if (est_rows < 0.0) return;
  out->append(" (est rows=" + std::to_string(std::llround(est_rows)));
  if (seq_forced) out->append(", seq-forced");
  out->push_back(')');
}

/// Renders an index-key expression, substituting bound parameter values
/// when available: `?[=3]` reads "placeholder, currently bound to 3".
std::string RenderKeyExpr(const Expr& expr, const ExplainOptions& options) {
  if (expr.kind == ExprKind::kParam) {
    const auto& param = static_cast<const ParamExpr&>(expr);
    if (options.params != nullptr && param.index < options.params->size()) {
      return "?[=" + (*options.params)[param.index].ToString() + "]";
    }
    return "?";
  }
  return expr.ToSql();
}

/// Appends the EXPLAIN ANALYZE actuals for one plan node.
void AppendActuals(const PlanNodeStats* node, const ExplainOptions& options,
                   std::string* out) {
  if (options.profile == nullptr) return;
  if (node == nullptr) {
    out->append(" (never executed)");
    return;
  }
  out->append(" (actual rows=" + std::to_string(node->rows) +
              " loops=" + std::to_string(node->loops) +
              " time=" + FormatDouble(node->elapsed_us, 1) + "us");
  // Batch actuals live inside the actuals parens (no nesting: the explain
  // test's StripActuals cuts from " (actual" to the first ')').
  if (node->batches > 0) {
    const double rows_per_batch =
        static_cast<double>(node->batch_rows_in) /
        static_cast<double>(node->batches);
    const double selectivity =
        node->batch_rows_in == 0
            ? 0.0
            : 100.0 * static_cast<double>(node->batch_rows_out) /
                  static_cast<double>(node->batch_rows_in);
    out->append(" batches=" + std::to_string(node->batches) +
                " rows/batch=" + FormatDouble(rows_per_batch, 1) +
                " selectivity=" + FormatDouble(selectivity, 1) + "%");
  }
  out->push_back(')');
}

void ExplainSelect(const SelectStmt& stmt, int depth,
                   const ExplainOptions& options, std::string* out);

/// Walks an expression for EXISTS subqueries and explains each.
void ExplainSubqueries(const Expr& expr, int depth,
                       const ExplainOptions& options, std::string* out) {
  switch (expr.kind) {
    case ExprKind::kExists: {
      const auto& e = static_cast<const ExistsExpr&>(expr);
      Indent(depth, out);
      out->append(e.negated ? "not-exists-subquery\n" : "exists-subquery\n");
      ExplainSelect(*e.subquery, depth + 1, options, out);
      return;
    }
    case ExprKind::kHashJoin: {
      const auto& j = static_cast<const HashJoinExpr&>(expr);
      Indent(depth, out);
      out->append(j.anti ? "hash-anti-join" : "hash-semi-join");
      std::vector<std::string> conds;
      for (size_t i = 0; i < j.build_keys.size(); ++i) {
        conds.push_back(j.build_keys[i]->ToSql() + " = " +
                        RenderKeyExpr(*j.probe_keys[i], options));
      }
      out->append(" on " + Join(conds, ", "));
      AppendEstimate(j.est_build_rows, /*seq_forced=*/false, out);
      if (options.profile != nullptr) {
        AppendActuals(options.profile->FindHashJoin(&j), options, out);
      }
      out->push_back('\n');
      ExplainSelect(*j.build, depth + 1, options, out);
      return;
    }
    case ExprKind::kLogical:
      for (const ExprPtr& op :
           static_cast<const LogicalExpr&>(expr).operands) {
        ExplainSubqueries(*op, depth, options, out);
      }
      return;
    case ExprKind::kNot:
      ExplainSubqueries(*static_cast<const NotExpr&>(expr).operand, depth,
                        options, out);
      return;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(expr);
      ExplainSubqueries(*c.left, depth, options, out);
      ExplainSubqueries(*c.right, depth, options, out);
      return;
    }
    default:
      return;
  }
}

void ExplainSelect(const SelectStmt& stmt, int depth,
                   const ExplainOptions& options, std::string* out) {
  Indent(depth, out);
  out->append("select");
  if (stmt.distinct) out->append(" distinct");
  if (!stmt.group_by.empty()) out->append(" (hash aggregate)");
  if (!stmt.order_by.empty()) out->append(" (sort)");
  if (stmt.limit.has_value()) {
    out->append(" (limit " + std::to_string(*stmt.limit) + ")");
  }
  if (options.profile != nullptr) {
    AppendActuals(options.profile->FindSelect(&stmt), options, out);
  }
  out->push_back('\n');

  for (size_t slot = 0; slot < stmt.from.size(); ++slot) {
    const TableRef& ref = stmt.from[slot];
    Indent(depth + 1, out);
    out->append("scan " + ref.alias);
    if (ref.table == nullptr) {
      out->append(" (unbound)\n");
      continue;
    }
    // The planner's access path, exactly what the executor runs (the cost
    // model may have overridden the syntactic index choice).
    const SlotPlan& sp = stmt.slot_plans[slot];
    const Index* index = sp.index;
    if (index != nullptr) {
      std::vector<std::string> cols;
      const std::vector<size_t>& ordinals = index->column_ordinals();
      for (size_t i = 0; i < ordinals.size(); ++i) {
        std::string col = ref.table->schema().columns()[ordinals[i]].name;
        if (i < sp.key_exprs.size() && sp.key_exprs[i] != nullptr) {
          col += " = " + RenderKeyExpr(*sp.key_exprs[i], options);
        }
        cols.push_back(std::move(col));
      }
      out->append(" (index " + index->name() + " on " + Join(cols, ", ") +
                  ")");
    } else {
      out->append(" (seq scan)");
    }
    AppendEstimate(sp.est_rows, sp.seq_forced, out);
    if (options.profile != nullptr) {
      AppendActuals(options.profile->FindScan(&stmt, slot), options, out);
    }
    out->push_back('\n');
  }
  if (stmt.where != nullptr) {
    ExplainSubqueries(*stmt.where, depth + 1, options, out);
  }
}

}  // namespace

std::string ExplainPlan(const SelectStmt& stmt) {
  return ExplainPlan(stmt, ExplainOptions{});
}

std::string ExplainPlan(const SelectStmt& stmt,
                        const ExplainOptions& options) {
  std::string out;
  ExplainSelect(stmt, 0, options, &out);
  return out;
}

}  // namespace p3pdb::sqldb
