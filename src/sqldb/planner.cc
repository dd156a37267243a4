#include "sqldb/planner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sqldb/executor.h"
#include "sqldb/stats.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {
namespace {

bool RefsEscape(const Expr& e, int depth);

/// True when any part of `s` references a scope more than `depth` SELECTs
/// above it.
bool SelectRefsEscape(const SelectStmt& s, int depth) {
  for (const SelectItem& item : s.items) {
    if (!item.is_star && RefsEscape(*item.expr, depth)) return true;
  }
  if (s.where != nullptr && RefsEscape(*s.where, depth)) return true;
  for (const ExprPtr& g : s.group_by) {
    if (RefsEscape(*g, depth)) return true;
  }
  for (const OrderByItem& ob : s.order_by) {
    if (RefsEscape(*ob.expr, depth)) return true;
  }
  return false;
}

/// True when `e` contains a column reference that resolves more than
/// `depth` SELECT levels above where `e` sits.
bool RefsEscape(const Expr& e, int depth) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      return false;
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(e).level > depth;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return RefsEscape(*c.left, depth) || RefsEscape(*c.right, depth);
    }
    case ExprKind::kLogical: {
      for (const ExprPtr& op : static_cast<const LogicalExpr&>(e).operands) {
        if (RefsEscape(*op, depth)) return true;
      }
      return false;
    }
    case ExprKind::kNot:
      return RefsEscape(*static_cast<const NotExpr&>(e).operand, depth);
    case ExprKind::kExists:
      return SelectRefsEscape(*static_cast<const ExistsExpr&>(e).subquery,
                              depth + 1);
    case ExprKind::kHashJoin: {
      const auto& hj = static_cast<const HashJoinExpr&>(e);
      for (const ExprPtr& pk : hj.probe_keys) {
        if (RefsEscape(*pk, depth)) return true;
      }
      return SelectRefsEscape(*hj.build, depth + 1);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (RefsEscape(*in.operand, depth)) return true;
      for (const ExprPtr& item : in.items) {
        if (RefsEscape(*item, depth)) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return RefsEscape(*static_cast<const IsNullExpr&>(e).operand, depth);
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      return RefsEscape(*lk.operand, depth) || RefsEscape(*lk.pattern, depth);
    }
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(e);
      return agg.arg != nullptr && RefsEscape(*agg.arg, depth);
    }
  }
  return true;  // unknown kind: assume the worst
}

bool SelectContainsParam(const SelectStmt& s);

bool ContainsParam(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return false;
    case ExprKind::kParam:
      return true;
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return ContainsParam(*c.left) || ContainsParam(*c.right);
    }
    case ExprKind::kLogical: {
      for (const ExprPtr& op : static_cast<const LogicalExpr&>(e).operands) {
        if (ContainsParam(*op)) return true;
      }
      return false;
    }
    case ExprKind::kNot:
      return ContainsParam(*static_cast<const NotExpr&>(e).operand);
    case ExprKind::kExists:
      return SelectContainsParam(*static_cast<const ExistsExpr&>(e).subquery);
    case ExprKind::kHashJoin: {
      const auto& hj = static_cast<const HashJoinExpr&>(e);
      for (const ExprPtr& pk : hj.probe_keys) {
        if (ContainsParam(*pk)) return true;
      }
      return SelectContainsParam(*hj.build);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (ContainsParam(*in.operand)) return true;
      for (const ExprPtr& item : in.items) {
        if (ContainsParam(*item)) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return ContainsParam(*static_cast<const IsNullExpr&>(e).operand);
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      return ContainsParam(*lk.operand) || ContainsParam(*lk.pattern);
    }
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(e);
      return agg.arg != nullptr && ContainsParam(*agg.arg);
    }
  }
  return true;
}

bool SelectContainsParam(const SelectStmt& s) {
  for (const SelectItem& item : s.items) {
    if (!item.is_star && ContainsParam(*item.expr)) return true;
  }
  if (s.where != nullptr && ContainsParam(*s.where)) return true;
  for (const ExprPtr& g : s.group_by) {
    if (ContainsParam(*g)) return true;
  }
  for (const OrderByItem& ob : s.order_by) {
    if (ContainsParam(*ob.expr)) return true;
  }
  return false;
}

void CollectTablesExpr(const Expr& e, std::vector<const Table*>* out);

/// Every table the select reads, FROM lists of nested subqueries included.
void CollectTables(const SelectStmt& s, std::vector<const Table*>* out) {
  for (const TableRef& tr : s.from) {
    if (tr.table != nullptr) out->push_back(tr.table);
  }
  if (s.where != nullptr) CollectTablesExpr(*s.where, out);
}

void CollectTablesExpr(const Expr& e, std::vector<const Table*>* out) {
  switch (e.kind) {
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      CollectTablesExpr(*c.left, out);
      CollectTablesExpr(*c.right, out);
      return;
    }
    case ExprKind::kLogical:
      for (const ExprPtr& op : static_cast<const LogicalExpr&>(e).operands) {
        CollectTablesExpr(*op, out);
      }
      return;
    case ExprKind::kNot:
      CollectTablesExpr(*static_cast<const NotExpr&>(e).operand, out);
      return;
    case ExprKind::kExists:
      CollectTables(*static_cast<const ExistsExpr&>(e).subquery, out);
      return;
    case ExprKind::kHashJoin:
      CollectTables(*static_cast<const HashJoinExpr&>(e).build, out);
      return;
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      CollectTablesExpr(*in.operand, out);
      for (const ExprPtr& item : in.items) CollectTablesExpr(*item, out);
      return;
    }
    case ExprKind::kIsNull:
      CollectTablesExpr(*static_cast<const IsNullExpr&>(e).operand, out);
      return;
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      CollectTablesExpr(*lk.operand, out);
      CollectTablesExpr(*lk.pattern, out);
      return;
    }
    default:
      return;
  }
}

/// Dismantles a tree of nested ANDs into its conjuncts, preserving
/// left-to-right order.
void FlattenAndOwned(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kLogical) {
    auto* l = static_cast<LogicalExpr*>(e.get());
    if (l->is_and) {
      for (ExprPtr& op : l->operands) FlattenAndOwned(std::move(op), out);
      return;
    }
  }
  out->push_back(std::move(e));
}

/// Read-only view of the same flattening.
void FlattenAndView(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kLogical) {
    const auto* l = static_cast<const LogicalExpr*>(e);
    if (l->is_and) {
      for (const ExprPtr& op : l->operands) FlattenAndView(op.get(), out);
      return;
    }
  }
  out->push_back(e);
}

// ---------------------------------------------------------------------------
// Cardinality estimation (cost model; see stats.h)
// ---------------------------------------------------------------------------
//
// Textbook selectivity formulas over the statistics catalog:
//   col = x        ->  1 / NDV(col)        (uniformity assumption)
//   col <> x       ->  1 - 1/NDV
//   range compare  ->  1/3
//   col IS NULL    ->  null_fraction(col)
//   col IN (n...)  ->  min(1, n / NDV)
//   LIKE           ->  1/4
//   AND            ->  product (independence assumption)
//   OR             ->  1 - prod(1 - s_i)
// Conjuncts containing subqueries, or level-0 references to other FROM
// slots (join predicates), contribute selectivity 1 — estimates stay
// conservative rather than guessing at correlations.

/// A level-0 column reference belonging to FROM slot `slot`, else nullptr.
const ColumnRefExpr* SlotColumn(const Expr& e, size_t slot) {
  if (e.kind != ExprKind::kColumnRef) return nullptr;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  if (ref.level != 0 || ref.table_slot != slot) return nullptr;
  return &ref;
}

/// True when `e` can be folded into a selectivity estimate for `slot`: no
/// subqueries anywhere, and every level-0 column reference belongs to the
/// slot (outer references and bind params act as opaque constants).
bool EstimableForSlot(const Expr& e, size_t slot) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      return true;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      return ref.level != 0 || ref.table_slot == slot;
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return EstimableForSlot(*c.left, slot) &&
             EstimableForSlot(*c.right, slot);
    }
    case ExprKind::kLogical: {
      for (const ExprPtr& op : static_cast<const LogicalExpr&>(e).operands) {
        if (!EstimableForSlot(*op, slot)) return false;
      }
      return true;
    }
    case ExprKind::kNot:
      return EstimableForSlot(*static_cast<const NotExpr&>(e).operand, slot);
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (!EstimableForSlot(*in.operand, slot)) return false;
      for (const ExprPtr& item : in.items) {
        if (!EstimableForSlot(*item, slot)) return false;
      }
      return true;
    }
    case ExprKind::kIsNull:
      return EstimableForSlot(*static_cast<const IsNullExpr&>(e).operand,
                              slot);
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      return EstimableForSlot(*lk.operand, slot) &&
             EstimableForSlot(*lk.pattern, slot);
    }
    default:
      return false;  // EXISTS, hash joins, aggregates
  }
}

double EqSelectivity(const Table& table, size_t ordinal,
                     const StatsCatalog& catalog) {
  const double ndv = catalog.EstimatedNdv(&table, ordinal);
  if (ndv < 1.0) return 1.0;  // no data observed: assume nothing
  return std::min(1.0, 1.0 / ndv);
}

/// Range selectivity for `col <op> literal` by interpolating the literal
/// against the column's observed [min, max] span under the uniform
/// assumption — (v - lo) / (hi - lo) of the rows fall below v. Clamped to
/// [0.001, 1] so a literal outside the span never zeroes a cardinality
/// product outright. Falls back to the System R 1/3 guess when the literal
/// or the extrema are not integers (or no data has been observed).
double RangeSelectivity(CompareOp op, const Table& table, size_t ordinal,
                        const Value* literal, const StatsCatalog& catalog) {
  constexpr double kDefault = 1.0 / 3.0;
  if (literal == nullptr || literal->type() != ValueType::kInteger) {
    return kDefault;
  }
  const auto minmax = catalog.MinMax(&table, ordinal);
  if (!minmax.has_value() ||
      minmax->first.type() != ValueType::kInteger ||
      minmax->second.type() != ValueType::kInteger) {
    return kDefault;
  }
  const double lo = static_cast<double>(minmax->first.AsInteger());
  const double hi = static_cast<double>(minmax->second.AsInteger());
  const double v = static_cast<double>(literal->AsInteger());
  const double span = hi - lo;
  double below;  // fraction of rows strictly below v (uniform assumption)
  if (span <= 0.0) {
    below = v > lo ? 1.0 : 0.0;  // single-valued column: all or nothing
  } else {
    below = (v - lo) / span;
  }
  double sel;
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      sel = below;
      break;
    case CompareOp::kGt:
    case CompareOp::kGe:
      sel = 1.0 - below;
      break;
    default:
      return kDefault;
  }
  return std::clamp(sel, 0.001, 1.0);
}

/// `5 < col` is `col > 5`: the op as seen from the column side.
CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

double ConjSelectivity(const Expr& e, size_t slot, const Table& table,
                       const StatsCatalog& catalog) {
  switch (e.kind) {
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*c.left, slot);
      const bool col_on_left = col != nullptr;
      if (col == nullptr) col = SlotColumn(*c.right, slot);
      if (col == nullptr) return 1.0;
      switch (c.op) {
        case CompareOp::kEq:
          return EqSelectivity(table, col->column_ordinal, catalog);
        case CompareOp::kNe:
          return 1.0 - EqSelectivity(table, col->column_ordinal, catalog);
        default: {
          const Expr& other = col_on_left ? *c.right : *c.left;
          const Value* literal =
              other.kind == ExprKind::kLiteral
                  ? &static_cast<const LiteralExpr&>(other).value
                  : nullptr;
          const CompareOp op = col_on_left ? c.op : FlipCompare(c.op);
          return RangeSelectivity(op, table, col->column_ordinal, literal,
                                  catalog);
        }
      }
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      if (l.is_and) {
        double sel = 1.0;
        for (const ExprPtr& op : l.operands) {
          sel *= ConjSelectivity(*op, slot, table, catalog);
        }
        return sel;
      }
      double pass_none = 1.0;
      for (const ExprPtr& op : l.operands) {
        pass_none *= 1.0 - ConjSelectivity(*op, slot, table, catalog);
      }
      return 1.0 - pass_none;
    }
    case ExprKind::kNot:
      return 1.0 - ConjSelectivity(*static_cast<const NotExpr&>(e).operand,
                                   slot, table, catalog);
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*in.operand, slot);
      if (col == nullptr) return 1.0;
      const double sel = std::min(
          1.0, static_cast<double>(in.items.size()) *
                   EqSelectivity(table, col->column_ordinal, catalog));
      return in.negated ? 1.0 - sel : sel;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(e);
      const ColumnRefExpr* col = SlotColumn(*isn.operand, slot);
      if (col == nullptr) return 1.0;
      const double nf = catalog.NullFraction(&table, col->column_ordinal);
      return isn.negated ? 1.0 - nf : nf;
    }
    case ExprKind::kLike:
      return static_cast<const LikeExpr&>(e).negated ? 0.75 : 0.25;
    default:
      return 1.0;
  }
}

/// Estimated rows surviving the WHERE conjuncts local to FROM slot `slot`.
/// `skip_escaping` additionally drops conjuncts referencing enclosing
/// scopes — the build-side estimate, where correlation equalities are
/// stripped before the build executes.
double EstimateSlotRows(const SelectStmt& s, size_t slot,
                        const StatsCatalog& catalog, bool skip_escaping) {
  const Table* table = s.from[slot].table;
  if (table == nullptr) return 0.0;
  double rows = catalog.EstimatedRows(table);
  if (s.where == nullptr) return rows;
  std::vector<const Expr*> conjuncts;
  FlattenAndView(s.where.get(), &conjuncts);
  double sel = 1.0;
  for (const Expr* c : conjuncts) {
    if (!EstimableForSlot(*c, slot)) continue;
    if (skip_escaping && RefsEscape(*c, 0)) continue;
    sel *= ConjSelectivity(*c, slot, *table, catalog);
  }
  return rows * sel;
}

/// Estimated row combinations a select enumerates (product over FROM).
double EstimateSelectRows(const SelectStmt& s, const StatsCatalog& catalog,
                          bool skip_escaping) {
  if (s.from.empty()) return 0.0;
  double rows = 1.0;
  for (size_t slot = 0; slot < s.from.size(); ++slot) {
    rows *= EstimateSlotRows(s, slot, catalog, skip_escaping);
  }
  return rows;
}

/// An eligible EXISTS stays correlated when the decorrelated build would
/// enumerate this many times more rows than the outer loop probes it.
constexpr double kCorrelatedBuildFactor = 8.0;

class Planner {
 public:
  Planner(PlannerStats* stats, const StatsCatalog* catalog)
      : stats_(stats), catalog_(catalog) {}

  void Plan(SelectStmt* stmt) {
    path_.push_back(stmt);
    if (stmt->where != nullptr) {
      PlanExpr(&stmt->where);
      if (catalog_ != nullptr) CostWhere(stmt);
    }
    path_.pop_back();
  }

 private:
  /// How one top-level conjunct of a candidate subquery classifies.
  struct Conjunct {
    bool is_correlation = false;
    bool left_is_inner = false;  // for correlations: which side is level 0
  };

  void PlanExpr(ExprPtr* slot) {
    switch ((*slot)->kind) {
      case ExprKind::kLogical: {
        auto* l = static_cast<LogicalExpr*>(slot->get());
        for (ExprPtr& op : l->operands) PlanExpr(&op);
        return;
      }
      case ExprKind::kNot:
        PlanExpr(&static_cast<NotExpr*>(slot->get())->operand);
        return;
      case ExprKind::kExists: {
        auto* exists = static_cast<ExistsExpr*>(slot->get());
        if (std::unique_ptr<HashJoinExpr> join = TryRewrite(exists)) {
          *slot = std::move(join);
          // Nested EXISTS travelled into the build as local conjuncts;
          // give them their own rewrite pass.
          Plan(static_cast<HashJoinExpr*>(slot->get())->build.get());
        } else {
          // Not eligible here; deeper levels may still be.
          Plan(exists->subquery.get());
        }
        return;
      }
      default:
        return;  // no subqueries below other kinds in this dialect
    }
  }

  /// Resolves the schema column type of a bound reference, or nullopt when
  /// the scope chain cannot be resolved (bail out rather than guess).
  std::optional<ColumnType> RefType(const ColumnRefExpr& ref,
                                    const SelectStmt* sub) const {
    const SelectStmt* scope = nullptr;
    if (ref.level == 0) {
      scope = sub;
    } else {
      // level 1 = innermost enclosing select = path_.back().
      if (static_cast<size_t>(ref.level) > path_.size()) return std::nullopt;
      scope = path_[path_.size() - static_cast<size_t>(ref.level)];
    }
    if (ref.table_slot >= scope->from.size()) return std::nullopt;
    const Table* table = scope->from[ref.table_slot].table;
    if (table == nullptr) return std::nullopt;
    const auto& columns = table->schema().columns();
    if (ref.column_ordinal >= columns.size()) return std::nullopt;
    return columns[ref.column_ordinal].type;
  }

  std::unique_ptr<HashJoinExpr> TryRewrite(ExistsExpr* exists) {
    SelectStmt* sub = exists->subquery.get();
    if (sub->from.empty() || sub->where == nullptr) return nullptr;
    if (SelectContainsParam(*sub)) return nullptr;

    // Phase 1: classify every top-level conjunct without touching the tree.
    std::vector<const Expr*> view;
    FlattenAndView(sub->where.get(), &view);
    std::vector<Conjunct> classes(view.size());
    size_t correlations = 0;
    for (size_t i = 0; i < view.size(); ++i) {
      const Expr* c = view[i];
      if (!RefsEscape(*c, 0)) continue;  // local conjunct
      // Escaping conjuncts must be `inner_col = outer_col` exactly.
      if (c->kind != ExprKind::kComparison) return nullptr;
      const auto* cmp = static_cast<const ComparisonExpr*>(c);
      if (cmp->op != CompareOp::kEq) return nullptr;
      if (cmp->left->kind != ExprKind::kColumnRef ||
          cmp->right->kind != ExprKind::kColumnRef) {
        return nullptr;
      }
      const auto* l = static_cast<const ColumnRefExpr*>(cmp->left.get());
      const auto* r = static_cast<const ColumnRefExpr*>(cmp->right.get());
      const ColumnRefExpr* inner = nullptr;
      const ColumnRefExpr* outer = nullptr;
      if (l->level == 0 && r->level >= 1) {
        inner = l;
        outer = r;
        classes[i].left_is_inner = true;
      } else if (r->level == 0 && l->level >= 1) {
        inner = r;
        outer = l;
      } else {
        return nullptr;  // e.g. outer_a = outer_b, or deeper-level pairs
      }
      std::optional<ColumnType> inner_type = RefType(*inner, sub);
      std::optional<ColumnType> outer_type = RefType(*outer, sub);
      if (!inner_type.has_value() || !outer_type.has_value() ||
          *inner_type != *outer_type) {
        return nullptr;
      }
      classes[i].is_correlation = true;
      ++correlations;
    }
    if (correlations == 0) return nullptr;

    // Cost gate: an eligible rewrite can still lose. When the build side
    // would enumerate far more rows than the outer loop will ever probe,
    // and the correlated path is an index point-lookup per outer row, the
    // rule rewrite is vetoed and the EXISTS stays correlated.
    if (catalog_ != nullptr && KeepCorrelated(*sub, view, classes)) {
      if (stats_ != nullptr) ++stats_->cost_exists_kept;
      return nullptr;
    }

    // Phase 2: eligible — dismantle the WHERE and assemble the join node.
    std::vector<ExprPtr> conjuncts;
    FlattenAndOwned(std::move(sub->where), &conjuncts);
    auto join = std::make_unique<HashJoinExpr>(exists->negated,
                                               std::move(exists->subquery));
    std::vector<ExprPtr> locals;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!classes[i].is_correlation) {
        locals.push_back(std::move(conjuncts[i]));
        continue;
      }
      auto* cmp = static_cast<ComparisonExpr*>(conjuncts[i].get());
      ExprPtr inner_side = classes[i].left_is_inner ? std::move(cmp->left)
                                                    : std::move(cmp->right);
      ExprPtr outer_side = classes[i].left_is_inner ? std::move(cmp->right)
                                                    : std::move(cmp->left);
      join->build_keys.emplace_back(
          static_cast<ColumnRefExpr*>(inner_side.release()));
      // The probe expression now evaluates one scope closer to its target.
      static_cast<ColumnRefExpr*>(outer_side.get())->level -= 1;
      join->probe_keys.push_back(std::move(outer_side));
    }
    SelectStmt* build = join->build.get();
    if (locals.size() == 1) {
      build->where = std::move(locals[0]);
    } else if (!locals.empty()) {
      build->where =
          std::make_unique<LogicalExpr>(/*and_op=*/true, std::move(locals));
    }  // else: no residual predicate; build enumerates the whole table

    std::vector<const Table*> deps;
    CollectTables(*build, &deps);
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    join->dep_tables = std::move(deps);
    join->runtime = std::make_shared<HashJoinRuntime>();

    if (stats_ != nullptr) {
      if (join->anti) {
        ++stats_->anti_join_rewrites;
      } else {
        ++stats_->semi_join_rewrites;
      }
    }
    return join;
  }

  /// The cost model's rewrite veto (see planner.h). `view`/`classes` are
  /// the phase-1 classification of the subquery's conjuncts.
  bool KeepCorrelated(const SelectStmt& sub,
                      const std::vector<const Expr*>& view,
                      const std::vector<Conjunct>& classes) const {
    // The correlated plan is only competitive as a point lookup: every
    // correlation column must sit on one build slot with a covering index.
    std::vector<size_t> ordinals;
    size_t inner_slot = 0;
    bool have_slot = false;
    for (size_t i = 0; i < view.size(); ++i) {
      if (!classes[i].is_correlation) continue;
      const auto* cmp = static_cast<const ComparisonExpr*>(view[i]);
      const auto* inner = static_cast<const ColumnRefExpr*>(
          classes[i].left_is_inner ? cmp->left.get() : cmp->right.get());
      if (!have_slot) {
        inner_slot = inner->table_slot;
        have_slot = true;
      } else if (inner->table_slot != inner_slot) {
        return false;
      }
      ordinals.push_back(inner->column_ordinal);
    }
    if (!have_slot || inner_slot >= sub.from.size()) return false;
    const Table* table = sub.from[inner_slot].table;
    if (table == nullptr || table->FindIndexCovering(ordinals) == nullptr) {
      return false;
    }
    const double build_rows =
        EstimateSelectRows(sub, *catalog_, /*skip_escaping=*/true);
    const double outer_rows =
        path_.empty() ? 1.0
                      : EstimateSelectRows(*path_.back(), *catalog_,
                                           /*skip_escaping=*/false);
    return build_rows > kCorrelatedBuildFactor * std::max(1.0, outer_rows);
  }

  /// Post-rewrite cost pass over one select's WHERE: stamp every hash join
  /// with its estimated build cardinality, then reorder sibling joins under
  /// the top-level AND cheapest-build-first (scalar conjuncts keep their
  /// positions; the joins' three-valued AND verdict is order-independent).
  void CostWhere(SelectStmt* stmt) {
    StampJoinEstimates(stmt->where.get());
    if (stmt->where->kind != ExprKind::kLogical) return;
    auto* l = static_cast<LogicalExpr*>(stmt->where.get());
    if (!l->is_and) return;
    std::vector<size_t> join_slots;
    for (size_t i = 0; i < l->operands.size(); ++i) {
      if (l->operands[i]->kind == ExprKind::kHashJoin) join_slots.push_back(i);
    }
    if (join_slots.size() < 2) return;
    std::vector<ExprPtr> joins;
    joins.reserve(join_slots.size());
    for (size_t i : join_slots) joins.push_back(std::move(l->operands[i]));
    const auto build_rows = [](const ExprPtr& e) {
      return static_cast<const HashJoinExpr*>(e.get())->est_build_rows;
    };
    bool reordered = false;
    for (size_t i = 1; i < joins.size(); ++i) {
      if (build_rows(joins[i]) < build_rows(joins[i - 1])) reordered = true;
    }
    std::stable_sort(joins.begin(), joins.end(),
                     [&](const ExprPtr& a, const ExprPtr& b) {
                       return build_rows(a) < build_rows(b);
                     });
    for (size_t i = 0; i < join_slots.size(); ++i) {
      l->operands[join_slots[i]] = std::move(joins[i]);
    }
    if (reordered && stats_ != nullptr) ++stats_->cost_join_reorders;
  }

  void StampJoinEstimates(Expr* e) {
    switch (e->kind) {
      case ExprKind::kLogical:
        for (ExprPtr& op : static_cast<LogicalExpr*>(e)->operands) {
          StampJoinEstimates(op.get());
        }
        return;
      case ExprKind::kNot:
        StampJoinEstimates(static_cast<NotExpr*>(e)->operand.get());
        return;
      case ExprKind::kHashJoin: {
        auto* j = static_cast<HashJoinExpr*>(e);
        // Correlations were stripped into the keys, so no escaping
        // conjuncts remain in the build's WHERE.
        j->est_build_rows =
            EstimateSelectRows(*j->build, *catalog_, /*skip_escaping=*/false);
        return;
      }
      default:
        return;
    }
  }

  PlannerStats* stats_;
  const StatsCatalog* catalog_;  // null = pure rule-based planning
  std::vector<const SelectStmt*> path_;  // enclosing selects, innermost last
};

}  // namespace

void PlanSelect(SelectStmt* stmt, PlannerStats* stats,
                const StatsCatalog* catalog) {
  Planner planner(stats, catalog);
  planner.Plan(stmt);
}

namespace {

/// True when every column reference in `e` is available before `slot` is
/// assigned: either an outer-scope reference (level > 0) or an earlier slot
/// of the current FROM list. Subqueries are conservatively unavailable.
bool RefsAvailableForSlot(const Expr& e, size_t slot) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParam:  // bound before execution starts
      return true;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      return ref.level > 0 || ref.table_slot < slot;
    }
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      return RefsAvailableForSlot(*c.left, slot) &&
             RefsAvailableForSlot(*c.right, slot);
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      for (const auto& op : l.operands) {
        if (!RefsAvailableForSlot(*op, slot)) return false;
      }
      return true;
    }
    case ExprKind::kNot:
      return RefsAvailableForSlot(*static_cast<const NotExpr&>(e).operand,
                                  slot);
    case ExprKind::kIsNull:
      return RefsAvailableForSlot(*static_cast<const IsNullExpr&>(e).operand,
                                  slot);
    default:
      return false;
  }
}

/// An equality conjunct usable for an index lookup when positioning FROM
/// slot `slot`: a column of that slot equated with an expression whose
/// inputs are already available.
struct IndexableEquality {
  size_t column_ordinal;
  const Expr* key_expr;
};

/// Extracts the indexable equalities for `slot` from a bound WHERE clause.
std::vector<IndexableEquality> CollectIndexableEqualities(const Expr* where,
                                                          size_t slot) {
  std::vector<IndexableEquality> out;
  if (where == nullptr) return out;
  std::vector<const Expr*> conjuncts;
  FlattenAndView(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kComparison) continue;
    const auto* cmp = static_cast<const ComparisonExpr*>(c);
    if (cmp->op != CompareOp::kEq) continue;
    const Expr* sides[2] = {cmp->left.get(), cmp->right.get()};
    for (int i = 0; i < 2; ++i) {
      const Expr* col_side = sides[i];
      const Expr* val_side = sides[1 - i];
      const ColumnRefExpr* ref = SlotColumn(*col_side, slot);
      if (ref == nullptr || !RefsAvailableForSlot(*val_side, slot)) continue;
      out.push_back(IndexableEquality{ref->column_ordinal, val_side});
      break;
    }
  }
  return out;
}

void AnnotateExpr(const Expr& e, const StatsCatalog* catalog,
                  PlannerStats* stats);

/// Resolves the access path of every FROM slot of `stmt`: the first index
/// (FindIndexCovering's tie-break) whose columns the WHERE equates with
/// values available when the slot is positioned. This is the only place an
/// access path is chosen; the executor and EXPLAIN read the result.
/// With a catalog, each slot is additionally costed: estimated rows are
/// stamped for EXPLAIN, and a syntactically chosen index whose key is so
/// unselective that the lookup would return most of the table (low-NDV
/// column) is overridden back to a sequential scan.
void AnnotateOne(SelectStmt* stmt, const StatsCatalog* catalog,
                 PlannerStats* stats) {
  stmt->slot_plans.assign(stmt->from.size(), SlotPlan{});
  for (size_t slot = 0; slot < stmt->from.size(); ++slot) {
    SlotPlan& sp = stmt->slot_plans[slot];
    const Table* table = stmt->from[slot].table;
    if (table == nullptr) continue;  // unbound (defensive)
    std::vector<IndexableEquality> equalities =
        CollectIndexableEqualities(stmt->where.get(), slot);
    if (!equalities.empty()) {
      std::vector<size_t> available;
      available.reserve(equalities.size());
      for (const IndexableEquality& eq : equalities) {
        available.push_back(eq.column_ordinal);
      }
      sp.index = table->FindIndexCovering(available);
    }
    if (sp.index != nullptr) {
      sp.key_exprs.reserve(sp.index->column_ordinals().size());
      for (size_t ord : sp.index->column_ordinals()) {
        const Expr* key_expr = nullptr;
        for (const IndexableEquality& eq : equalities) {
          if (eq.column_ordinal == ord) {
            key_expr = eq.key_expr;
            break;
          }
        }
        sp.key_exprs.push_back(key_expr);
      }
    }
    if (catalog != nullptr) {
      const double table_rows = catalog->EstimatedRows(table);
      if (sp.index == nullptr) {
        sp.est_rows = table_rows;
      } else {
        double key_sel = 1.0;
        for (size_t ord : sp.index->column_ordinals()) {
          key_sel *= EqSelectivity(*table, ord, *catalog);
        }
        // Index vs seq: a lookup expected to return around half the table
        // buys nothing over scanning it (and pays key evaluation plus
        // id-list chasing per loop). The threshold sits below the nominal
        // 1/2 so the HLL's estimate of a two-value column (NDV slightly
        // above 2 => selectivity slightly below 0.5) still trips it. Tiny
        // tables are left alone — either plan touches a handful of rows.
        if (key_sel >= 0.45 && table_rows >= 4.0) {
          sp.index = nullptr;
          sp.key_exprs.clear();
          sp.seq_forced = true;
          sp.est_rows = table_rows;
          if (stats != nullptr) ++stats->cost_seq_forced;
        } else {
          sp.est_rows = table_rows * key_sel;
        }
      }
    }
  }
  // Only the innermost slot may filter in chunks: outer slots must stay
  // row-at-a-time so EXISTS early-out never scans rows a row-at-a-time
  // filter would not have touched.
  if (!stmt->from.empty() && stmt->where != nullptr) {
    stmt->slot_plans.back().vector_filter = true;
  }

  if (stmt->where != nullptr) AnnotateExpr(*stmt->where, catalog, stats);
  for (const SelectItem& item : stmt->items) {
    if (!item.is_star) AnnotateExpr(*item.expr, catalog, stats);
  }
  for (const ExprPtr& g : stmt->group_by) AnnotateExpr(*g, catalog, stats);
  for (const OrderByItem& ob : stmt->order_by) {
    AnnotateExpr(*ob.expr, catalog, stats);
  }
}

void AnnotateExpr(const Expr& e, const StatsCatalog* catalog,
                  PlannerStats* stats) {
  switch (e.kind) {
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      AnnotateExpr(*c.left, catalog, stats);
      AnnotateExpr(*c.right, catalog, stats);
      return;
    }
    case ExprKind::kLogical:
      for (const ExprPtr& op : static_cast<const LogicalExpr&>(e).operands) {
        AnnotateExpr(*op, catalog, stats);
      }
      return;
    case ExprKind::kNot:
      AnnotateExpr(*static_cast<const NotExpr&>(e).operand, catalog, stats);
      return;
    case ExprKind::kExists:
      AnnotateOne(static_cast<const ExistsExpr&>(e).subquery.get(), catalog,
                  stats);
      return;
    case ExprKind::kHashJoin: {
      const auto& hj = static_cast<const HashJoinExpr&>(e);
      for (const ExprPtr& pk : hj.probe_keys) {
        AnnotateExpr(*pk, catalog, stats);
      }
      AnnotateOne(hj.build.get(), catalog, stats);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      AnnotateExpr(*in.operand, catalog, stats);
      for (const ExprPtr& item : in.items) {
        AnnotateExpr(*item, catalog, stats);
      }
      return;
    }
    case ExprKind::kIsNull:
      AnnotateExpr(*static_cast<const IsNullExpr&>(e).operand, catalog,
                   stats);
      return;
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(e);
      AnnotateExpr(*lk.operand, catalog, stats);
      AnnotateExpr(*lk.pattern, catalog, stats);
      return;
    }
    case ExprKind::kAggregate: {
      // An aggregate's argument may hold an EXISTS, evaluated per row.
      const auto& agg = static_cast<const AggregateExpr&>(e);
      if (agg.arg != nullptr) AnnotateExpr(*agg.arg, catalog, stats);
      return;
    }
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kColumnRef:
      return;
  }
}

}  // namespace

void AnnotateSelect(SelectStmt* stmt, const StatsCatalog* catalog,
                    PlannerStats* stats) {
  AnnotateOne(stmt, catalog, stats);
}

}  // namespace p3pdb::sqldb
