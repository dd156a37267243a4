#include "sqldb/executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <string>

#include "common/stopwatch.h"
#include "sqldb/binder.h"

namespace p3pdb::sqldb {

const PlanNodeStats* PlanProfile::FindSelect(const SelectStmt* stmt) const {
  auto it = selects_.find(stmt);
  return it == selects_.end() ? nullptr : &it->second;
}

const PlanNodeStats* PlanProfile::FindScan(const SelectStmt* stmt,
                                           size_t slot) const {
  auto it = scans_.find({stmt, slot});
  return it == scans_.end() ? nullptr : &it->second;
}

const PlanNodeStats* PlanProfile::FindHashJoin(const Expr* join) const {
  auto it = hash_joins_.find(join);
  return it == hash_joins_.end() ? nullptr : &it->second;
}

namespace {

Truth Not(Truth t) {
  switch (t) {
    case Truth::kFalse:
      return Truth::kTrue;
    case Truth::kTrue:
      return Truth::kFalse;
    default:
      return t;
  }
}

Truth TruthOf(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

/// A value read as a predicate verdict.
Truth TruthOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return Truth::kNull;
    case ValueType::kBoolean:
      return TruthOf(v.AsBoolean());
    default:
      return Truth::kNotBoolean;
  }
}

template <typename T>
bool Holds(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return !(a == b);
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kLe:
      return !(b < a);
    case CompareOp::kGe:
      return !(a < b);
  }
  return false;
}

/// `a op b` under three-valued logic. Integer and text operands of equal
/// type answer inline; every other pair goes through Value::CompareEq /
/// CompareLt, which own the type rules and their error text (`>` and `<=`
/// ask CompareLt with the operands swapped, so errors name them in that
/// order).
Status Compare(CompareOp op, const Value& a, const Value& b, Truth* out) {
  const ValueType type = a.type();
  if (type == b.type()) {
    if (type == ValueType::kInteger) {
      *out = TruthOf(Holds(op, a.AsInteger(), b.AsInteger()));
      return Status::OK();
    }
    if (type == ValueType::kText) {
      *out = TruthOf(Holds(op, a.AsText(), b.AsText()));
      return Status::OK();
    }
  }
  const bool swapped = op == CompareOp::kGt || op == CompareOp::kLe;
  const bool negated =
      op == CompareOp::kNe || op == CompareOp::kLe || op == CompareOp::kGe;
  Result<Value> v = op == CompareOp::kEq || op == CompareOp::kNe
                        ? Value::CompareEq(a, b)
                        : swapped ? Value::CompareLt(b, a)
                                  : Value::CompareLt(a, b);
  if (!v.ok()) return v.status();
  *out = TruthOf(v.value());
  if (negated) *out = Not(*out);
  return Status::OK();
}

/// The values of one index or hash-set probe key: pointers to operands read
/// in place (see Executor::Operand), with scratch storage on the stack for
/// the common narrow keys, spilling to the heap only for very wide ones.
/// Probes pass a non-owning IndexKeyView: the match path probes once per
/// scan or outer row, and an owned IndexKey would allocate every time.
class ProbeKey {
 public:
  explicit ProbeKey(size_t width) {
    if (width > kInline) {
      spill_vals_.resize(width);
      spill_ptrs_.resize(width);
      vals_ = spill_vals_.data();
      ptrs_ = spill_ptrs_.data();
    }
  }
  ProbeKey(const ProbeKey&) = delete;
  ProbeKey& operator=(const ProbeKey&) = delete;

  /// Storage for component `i` when its operand is not read in place.
  Value* scratch(size_t i) { return &vals_[i]; }
  /// Where component `i` points.
  const Value** component(size_t i) { return &ptrs_[i]; }
  /// The first `n` components.
  IndexKeyView View(size_t n) const { return IndexKeyView{ptrs_, n}; }

 private:
  static constexpr size_t kInline = 8;
  Value inline_vals_[kInline];
  const Value* inline_ptrs_[kInline] = {};
  std::vector<Value> spill_vals_;
  std::vector<const Value*> spill_ptrs_;
  Value* vals_ = inline_vals_;
  const Value** ptrs_ = inline_ptrs_;
};

}  // namespace

bool SqlLikeMatch(std::string_view text, std::string_view pattern,
                  char escape_char) {
  // The classic two-pointer wildcard match with backtracking on '%', walking
  // the pattern in place. A token is one pattern character, or an escape
  // and the character it makes literal; an escape as the last character is
  // itself a literal.
  enum class Tok { kLiteral, kAnyRun, kAnyOne };
  char lit = '\0';
  size_t next = 0;  // pattern position after the token last read
  auto token_at = [&](size_t pi) {
    const char c = pattern[pi];
    if (escape_char != '\0' && c == escape_char && pi + 1 < pattern.size()) {
      lit = pattern[pi + 1];
      next = pi + 2;
      return Tok::kLiteral;
    }
    lit = c;
    next = pi + 1;
    return c == '%' ? Tok::kAnyRun : c == '_' ? Tok::kAnyOne : Tok::kLiteral;
  };

  size_t ti = 0, pi = 0;
  // Pattern position just past the last '%', and the text position that
  // '%' was last retried from.
  size_t star_pi = std::string_view::npos, star_ti = 0;
  while (ti < text.size()) {
    if (pi < pattern.size()) {
      const Tok tok = token_at(pi);
      if (tok == Tok::kAnyOne || (tok == Tok::kLiteral && lit == text[ti])) {
        ++ti;
        pi = next;
        continue;
      }
      if (tok == Tok::kAnyRun) {
        pi = star_pi = next;
        star_ti = ti;
        continue;
      }
    }
    if (star_pi == std::string_view::npos) return false;
    pi = star_pi;
    ti = ++star_ti;
  }
  while (pi < pattern.size() && token_at(pi) == Tok::kAnyRun) pi = next;
  return pi == pattern.size();
}

Result<Value> Executor::EvalConstant(const Expr& expr) {
  ScopeStack empty;
  return Eval(expr, empty);
}

Result<bool> Executor::EvalRowPredicate(const SelectStmt& stmt,
                                        const Row& row) {
  if (stmt.where == nullptr) return true;
  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  scope.rows[0] = &row;
  ScopeStack stack;
  stack.push_back(&scope);
  return EvalFilter(*stmt.where, stack);
}

Result<Value> Executor::EvalRowExpression(const SelectStmt& stmt,
                                          const Row& row, const Expr& expr) {
  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  scope.rows[0] = &row;
  ScopeStack stack;
  stack.push_back(&scope);
  return Eval(expr, stack);
}

Result<Value> Executor::Eval(const Expr& expr, ScopeStack& stack) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kColumnRef: {
      Value unused;
      const Value* v = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(expr, stack, &unused, &v));
      return *v;
    }
    case ExprKind::kComparison:
    case ExprKind::kLogical:
    case ExprKind::kNot:
    case ExprKind::kExists:
    case ExprKind::kHashJoin:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
    case ExprKind::kLike: {
      Truth t;
      P3PDB_RETURN_IF_ERROR(EvalPredicate(expr, stack, &t));
      // Only a non-predicate operand can be kNotBoolean.
      assert(t != Truth::kNotBoolean);
      return t == Truth::kNull ? Value::Null()
                               : Value::Boolean(t == Truth::kTrue);
    }
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate evaluated outside aggregation context");
  }
  return Status::Internal("unhandled expression kind");
}

Status Executor::Operand(const Expr& expr, ScopeStack& stack, Value* scratch,
                         const Value** out) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      *out = &static_cast<const LiteralExpr&>(expr).value;
      return Status::OK();
    case ExprKind::kParam: {
      const auto& param = static_cast<const ParamExpr&>(expr);
      if (params_ == nullptr || param.index >= params_->size()) {
        return Status::InvalidArgument(
            "unbound parameter: statement uses '?' placeholder " +
            std::to_string(param.index + 1) + " but " +
            std::to_string(params_ == nullptr ? 0 : params_->size()) +
            " value(s) were supplied");
      }
      *out = &(*params_)[param.index];
      return Status::OK();
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.level < 0 ||
          static_cast<size_t>(ref.level) >= stack.size()) {
        return Status::Internal("unbound column reference '" + ref.ToSql() +
                                "'");
      }
      const Scope* scope = stack[stack.size() - 1 - ref.level];
      const Row* row = scope->rows[ref.table_slot];
      if (row == nullptr) {
        return Status::Internal("column '" + ref.ToSql() +
                                "' read before its table was positioned");
      }
      *out = &(*row)[ref.column_ordinal];
      return Status::OK();
    }
    default: {
      P3PDB_ASSIGN_OR_RETURN(*scratch, Eval(expr, stack));
      *out = scratch;
      return Status::OK();
    }
  }
}

Status Executor::EvalPredicate(const Expr& expr, ScopeStack& stack,
                               Truth* out) {
  switch (expr.kind) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      Value left_scratch, right_scratch;
      const Value* left = nullptr;
      const Value* right = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(*cmp.left, stack, &left_scratch, &left));
      P3PDB_RETURN_IF_ERROR(
          Operand(*cmp.right, stack, &right_scratch, &right));
      ++stats_->comparisons;
      return Compare(cmp.op, *left, *right, out);
    }
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(expr);
      // AND stops at the first FALSE, OR at the first TRUE; otherwise any
      // NULL operand makes the whole verdict NULL.
      const Truth decisive = l.is_and ? Truth::kFalse : Truth::kTrue;
      bool saw_null = false;
      for (const ExprPtr& op : l.operands) {
        Truth t;
        P3PDB_RETURN_IF_ERROR(EvalPredicate(*op, stack, &t));
        if (t == Truth::kNotBoolean) {
          return Status::InvalidArgument(
              "logical operand is not a boolean: " + op->ToSql());
        }
        if (t == decisive) {
          *out = decisive;
          return Status::OK();
        }
        if (t == Truth::kNull) saw_null = true;
      }
      *out = saw_null ? Truth::kNull : Not(decisive);
      return Status::OK();
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(expr);
      P3PDB_RETURN_IF_ERROR(EvalPredicate(*n.operand, stack, out));
      if (*out == Truth::kNotBoolean) {
        return Status::InvalidArgument("NOT applied to non-boolean");
      }
      *out = Not(*out);
      return Status::OK();
    }
    case ExprKind::kExists: {
      const auto& e = static_cast<const ExistsExpr&>(expr);
      P3PDB_ASSIGN_OR_RETURN(bool found, ExistsAnyRow(*e.subquery, stack));
      *out = TruthOf(found != e.negated);
      return Status::OK();
    }
    case ExprKind::kHashJoin: {
      P3PDB_ASSIGN_OR_RETURN(
          bool pass,
          EvalHashJoin(static_cast<const HashJoinExpr&>(expr), stack));
      *out = TruthOf(pass);
      return Status::OK();
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      Value operand_scratch, item_scratch;
      const Value* v = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(*in.operand, stack, &operand_scratch, &v));
      bool saw_null = false;
      bool found = false;
      for (const ExprPtr& item : in.items) {
        const Value* iv = nullptr;
        P3PDB_RETURN_IF_ERROR(Operand(*item, stack, &item_scratch, &iv));
        Truth eq;
        P3PDB_RETURN_IF_ERROR(Compare(CompareOp::kEq, *v, *iv, &eq));
        ++stats_->comparisons;
        if (eq == Truth::kNull) {
          saw_null = true;
        } else if (eq == Truth::kTrue) {
          found = true;
          break;
        }
      }
      *out = found ? Truth::kTrue : saw_null ? Truth::kNull : Truth::kFalse;
      if (in.negated) *out = Not(*out);
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      Value scratch;
      const Value* v = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(*isn.operand, stack, &scratch, &v));
      *out = TruthOf(v->is_null() != isn.negated);
      return Status::OK();
    }
    case ExprKind::kLike: {
      const auto& lk = static_cast<const LikeExpr&>(expr);
      Value text_scratch, pattern_scratch;
      const Value* text = nullptr;
      const Value* pattern = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(*lk.operand, stack, &text_scratch, &text));
      P3PDB_RETURN_IF_ERROR(
          Operand(*lk.pattern, stack, &pattern_scratch, &pattern));
      if (text->is_null() || pattern->is_null()) {
        *out = Truth::kNull;
        return Status::OK();
      }
      if (text->type() != ValueType::kText ||
          pattern->type() != ValueType::kText) {
        return Status::InvalidArgument("LIKE requires text operands");
      }
      ++stats_->comparisons;
      const bool matched =
          SqlLikeMatch(text->AsText(), pattern->AsText(), lk.escape_char);
      *out = TruthOf(matched != lk.negated);
      return Status::OK();
    }
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kColumnRef:
    case ExprKind::kAggregate: {
      Value scratch;
      const Value* v = nullptr;
      P3PDB_RETURN_IF_ERROR(Operand(expr, stack, &scratch, &v));
      *out = TruthOf(*v);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Executor::EvalFilter(const Expr& expr, ScopeStack& stack) {
  Truth t;
  P3PDB_RETURN_IF_ERROR(EvalPredicate(expr, stack, &t));
  if (t == Truth::kNotBoolean) {
    return Status::InvalidArgument("WHERE clause is not a boolean");
  }
  return t == Truth::kTrue;
}

Result<bool> Executor::ExistsAnyRow(const SelectStmt& sub, ScopeStack& stack) {
  ++stats_->subquery_evals;
  PlanNodeStats* node = nullptr;
  std::chrono::steady_clock::time_point profile_start{};
  if (profile_ != nullptr) {
    node = profile_->Select(&sub);
    ++node->loops;
    profile_start = std::chrono::steady_clock::now();
  }
  Scope scope;
  scope.stmt = &sub;
  scope.Reset(sub.from.size());
  stack.push_back(&scope);
  bool found = false;
  bool stopped = false;
  Status st = EnumerateRows(
      sub, stack, scope, 0,
      [&]() -> Result<bool> {
        found = true;
        return true;  // stop at first row
      },
      &stopped);
  stack.pop_back();
  if (node != nullptr) {
    node->elapsed_us += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - profile_start)
                            .count();
    if (found) ++node->rows;
  }
  if (!st.ok()) return st;
  return found;
}

Result<bool> Executor::EvalHashJoin(const HashJoinExpr& join,
                                    ScopeStack& stack) {
  PlanNodeStats* node = nullptr;
  std::chrono::steady_clock::time_point profile_start{};
  if (profile_ != nullptr) {
    node = profile_->HashJoin(&join);
    ++node->loops;  // loops = probes
    profile_start = std::chrono::steady_clock::now();
  }
  // Read the probe key in the enclosing scope first: a NULL component
  // can never equal anything, so the subquery's correlation equality is
  // UNKNOWN for every inner row — EXISTS is false, NOT EXISTS is true —
  // without needing the key set at all.
  ProbeKey key(join.probe_keys.size());
  size_t nk = 0;
  bool null_key = false;
  for (const ExprPtr& pk : join.probe_keys) {
    P3PDB_RETURN_IF_ERROR(
        Operand(*pk, stack, key.scratch(nk), key.component(nk)));
    if ((*key.component(nk))->is_null()) {
      null_key = true;
      break;
    }
    ++nk;
  }
  bool found = false;
  if (!null_key) {
    P3PDB_ASSIGN_OR_RETURN(const HashJoinRuntime::KeySet* keys,
                           MemoKeySet(join));
    found = keys->find(key.View(nk)) != keys->end();
  }
  ++stats_->hash_join_probes;
  if (node != nullptr) {
    node->elapsed_us += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - profile_start)
                            .count();
    if (found) ++node->rows;  // rows = probe hits
  }
  return found != join.anti;
}

Result<std::shared_ptr<const HashJoinRuntime::KeySet>> Executor::HashJoinKeySet(
    const HashJoinExpr& join) {
  uint64_t version = 0;
  for (const Table* t : join.dep_tables) version += t->version();
  HashJoinRuntime& rt = *join.runtime;
  std::lock_guard<std::mutex> lock(rt.mu);
  if (rt.keys != nullptr && rt.built_at_version == version) {
    return std::shared_ptr<const HashJoinRuntime::KeySet>(rt.keys);
  }

  // (Re)build. The planner guarantees the build side references nothing
  // outside itself, so it enumerates under a fresh scope stack — which also
  // means the resulting set is independent of the probing context and safe
  // to cache. Building under the runtime mutex serializes concurrent
  // first-probers; all later executions take the cached branch above.
  const SelectStmt& build = *join.build;
  PlanNodeStats* node = nullptr;
  if (profile_ != nullptr) {
    node = profile_->Select(&build);
    ++node->loops;
  }
  Stopwatch sw;
  auto keys = std::make_shared<HashJoinRuntime::KeySet>();
  Scope scope;
  scope.stmt = &build;
  scope.Reset(build.from.size());
  ScopeStack build_stack;
  build_stack.push_back(&scope);
  uint64_t build_rows = 0;
  bool stopped = false;
  Status st = EnumerateRows(
      build, build_stack, scope, 0,
      [&]() -> Result<bool> {
        ++build_rows;
        IndexKey k;
        k.values.reserve(join.build_keys.size());
        bool has_null = false;
        for (const auto& bk : join.build_keys) {
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*bk, build_stack));
          if (v.is_null()) {
            has_null = true;  // NULL keys can never match a probe
            break;
          }
          k.values.push_back(std::move(v));
        }
        if (!has_null) keys->insert(std::move(k));
        return false;  // enumerate every row
      },
      &stopped);
  if (node != nullptr) {
    node->elapsed_us += sw.ElapsedMicros();
    node->rows += build_rows;
  }
  P3PDB_RETURN_IF_ERROR(st);
  ++stats_->hash_join_builds;
  stats_->hash_join_build_rows += build_rows;
  rt.keys = keys;
  rt.built_at_version = version;
  return std::shared_ptr<const HashJoinRuntime::KeySet>(std::move(keys));
}

Result<const HashJoinRuntime::KeySet*> Executor::MemoKeySet(
    const HashJoinExpr& join) {
  for (const KeySetMemoEntry& e : keyset_memo_) {
    if (e.join == &join) return e.keys.get();
  }
  P3PDB_ASSIGN_OR_RETURN(std::shared_ptr<const HashJoinRuntime::KeySet> keys,
                         HashJoinKeySet(join));
  KeySetMemoEntry& slot = keyset_memo_[keyset_memo_next_];
  keyset_memo_next_ = (keyset_memo_next_ + 1) % kKeySetMemoSlots;
  slot.join = &join;
  slot.keys = std::move(keys);
  return slot.keys.get();
}

Status Executor::EnumerateRows(
    const SelectStmt& stmt, ScopeStack& stack, Scope& scope, size_t slot,
    const RowCallback& on_row, bool* stopped) {
  if (*stopped) return Status::OK();
  if (slot == stmt.from.size()) {
    if (stmt.where != nullptr) {
      P3PDB_ASSIGN_OR_RETURN(bool pass, EvalFilter(*stmt.where, stack));
      if (!pass) return Status::OK();
    }
    P3PDB_ASSIGN_OR_RETURN(bool stop, on_row());
    if (stop) *stopped = true;
    return Status::OK();
  }
  if (profile_ == nullptr) {
    return ScanSlot(stmt, stack, scope, slot, on_row, stopped, nullptr);
  }
  PlanNodeStats* node = profile_->Scan(&stmt, slot);
  ++node->loops;
  Stopwatch sw;
  Status st = ScanSlot(stmt, stack, scope, slot, on_row, stopped, node);
  node->elapsed_us += sw.ElapsedMicros();
  return st;
}

Status Executor::ScanSlot(const SelectStmt& stmt, ScopeStack& stack,
                          Scope& scope, size_t slot,
                          const RowCallback& on_row,
                          bool* stopped, PlanNodeStats* node) {
  // Every executed statement is annotated (AnnotateSelect), one plan per
  // FROM slot.
  assert(stmt.slot_plans.size() == stmt.from.size());
  const Table* table = stmt.from[slot].table;
  const SlotPlan& sp = stmt.slot_plans[slot];

  const std::vector<size_t>* row_ids = nullptr;
  if (sp.index != nullptr) {
    ++stats_->index_lookups;
    const size_t nk = sp.key_exprs.size();
    ProbeKey key(nk);
    for (size_t i = 0; i < nk; ++i) {
      P3PDB_RETURN_IF_ERROR(Operand(*sp.key_exprs[i], stack, key.scratch(i),
                                    key.component(i)));
    }
    // By pointer: execution is read-only over the tables (DML never runs
    // concurrently with or within a SELECT), so the id list is stable.
    row_ids = sp.index->Lookup(key.View(nk));
    if (row_ids == nullptr) return Status::OK();
  } else {
    ++stats_->full_scans;
  }

  // The innermost filtered slot of a large scan filters in chunks (see
  // vectorized.cc).
  const size_t candidates =
      row_ids != nullptr ? row_ids->size() : table->SlotCount();
  if (config_.vectorized && sp.vector_filter && candidates > kSmallScan) {
    return FilterChunks(stmt, stack, scope, slot, row_ids, on_row, stopped,
                        node);
  }

  for (size_t i = 0; i < candidates; ++i) {
    const size_t row_id = row_ids != nullptr ? (*row_ids)[i] : i;
    if (!table->IsLive(row_id)) continue;
    ++stats_->rows_scanned;
    if (node != nullptr) ++node->rows;
    scope.rows[slot] = &table->RowAt(row_id);
    P3PDB_RETURN_IF_ERROR(
        EnumerateRows(stmt, stack, scope, slot + 1, on_row, stopped));
    if (*stopped) break;
  }
  scope.rows[slot] = nullptr;
  return Status::OK();
}

Result<QueryResult> Executor::RunSelect(const SelectStmt& stmt) {
  ScopeStack stack;
  if (profile_ == nullptr) {
    if (stmt.aggregate_mode) return RunAggregateSelect(stmt, stack);
    return RunPlainSelect(stmt, stack);
  }
  PlanNodeStats* node = profile_->Select(&stmt);
  ++node->loops;
  Stopwatch sw;
  auto result = stmt.aggregate_mode ? RunAggregateSelect(stmt, stack)
                               : RunPlainSelect(stmt, stack);
  node->elapsed_us += sw.ElapsedMicros();
  if (result.ok()) node->rows += result.value().rows.size();
  return result;
}

namespace {

/// Column header for a select item.
std::string ItemColumnName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr*>(item.expr.get())->column_name;
  }
  return item.expr->ToSql();
}

std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    key += v.ToString();
    key.push_back('\x1f');
  }
  return key;
}

struct SortEntry {
  Row output;
  Row keys;
};

}  // namespace

Status Executor::ApplyDistinctOrderLimit(const SelectStmt& stmt,
                                         ScopeStack& stack,
                                         QueryResult* result,
                                         const std::vector<Row>& order_keys) {
  (void)stack;
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Row> rows;
    std::vector<Row> keys;
    for (size_t i = 0; i < result->rows.size(); ++i) {
      std::string key = RowKey(result->rows[i]);
      if (seen.insert(std::move(key)).second) {
        rows.push_back(std::move(result->rows[i]));
        if (!order_keys.empty()) keys.push_back(order_keys[i]);
      }
    }
    result->rows = std::move(rows);
    if (!stmt.order_by.empty()) {
      return SortAndLimit(stmt, result, keys);
    }
  } else if (!stmt.order_by.empty()) {
    return SortAndLimit(stmt, result, order_keys);
  }
  if (stmt.limit.has_value() &&
      result->rows.size() > static_cast<size_t>(*stmt.limit)) {
    result->rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return Status::OK();
}

Result<QueryResult> Executor::RunPlainSelect(const SelectStmt& stmt,
                                             ScopeStack& stack) {
  ++stats_->statements_executed;
  QueryResult result;

  result.columns.Borrow(stmt.column_headers);

  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  stack.push_back(&scope);

  std::vector<Row> order_keys;
  bool stopped = false;
  Status st = EnumerateRows(
      stmt, stack, scope, 0,
      [&]() -> Result<bool> {
        Row out;
        for (const SelectItem& item : stmt.items) {
          if (item.is_star) {
            for (size_t slot = 0; slot < stmt.from.size(); ++slot) {
              const Row* row = scope.rows[slot];
              out.insert(out.end(), row->begin(), row->end());
            }
          } else {
            P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, stack));
            out.push_back(std::move(v));
          }
        }
        if (!stmt.order_by.empty()) {
          Row keys;
          for (const OrderByItem& ob : stmt.order_by) {
            if (ob.expr->kind == ExprKind::kLiteral) {
              const Value& lit =
                  static_cast<const LiteralExpr*>(ob.expr.get())->value;
              if (lit.type() == ValueType::kInteger) {
                int64_t ordinal = lit.AsInteger();
                if (ordinal < 1 ||
                    ordinal > static_cast<int64_t>(out.size())) {
                  return Status::InvalidArgument(
                      "ORDER BY ordinal out of range");
                }
                keys.push_back(out[static_cast<size_t>(ordinal - 1)]);
                continue;
              }
            }
            // A select-item alias (or exact text) sorts by that output
            // column; anything else evaluates in row context.
            std::string text = ob.expr->ToSql();
            size_t star_width = 0;
            for (const TableRef& tr : stmt.from) {
              star_width += tr.table->schema().ColumnCount();
            }
            bool matched = false;
            size_t column = 0;
            for (const SelectItem& item : stmt.items) {
              if (item.is_star) {
                column += star_width;
                continue;
              }
              if (item.alias == text || item.expr->ToSql() == text) {
                matched = true;
                break;
              }
              ++column;
            }
            if (matched && column < out.size()) {
              keys.push_back(out[column]);
              continue;
            }
            P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*ob.expr, stack));
            keys.push_back(std::move(v));
          }
          order_keys.push_back(std::move(keys));
        }
        result.rows.push_back(std::move(out));
        return false;
      },
      &stopped);
  stack.pop_back();
  P3PDB_RETURN_IF_ERROR(st);

  P3PDB_RETURN_IF_ERROR(
      ApplyDistinctOrderLimit(stmt, stack, &result, order_keys));
  return result;
}

namespace {

struct AggState {
  int64_t count = 0;
  int64_t sum = 0;
  bool sum_valid = false;
  Value min = Value::Null();
  Value max = Value::Null();
};

}  // namespace

Result<QueryResult> Executor::RunAggregateSelect(const SelectStmt& stmt,
                                                 ScopeStack& stack) {
  ++stats_->statements_executed;
  QueryResult result;
  for (const SelectItem& item : stmt.items) {
    result.columns.push_back(ItemColumnName(item));
  }

  // Classify select items: each must be either exactly an aggregate call or
  // aggregate-free (the binder verified the latter match GROUP BY).
  std::vector<const AggregateExpr*> agg_exprs;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kAggregate) {
      agg_exprs.push_back(static_cast<const AggregateExpr*>(item.expr.get()));
    } else if (ContainsAggregate(*item.expr)) {
      return Status::Unsupported(
          "select items must be plain aggregates or grouping columns");
    } else {
      agg_exprs.push_back(nullptr);
    }
  }

  Scope scope;
  scope.stmt = &stmt;
  scope.Reset(stmt.from.size());
  stack.push_back(&scope);

  struct Group {
    Row group_values;          // values of GROUP BY expressions
    Row item_values;           // grouping-item values aligned with items
    std::vector<AggState> aggs;  // one per select item (unused for grouping)
  };
  std::map<std::string, Group> groups;

  bool stopped = false;
  Status st = EnumerateRows(
      stmt, stack, scope, 0,
      [&]() -> Result<bool> {
        Row group_values;
        for (const ExprPtr& g : stmt.group_by) {
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*g, stack));
          group_values.push_back(std::move(v));
        }
        std::string key = RowKey(group_values);
        auto [it, inserted] = groups.try_emplace(std::move(key));
        Group& group = it->second;
        if (inserted) {
          group.group_values = std::move(group_values);
          group.aggs.resize(stmt.items.size());
          group.item_values.resize(stmt.items.size());
          for (size_t i = 0; i < stmt.items.size(); ++i) {
            if (agg_exprs[i] == nullptr) {
              P3PDB_ASSIGN_OR_RETURN(Value v,
                                     Eval(*stmt.items[i].expr, stack));
              group.item_values[i] = std::move(v);
            }
          }
        }
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          const AggregateExpr* agg = agg_exprs[i];
          if (agg == nullptr) continue;
          AggState& state = group.aggs[i];
          if (agg->func == AggFunc::kCountStar) {
            ++state.count;
            continue;
          }
          P3PDB_ASSIGN_OR_RETURN(Value v, Eval(*agg->arg, stack));
          if (v.is_null()) continue;
          ++state.count;
          switch (agg->func) {
            case AggFunc::kSum:
              if (v.type() != ValueType::kInteger) {
                return Status::InvalidArgument("SUM requires integers");
              }
              state.sum += v.AsInteger();
              state.sum_valid = true;
              break;
            case AggFunc::kMin:
              if (state.min.is_null() ||
                  Value::OrderCompare(v, state.min) < 0) {
                state.min = v;
              }
              break;
            case AggFunc::kMax:
              if (state.max.is_null() ||
                  Value::OrderCompare(v, state.max) > 0) {
                state.max = v;
              }
              break;
            default:
              break;
          }
        }
        return false;
      },
      &stopped);
  stack.pop_back();
  P3PDB_RETURN_IF_ERROR(st);

  // With no GROUP BY, aggregates over an empty input still produce one row.
  if (groups.empty() && stmt.group_by.empty()) {
    Group empty_group;
    empty_group.aggs.resize(stmt.items.size());
    empty_group.item_values.resize(stmt.items.size());
    groups.emplace("", std::move(empty_group));
  }

  std::vector<Row> order_keys;
  for (auto& [key, group] : groups) {
    Row out;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const AggregateExpr* agg = agg_exprs[i];
      if (agg == nullptr) {
        out.push_back(group.item_values[i]);
        continue;
      }
      switch (agg->func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          out.push_back(Value::Integer(group.aggs[i].count));
          break;
        case AggFunc::kSum:
          out.push_back(group.aggs[i].sum_valid
                            ? Value::Integer(group.aggs[i].sum)
                            : Value::Null());
          break;
        case AggFunc::kMin:
          out.push_back(group.aggs[i].min);
          break;
        case AggFunc::kMax:
          out.push_back(group.aggs[i].max);
          break;
      }
    }
    // Order keys: ordinals or select-item text matches only (row context is
    // gone by aggregation time).
    if (!stmt.order_by.empty()) {
      Row keys;
      for (const OrderByItem& ob : stmt.order_by) {
        if (ob.expr->kind == ExprKind::kLiteral) {
          const Value& lit =
              static_cast<const LiteralExpr*>(ob.expr.get())->value;
          if (lit.type() == ValueType::kInteger) {
            int64_t ordinal = lit.AsInteger();
            if (ordinal < 1 || ordinal > static_cast<int64_t>(out.size())) {
              return Status::InvalidArgument("ORDER BY ordinal out of range");
            }
            keys.push_back(out[static_cast<size_t>(ordinal - 1)]);
            continue;
          }
        }
        std::string text = ob.expr->ToSql();
        bool matched = false;
        for (size_t i = 0; i < stmt.items.size(); ++i) {
          if (!stmt.items[i].is_star &&
              (stmt.items[i].expr->ToSql() == text ||
               stmt.items[i].alias == text)) {
            keys.push_back(out[i]);
            matched = true;
            break;
          }
        }
        if (!matched) {
          return Status::InvalidArgument(
              "ORDER BY in an aggregate query must reference a select item");
        }
      }
      order_keys.push_back(std::move(keys));
    }
    result.rows.push_back(std::move(out));
  }

  P3PDB_RETURN_IF_ERROR(
      ApplyDistinctOrderLimit(stmt, stack, &result, order_keys));
  return result;
}

Status Executor::SortAndLimit(const SelectStmt& stmt, QueryResult* result,
                              const std::vector<Row>& order_keys) {
  std::vector<size_t> order(result->rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Row& ka = order_keys[a];
    const Row& kb = order_keys[b];
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      int c = Value::OrderCompare(ka[i], kb[i]);
      if (c != 0) return stmt.order_by[i].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(result->rows.size());
  for (size_t i : order) sorted.push_back(std::move(result->rows[i]));
  result->rows = std::move(sorted);
  if (stmt.limit.has_value() &&
      result->rows.size() > static_cast<size_t>(*stmt.limit)) {
    result->rows.resize(static_cast<size_t>(*stmt.limit));
  }
  return Status::OK();
}

void PrecomputeExecHints(SelectStmt* stmt) {
  bool aggregate_mode = !stmt->group_by.empty();
  for (const SelectItem& item : stmt->items) {
    if (!item.is_star && ContainsAggregate(*item.expr)) aggregate_mode = true;
  }
  stmt->aggregate_mode = aggregate_mode;
  // RunPlainSelect borrows these; the aggregate path keeps building its own
  // (its header shape differs for star items).
  auto headers = std::make_shared<std::vector<std::string>>();
  for (const SelectItem& item : stmt->items) {
    if (item.is_star) {
      for (const TableRef& tr : stmt->from) {
        for (const ColumnDef& col : tr.table->schema().columns()) {
          headers->push_back(col.name);
        }
      }
    } else {
      headers->push_back(ItemColumnName(item));
    }
  }
  stmt->column_headers = std::move(headers);
}

}  // namespace p3pdb::sqldb
