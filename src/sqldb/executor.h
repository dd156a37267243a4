// Query executor.
//
// Evaluation is tuple-at-a-time over nested loops. The executor chooses no
// access paths: Database::BindAndPlan annotates every bound SELECT (see
// planner.h:AnnotateSelect), and each FROM slot runs the SlotPlan it was
// given — a hash-index point lookup keyed by values already available
// (outer-scope tables of a correlated subquery, or earlier tables in the
// same FROM list), or a sequential scan. Correlated EXISTS subqueries are
// re-evaluated per outer row with early-out on the first matching row — the
// execution shape DB2 would pick for the highly selective key joins of the
// generated APPEL queries.

#ifndef P3PDB_SQLDB_EXECUTOR_H_
#define P3PDB_SQLDB_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sqldb/ast.h"
#include "sqldb/query_result.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

/// Shared runtime state of one planner-produced hash join (see planner.h):
/// the build-side key set, cached across executions of the same bound plan
/// and across the concurrent executors sharing it. `built_at_version` is
/// the sum of the dep tables' modification counters at build time; any
/// mismatch means a table changed and the set is rebuilt. Probers copy the
/// shared_ptr under the mutex and then probe lock-free, so a rebuild never
/// invalidates a set another thread is still reading.
struct HashJoinRuntime {
  // Transparent hash/equality so probes can use IndexKeyView without
  // materializing an IndexKey per probe (heterogeneous lookup).
  using KeySet = std::unordered_set<IndexKey, IndexKeyHash, IndexKeyEqual>;

  std::mutex mu;
  std::shared_ptr<const KeySet> keys;  // null until first build
  uint64_t built_at_version = 0;
};

/// Runtime counters for one plan node, accumulated across loops (EXPLAIN
/// ANALYZE). `elapsed_us` is inclusive of child nodes, Postgres-style.
struct PlanNodeStats {
  uint64_t loops = 0;   // times the node was (re)started
  uint64_t rows = 0;    // rows the node produced, summed over loops
  double elapsed_us = 0.0;

  // Vectorized-scan actuals (zero on row-at-a-time nodes): chunks emitted,
  // rows gathered into them, and rows surviving the chunked filter.
  uint64_t batches = 0;
  uint64_t batch_rows_in = 0;
  uint64_t batch_rows_out = 0;
};

/// Side table of actual runtime stats keyed by plan-node identity: a
/// SelectStmt* for select nodes (top-level or EXISTS subquery), a
/// (SelectStmt*, FROM slot) pair for scan nodes. The AST nodes themselves
/// stay immutable during execution, so one bound statement can be profiled
/// without perturbing concurrent readers of the tree.
class PlanProfile {
 public:
  PlanNodeStats* Select(const SelectStmt* stmt) { return &selects_[stmt]; }
  PlanNodeStats* Scan(const SelectStmt* stmt, size_t slot) {
    return &scans_[{stmt, slot}];
  }
  /// Hash-join nodes are keyed by expression identity; `loops` counts
  /// probes, `rows` counts probe hits. Build-side actuals live on the build
  /// SelectStmt's own node.
  PlanNodeStats* HashJoin(const Expr* join) { return &hash_joins_[join]; }

  /// nullptr when the node never executed (e.g. short-circuited subquery).
  const PlanNodeStats* FindSelect(const SelectStmt* stmt) const;
  const PlanNodeStats* FindScan(const SelectStmt* stmt, size_t slot) const;
  const PlanNodeStats* FindHashJoin(const Expr* join) const;

 private:
  std::map<const SelectStmt*, PlanNodeStats> selects_;
  std::map<std::pair<const SelectStmt*, size_t>, PlanNodeStats> scans_;
  std::map<const Expr*, PlanNodeStats> hash_joins_;
};

/// Execution-mode knob, passed down from Database::Options. `vectorized`
/// lets ScanSlot filter the innermost slot of a large scan in chunks (see
/// vectorized.cc); off, every slot runs row-at-a-time. Results are the same
/// either way.
struct ExecConfig {
  bool vectorized = false;
};

struct VecScratch;  // chunk evaluation arenas, defined in vectorized.cc

/// Verdict of a predicate under SQL three-valued logic. kNotBoolean means
/// the expression yielded a non-boolean value where a predicate was
/// expected; each context (WHERE, AND/OR operand, NOT) words its own error.
enum class Truth : uint8_t { kFalse, kTrue, kNull, kNotBoolean };

/// Non-owning view of a `Result<bool>()` callable. The per-row callbacks of
/// EnumerateRows are constructed once per scan setup, and the match path
/// sets up several scans per query — a std::function would heap-allocate
/// its captures every time. The viewed callable must outlive the view; every
/// use here passes a lambda that lives for the whole enumeration call.
class RowCallback {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RowCallback>>>
  RowCallback(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o) {
          return (*static_cast<const F*>(o))();
        }) {}

  Result<bool> operator()() const { return call_(obj_); }

 private:
  const void* obj_;
  Result<bool> (*call_)(const void*);
};

/// Executes bound SELECT statements. Stateless apart from the stats sink,
/// the optional bind-parameter values, and the optional plan profile; one
/// instance can run many queries. `stats` is a per-execution object owned
/// by the caller, so concurrent executors never share mutable state.
class Executor {
 public:
  explicit Executor(ExecStats* stats, const std::vector<Value>* params = nullptr,
                    PlanProfile* profile = nullptr, ExecConfig config = {})
      : stats_(stats), params_(params), profile_(profile), config_(config) {}

  /// Runs a bound SELECT and materializes the full result.
  Result<QueryResult> RunSelect(const SelectStmt& stmt);

  /// Evaluates a bound expression with no row context (INSERT VALUES
  /// lists, bound by Database::ExecuteInsert). Column references fail.
  Result<Value> EvalConstant(const Expr& expr);

  /// Evaluates the WHERE clause of a bound single-table SELECT against one
  /// candidate row (DELETE uses this to collect victims by row id). A null
  /// WHERE accepts every row.
  Result<bool> EvalRowPredicate(const SelectStmt& stmt, const Row& row);

  /// Evaluates an arbitrary expression bound within `stmt`'s scope against
  /// one row of its single FROM table (UPDATE assignment values).
  Result<Value> EvalRowExpression(const SelectStmt& stmt, const Row& row,
                                  const Expr& expr);

 private:
  struct Scope {
    const SelectStmt* stmt = nullptr;
    const Row** rows = nullptr;  // one slot per FROM entry

    /// Points `rows` at cleared storage for `n` slots: inline for the
    /// common narrow FROM lists (a heap vector per scope showed up in the
    /// per-match profile), spilling to the heap only for very wide ones.
    void Reset(size_t n) {
      if (n > kInlineSlots) {
        spill_.assign(n, nullptr);
        rows = spill_.data();
        return;
      }
      rows = inline_rows_;
      for (size_t i = 0; i < n; ++i) rows[i] = nullptr;
    }

   private:
    static constexpr size_t kInlineSlots = 8;
    const Row* inline_rows_[kInlineSlots];
    std::vector<const Row*> spill_;
  };

  /// Stack of enclosing scopes, innermost last. Depth is bounded by the
  /// binder's subquery budget, so the inline buffer covers every statement
  /// the stock servers accept; a heap vector per RunSelect was measurable
  /// on the per-match profile. Deeper stacks (custom budgets) spill.
  class ScopeStack {
   public:
    void push_back(Scope* s) {
      if (size_ < kInline) {
        inline_[size_++] = s;
        return;
      }
      spill_.push_back(s);
      ++size_;
    }
    void pop_back() {
      if (size_ > kInline) spill_.pop_back();
      --size_;
    }
    size_t size() const { return size_; }
    Scope* operator[](size_t i) const {
      return i < kInline ? inline_[i] : spill_[i - kInline];
    }
    Scope* back() const { return (*this)[size_ - 1]; }

   private:
    static constexpr size_t kInline = 40;
    size_t size_ = 0;
    Scope* inline_[kInline];
    std::vector<Scope*> spill_;
  };

  /// Evaluates any expression to a value. Predicates box the verdict of
  /// EvalPredicate; projections and aggregate arguments are the callers
  /// that need the box.
  Result<Value> Eval(const Expr& expr, ScopeStack& stack);
  /// The one three-valued predicate evaluator: comparisons, AND/OR, NOT,
  /// [NOT] EXISTS, hash semi/anti-joins, IS [NOT] NULL, LIKE and IN. Leaf
  /// operands are read in place (see Operand), and verdicts pass between
  /// nodes unboxed. Any other expression is evaluated and its value taken
  /// as the verdict: NULL is kNull, a boolean is itself, anything else is
  /// kNotBoolean.
  Status EvalPredicate(const Expr& expr, ScopeStack& stack, Truth* out);
  /// Points `*out` at the value of `expr` without copying it: a literal in
  /// the AST, a `?` in params_, a column in its positioned row. Any other
  /// expression is evaluated into `*scratch`. The pointer stays valid while
  /// the row stays positioned and `*scratch` is untouched.
  Status Operand(const Expr& expr, ScopeStack& stack, Value* scratch,
                 const Value** out);
  /// Evaluates a predicate; the row passes only when the result is TRUE
  /// (NULL and FALSE both reject — SQL three-valued filter semantics).
  Result<bool> EvalFilter(const Expr& expr, ScopeStack& stack);
  Result<bool> ExistsAnyRow(const SelectStmt& sub, ScopeStack& stack);

  /// Semi/anti-join probe: reads the probe keys in the current scope and
  /// answers from the (possibly cached) build-side key set; true when the
  /// row passes (a hit for a semi-join, a miss for an anti-join).
  Result<bool> EvalHashJoin(const HashJoinExpr& join, ScopeStack& stack);
  /// Returns the current key set for `join`, building (and caching) it if
  /// the cache is empty or stale.
  Result<std::shared_ptr<const HashJoinRuntime::KeySet>> HashJoinKeySet(
      const HashJoinExpr& join);
  /// Per-execution memo over HashJoinKeySet: one mutex acquisition and
  /// version check per (execution, join) instead of per probe row. The
  /// memo's shared_ptr keeps the snapshot alive for the whole execution —
  /// the same lock-free-probe guarantee the per-row fetch gave one probe,
  /// extended to the execution. The pointer is valid until the Executor is
  /// destroyed.
  Result<const HashJoinRuntime::KeySet*> MemoKeySet(const HashJoinExpr& join);

  /// Depth-first enumeration of FROM-row combinations that satisfy WHERE.
  /// `on_row` returns true to stop early (EXISTS).
  Status EnumerateRows(const SelectStmt& stmt, ScopeStack& stack, Scope& scope,
                       size_t slot, const RowCallback& on_row,
                       bool* stopped);
  /// The per-slot body of EnumerateRows: probes the slot's planned access
  /// path, then walks the candidate rows one at a time, or in chunks via
  /// FilterChunks for the innermost filtered slot of a large scan when
  /// config_.vectorized is set. `node` collects actuals when profiling,
  /// else nullptr.
  Status ScanSlot(const SelectStmt& stmt, ScopeStack& stack, Scope& scope,
                  size_t slot, const RowCallback& on_row,
                  bool* stopped, PlanNodeStats* node);

  /// Scans with at most this many candidate rows stay row-at-a-time: the
  /// match path's per-policy point lookups position one or two rows, where
  /// scratch leasing and kernel dispatch cost more than they amortize.
  static constexpr size_t kSmallScan = 16;

  // --- Chunked filter (vectorized.cc) ---------------------------------------
  /// Gathers the candidate rows of innermost slot `slot` (`row_ids`, or the
  /// whole table when null) into chunks and evaluates the WHERE clause with
  /// the chunk kernels in EvalPredicateChunk, emitting passing rows to
  /// `on_row`. Semantics are identical to the row-at-a-time loop
  /// (three-valued logic, NULL join verdicts, error messages).
  Status FilterChunks(const SelectStmt& stmt, ScopeStack& stack, Scope& scope,
                      size_t slot, const std::vector<size_t>* row_ids,
                      const RowCallback& on_row, bool* stopped,
                      PlanNodeStats* node);
  /// Evaluates `expr` as a predicate over the active rows of the current
  /// chunk, writing tri-state verdicts (false/true/null) into `out` at the
  /// active positions. `active`/`n_active` is a selection vector of chunk
  /// row indices. `nonbool_error` is the message prefix used when a non-kNot
  /// context receives a non-boolean operand.
  Status EvalPredicateChunk(const Expr& expr, size_t slot, ScopeStack& stack,
                            Scope& scope, const uint32_t* active,
                            size_t n_active, uint8_t* out,
                            const char* nonbool_error, VecScratch& scratch);

  Result<QueryResult> RunPlainSelect(const SelectStmt& stmt,
                                     ScopeStack& stack);
  Result<QueryResult> RunAggregateSelect(const SelectStmt& stmt,
                                         ScopeStack& stack);

  Status ApplyDistinctOrderLimit(const SelectStmt& stmt, ScopeStack& stack,
                                 QueryResult* result,
                                 const std::vector<Row>& order_keys);
  Status SortAndLimit(const SelectStmt& stmt, QueryResult* result,
                      const std::vector<Row>& order_keys);

  ExecStats* stats_;
  const std::vector<Value>* params_;  // null = statement takes no parameters
  PlanProfile* profile_;  // null = no per-node actuals collected
  ExecConfig config_;

  // MemoKeySet state: a small direct-scan cache (statements carry at most a
  // handful of distinct joins; round-robin eviction covers the rest).
  struct KeySetMemoEntry {
    const HashJoinExpr* join = nullptr;
    std::shared_ptr<const HashJoinRuntime::KeySet> keys;
  };
  static constexpr size_t kKeySetMemoSlots = 4;
  KeySetMemoEntry keyset_memo_[kKeySetMemoSlots];
  size_t keyset_memo_next_ = 0;
};

/// SQL LIKE with % (any run) and _ (any single char). `escape_char` ('\0'
/// for none) makes the following pattern character literal. NULL operands
/// yield NULL at the caller; this is the non-null core.
bool SqlLikeMatch(std::string_view text, std::string_view pattern,
                  char escape_char = '\0');

/// Fills the bound statement's execution hints (column headers, aggregate
/// mode) so the per-query hot path does not re-derive them. Called from
/// Database::BindAndPlan on every SELECT it prepares, after planning; the
/// hints describe the final tree. RunSelect reads them and requires them.
void PrecomputeExecHints(SelectStmt* stmt);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_EXECUTOR_H_
