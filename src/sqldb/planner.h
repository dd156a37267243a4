// Rule-based query planner: EXISTS decorrelation.
//
// The translators emit one predicate shape for nesting — `[NOT] EXISTS
// (SELECT * FROM child WHERE child.fk = outer.pk AND <locals>)` — which the
// executor evaluates as a correlated nested loop (re-run per outer row).
// This is exactly the shape a cost-based optimizer like DB2's (the engine
// the paper measured against) decorrelates: the planner rewrites it into a
// hash semi-join (EXISTS) or anti-join (NOT EXISTS) that builds the
// subquery's key set once and answers every outer row with one O(1) probe,
// with the remaining local predicates pushed below the build.
//
// Rewrite preconditions (anything else falls back to the correlated path):
//   - every top-level AND conjunct of the subquery's WHERE is either
//       (a) a correlation equality `inner_col = outer_col` — one side a
//           column of the subquery's own FROM (level 0), the other a plain
//           column reference from an enclosing scope (level >= 1) of the
//           same column type (the executor's `=` errors on mixed types
//           while hash equality would not, so mixed types are not
//           rewritten), or
//       (b) a local conjunct referencing nothing outside the subquery at
//           any nesting depth;
//   - at least one correlation equality exists;
//   - the subquery contains no `?` bind parameters (a cached key set must
//     not depend on per-execution values).
//
// NULL join keys (the classic decorrelation bug) keep their three-valued
// semantics: a NULL build key never enters the set and a NULL probe key
// matches nothing, so EXISTS yields false and NOT EXISTS yields true —
// identical to the correlated path, where `col = NULL` rejects every row.
//
// The rewrite recurses into the build side, so the translators' EXISTS
// chains (Policy -> Statement -> Purpose/Recipient/Retention/Data) become
// nested hash joins whose builds amortize across outer rows, and into
// non-rewritten subqueries, so deeper eligible levels are still planned.

#ifndef P3PDB_SQLDB_PLANNER_H_
#define P3PDB_SQLDB_PLANNER_H_

#include <cstdint>

#include "sqldb/ast.h"

namespace p3pdb::sqldb {

class StatsCatalog;

/// Rewrite tallies, merged into the database's ExecStats by the caller.
struct PlannerStats {
  uint64_t semi_join_rewrites = 0;  // EXISTS -> hash semi-join
  uint64_t anti_join_rewrites = 0;  // NOT EXISTS -> hash anti-join
  // Cost-model decisions (only tick when a StatsCatalog was supplied).
  uint64_t cost_exists_kept = 0;    // rewrite vetoed: correlated path cheaper
  uint64_t cost_join_reorders = 0;  // AND chains reordered cheapest-first
  uint64_t cost_seq_forced = 0;     // index access overridden to seq scan
};

/// Rewrites eligible [NOT] EXISTS predicates of a *bound* SELECT into
/// HashJoinExpr nodes, in place. Idempotent-safe to skip: an unplanned
/// statement executes identically (modulo speed) on the correlated path.
///
/// With a non-null `catalog`, the rule rewrites are moderated by the cost
/// model (see stats.h):
///   - an eligible EXISTS stays correlated when its estimated build
///     cardinality dwarfs the estimated outer loop count AND the build
///     table indexes the correlation columns — the point-lookup-per-outer-
///     row plan beats materializing a huge key set for a handful of probes;
///   - sibling hash joins under one AND are reordered cheapest-build-first
///     (scalar conjuncts keep their positions), so when a cheap join
///     rejects an outer row the expensive builds are never forced. Result-
///     identical: AND over the joins' three-valued verdicts is order-
///     independent.
/// Every surviving HashJoinExpr is stamped with its estimated build rows
/// for EXPLAIN.
void PlanSelect(SelectStmt* stmt, PlannerStats* stats = nullptr,
                const StatsCatalog* catalog = nullptr);

/// Fills `slot_plans` on `stmt` and every nested SELECT (EXISTS subqueries,
/// hash-join build sides): the access path of each FROM slot (index choice
/// + probe key expressions), plus the chunked-filter eligibility of the
/// innermost slot. This is the only place access paths are chosen: the
/// executor and EXPLAIN read them, so every statement they see must be
/// annotated (Database annotates every SELECT it prepares and every DML
/// WHERE probe). Must run after PlanSelect (rewrites change the tree) and
/// only on bound statements.
///
/// With a non-null `catalog` each slot plan additionally carries estimated
/// rows, and the cost model may override the syntactic index choice with a
/// sequential scan when the index's estimated selectivity is so poor (low
/// NDV key) that the lookup would return most of the table anyway.
void AnnotateSelect(SelectStmt* stmt, const StatsCatalog* catalog = nullptr,
                    PlannerStats* stats = nullptr);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_PLANNER_H_
