// EXPLAIN: renders the access paths the planner chose for a bound SELECT,
// which are exactly what the executor runs — which tables are probed
// through which hash index and which fall back to sequential scans, with
// subqueries indented. This is how the
// schema-ablation experiments show *why* the Figure 15 queries beat the
// Figure 13 ones.

#ifndef P3PDB_SQLDB_EXPLAIN_H_
#define P3PDB_SQLDB_EXPLAIN_H_

#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/executor.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {

/// Optional decorations for the plan text.
struct ExplainOptions {
  /// When set, `?` placeholders in index-key expressions render with their
  /// bound value — `?[=3]` — so parameterized-mode plans are readable.
  const std::vector<Value>* params = nullptr;
  /// When set (EXPLAIN ANALYZE), each node line gains its actual row count,
  /// loop count, and inclusive elapsed time; nodes the execution never
  /// reached render as "(never executed)".
  const PlanProfile* profile = nullptr;
};

/// Produces the plan text for a *bound and annotated* SELECT
/// (Database::Execute prepares it before calling this for EXPLAIN
/// statements). One line per plan node:
///
///   select
///     scan ApplicablePolicy (seq scan)
///     exists-subquery
///       scan Policy (index pk_Policy on policy_id = ?[=3])
///       ...
///
/// With `options.profile`, nodes carry actuals:
///
///   select (actual rows=1 loops=1 time=12.4us)
std::string ExplainPlan(const SelectStmt& stmt);
std::string ExplainPlan(const SelectStmt& stmt, const ExplainOptions& options);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_EXPLAIN_H_
