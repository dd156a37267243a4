// Per-layer trace of the traced run, measured from outside the program.
//
// The benchmark replays sampled requests through the public entry point of
// each layer and times every call as a span (name, start, end, parent span,
// request id). Spans stay in memory and are written out as JSON lines when
// the run ends. Database::stats() / storage_stats() counts are read at the
// same boundaries by the callers.

#ifndef P3PDB_PERFBENCH_TRACE_H_
#define P3PDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sqldb/database.h"
#include "src/util.h"
#include "translator/sql_simple.h"

namespace p3pdb::perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the parent span; -1 for a root
  uint64_t request = 0;
};

/// Append-only span store. Not thread-safe: callers serialize replays.
class SpanLog {
 public:
  /// Records a span that already happened; returns its index.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request);

  /// Runs f() as a span; returns its index.
  template <typename F>
  int64_t Time(const char* name, int64_t parent, uint64_t request, F&& f) {
    const int64_t start = NowNs();
    f();
    return Add(name, start, NowNs(), parent, request);
  }

  double DurationUs(int64_t index) const {
    return NsToUs(spans_[index].end_ns - spans_[index].start_ns);
  }
  /// Durations of every span with this name.
  Samples DurationsUs(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  Status WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Replays the rule queries of a compiled SQL ruleset against `policy_id`
/// the way the server evaluates them (in order, through Database::Execute
/// with bind parameters, stopping at the first rule that returns rows).
/// With a non-null `log`, each rule also gets a `sqldb.query` span, a
/// `sqldb.execute` child (the prepared statement: the executor alone) and
/// the conversion steps of a fresh prepare (`sqldb.lex`, `sqldb.parse`,
/// `sqldb.bind`, `sqldb.plan`), timed after every query has run. Returns
/// the summed time of the Database::Execute calls, in microseconds.
double ReplayRuleQueries(sqldb::Database* db,
                             const translator::SqlRuleset& sql,
                             const std::vector<sqldb::PreparedStatement>&
                                 prepared,
                             int64_t policy_id, SpanLog* log, int64_t parent,
                             uint64_t request);

/// Prepares every rule query of `sql` on `db` (for the sqldb.execute span).
Result<std::vector<sqldb::PreparedStatement>> PrepareRules(
    sqldb::Database* db, const translator::SqlRuleset& sql);

/// Per-match execution counters, from Database::stats() deltas.
struct ExecCounts {
  double matches = 0;
  double statements = 0;
  double rows_scanned = 0;
  double hash_join_probes = 0;
  double plans_built = 0;
  double plan_cache_hits = 0;

  void Add(const sqldb::ExecStats& before, const sqldb::ExecStats& after);
};

}  // namespace p3pdb::perfbench

#endif  // P3PDB_PERFBENCH_TRACE_H_
