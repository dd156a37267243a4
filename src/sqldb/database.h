// Database: the top-level facade of the sqldb engine.
//
// Owns the catalog of tables and executes SQL text end to end:
// tokenize -> parse -> bind -> execute. This is the component that stands in
// for DB2 UDB in the paper's server-centric architecture; the APPEL
// translators hand it SQL strings exactly as the paper's system handed
// generated SQL to DB2.

#ifndef P3PDB_SQLDB_DATABASE_H_
#define P3PDB_SQLDB_DATABASE_H_

#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "sqldb/ast.h"
#include "sqldb/binder.h"
#include "sqldb/query_result.h"
#include "sqldb/statement_stats.h"
#include "sqldb/stats.h"
#include "sqldb/storage.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {

class Database;

/// Planner default: on, unless the environment sets P3PDB_NO_PLANNER to a
/// non-empty value other than "0". Read at Database construction time, so
/// harnesses (the cross-engine differential, the `--no-planner` bench
/// ablations) can flip the whole executor path without threading a flag
/// through every layer.
bool PlannerEnabledFromEnv();

/// Vectorized-executor default: on, unless the environment sets
/// P3PDB_NO_VECTORIZE to a non-empty value other than "0". Same contract as
/// PlannerEnabledFromEnv, so the bench/CI ablations flip the batch executor
/// the way they flip the planner.
bool VectorizeEnabledFromEnv();

/// Cost-model default: on, unless the environment sets P3PDB_NO_COST to a
/// non-empty value other than "0". Same contract as PlannerEnabledFromEnv,
/// so bench/CI ablations can compare rule-only planning against cost-based
/// planning without code changes.
bool CostModelEnabledFromEnv();

/// A parsed-and-bound SELECT that can be executed repeatedly without
/// re-preparing — what the generated rule queries become after the
/// "conversion" step, so match-time cost is execution only.
///
/// Execution is read-only over the bound AST, so one PreparedStatement may
/// be executed from many threads concurrently (each call supplies its own
/// parameter values and accumulates into a private ExecStats).
class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Runs the statement against the database it was prepared on, with one
  /// value per `?` placeholder, in order (`params.size()` must equal
  /// param_count()). The catalog must still contain the bound tables. A
  /// non-null `trace` records an `sql-execute` span (row and access-path
  /// counters attached).
  Result<QueryResult> Execute(const std::vector<Value>& params = {},
                              obs::TraceContext* trace = nullptr) const;

  bool valid() const { return stmt_ != nullptr; }
  /// The SQL text the statement was prepared from.
  const std::string& sql() const { return sql_; }
  /// Number of `?` placeholders the statement takes.
  size_t param_count() const;

 private:
  friend class Database;
  Database* db_ = nullptr;
  std::shared_ptr<Statement> stmt_;  // bound SELECT
  std::string sql_;
  uint64_t catalog_generation_ = 0;  // guards against post-DDL execution
};

class Database : public CatalogView {
 public:
  struct Options {
    /// Maximum SELECT nesting depth accepted by the binder. Models the
    /// complexity budget that made DB2 reject the XTABLE-generated SQL for
    /// the Medium preference (Figure 21). The default accommodates every
    /// query the optimized translator generates.
    int max_subquery_depth = 32;
    /// Verify FOREIGN KEY references on INSERT (parents must exist).
    bool enforce_foreign_keys = true;
    /// Run the rule-based planner (EXISTS decorrelation into hash
    /// semi/anti-joins, see planner.h) after binding every SELECT, and
    /// cache parsed+bound+planned SELECTs keyed by SQL text, so repeated
    /// executions of the same statement (the server's per-match rule
    /// queries) skip parse/bind/plan entirely. Cache entries are stamped
    /// with the catalog generation and lazily re-prepared after DDL. Off =
    /// every execution parses, binds and annotates afresh and runs the
    /// correlated EXISTS path.
    bool enable_planner = PlannerEnabledFromEnv();
    /// Maintain table/column statistics (see stats.h) and let them moderate
    /// the rule planner: build-side estimates, EXISTS rewrite vetoes,
    /// cheapest-build-first join ordering, index-vs-seq access choice, and
    /// stats-epoch invalidation of cached plans. Off = the planner is
    /// purely syntactic, and stats maintenance costs zero on every DML
    /// path.
    bool enable_cost_model = CostModelEnabledFromEnv();
    /// Let the executor filter the innermost FROM slot of a scan with more
    /// than 16 candidate rows in chunks, with selection-vector predicate
    /// kernels and batched hash-join probes (see vectorized.cc). Off =
    /// every slot filters row at a time. Access paths come from the planner
    /// either way, and results are identical.
    bool enable_vectorized_executor = VectorizeEnabledFromEnv();
    /// Fingerprint every prepared SELECT (literals normalize to `?`) and
    /// keep per-fingerprint aggregates — calls, rows, cache hits, rewrites,
    /// latency distribution (see statement_stats.h). Off by default: the
    /// raw engine stays exactly as before; the policy server turns it on.
    bool enable_statement_stats = false;
    /// With statement stats on, executions slower than this land in the
    /// slow-query log with their bound params and an EXPLAIN ANALYZE plan.
    /// 0 disables slow capture.
    uint64_t slow_query_threshold_us = 0;
    /// With statement stats on, every Nth execution of a statement shape is
    /// captured into the slow log as a trace sample regardless of latency.
    /// 0 disables sampling.
    uint32_t trace_sample_every = 0;
    /// Ring capacity of the slow-query log.
    size_t slow_log_capacity = 128;
    /// Directory for the disk-backed storage engine (checkpoints + WAL,
    /// see storage.h). Empty — the default — keeps the database purely
    /// in-memory with zero storage overhead on any path. Non-empty opens
    /// (creating or recovering) the directory at construction; check
    /// storage_status() before use.
    std::string storage_path;
    /// fsync the WAL on every commit (off trades tail-loss for speed).
    bool storage_sync_on_commit = true;
    /// Auto-checkpoint once this many WAL bytes accumulate; 0 disables.
    uint64_t storage_checkpoint_wal_bytes = 4ull << 20;
    /// Every commit fsyncs through a leader/follower queue, so concurrent
    /// committers share one WAL fsync. This is the extra microseconds a
    /// leader waits for followers to stage before fsyncing; 0 adds no
    /// latency.
    uint64_t storage_group_commit_window_us = 0;
    /// Take a final checkpoint in the destructor so the next open loads a
    /// compact image instead of replaying the whole WAL.
    bool storage_checkpoint_on_close = true;
    /// File-backend factory for storage files; null means plain POSIX
    /// files. The kill-and-recover harness injects fault backends here.
    FileBackendFactory storage_backend_factory;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options)
      : options_(options), db_id_(NextDatabaseId()) {
    if (options_.enable_statement_stats &&
        (options_.slow_query_threshold_us > 0 ||
         options_.trace_sample_every > 0)) {
      slow_log_ =
          std::make_unique<obs::SlowQueryLog>(options_.slow_log_capacity);
    }
    if (!options_.storage_path.empty()) {
      storage_status_ = OpenStorage();
    }
  }
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// OK for in-memory databases and for successfully opened/recovered
  /// disk-backed ones; otherwise the open/recovery error (every mutating
  /// call then fails with this status rather than diverging from disk).
  const Status& storage_status() const { return storage_status_; }
  /// True when this database is disk-backed and healthy.
  bool storage_active() const {
    return storage_ != nullptr && storage_status_.ok();
  }
  /// WAL/checkpoint/recovery counters; zeros when not disk-backed.
  StorageStats storage_stats() const {
    return storage_ != nullptr ? storage_->stats() : StorageStats{};
  }

  /// Opens an explicit transaction: subsequent statements share one WAL
  /// commit, issued by CommitTransaction. No-op (OK) when in-memory.
  /// Transactions group durability only — there is no rollback; partial
  /// effects of a failed statement remain, exactly as in-memory.
  Status BeginTransaction();
  /// CommitTransactionStaged followed by WaitDurable.
  Status CommitTransaction();

  /// The two phases of CommitTransaction: appends the commit record and
  /// returns a durability ticket without fsyncing, so a caller holding an
  /// exclusive lock can release it before blocking on the disk in
  /// WaitDurable. Ticket 0 = already durable (in-memory database, empty
  /// transaction, or sync-on-commit off); WaitDurable(0) returns
  /// immediately. Staging must be serialized by the caller (like every
  /// other mutating call); WaitDurable is thread-safe.
  Result<uint64_t> CommitTransactionStaged();
  Status WaitDurable(uint64_t ticket);

  /// Forces a checkpoint (full catalog image + WAL truncation). No-op when
  /// in-memory.
  Status Checkpoint();

  /// Parses and executes one SQL statement. Statements containing `?`
  /// placeholders are rejected (use the parameterized overload). A non-null
  /// `trace` records `sql-parse` / `sql-bind` / `sql-execute` spans; a
  /// plan-cache hit records only `sql-execute`.
  Result<QueryResult> Execute(std::string_view sql,
                              obs::TraceContext* trace = nullptr);

  /// Parses and executes one SELECT (or EXPLAIN [ANALYZE]) with one value
  /// per `?` placeholder; other statement kinds are rejected.
  Result<QueryResult> Execute(std::string_view sql,
                              const std::vector<Value>& params,
                              obs::TraceContext* trace = nullptr);

  /// Parses and binds a SELECT once for repeated execution.
  Result<PreparedStatement> Prepare(std::string_view sql);

  /// Executes a semicolon-separated script, discarding row results.
  Status ExecuteScript(std::string_view sql);

  /// Programmatic DDL, used by the shredders.
  Status CreateTable(TableSchema schema);
  Status DropTable(std::string_view name, bool if_exists);
  /// Programmatic insert (bypasses SQL text; values must match the schema).
  Status InsertRow(std::string_view table_name, Row row);

  /// Case-insensitive table lookup; nullptr if absent.
  const Table* LookupTable(std::string_view name) const override;
  Table* GetMutableTable(std::string_view name);

  std::vector<std::string> TableNames() const;
  size_t TableCount() const { return tables_.size(); }

  const Options& options() const { return options_; }
  /// Snapshot of the accumulated execution counters (sums the per-thread
  /// shards). Returned by value: the live shards are atomic and may be
  /// concurrently updated.
  ExecStats stats() const;
  void ResetStats();

  /// Per-statement aggregates (populated only when
  /// options().enable_statement_stats; empty otherwise).
  const StatementStatsRegistry& statement_stats() const {
    return statement_stats_;
  }
  StatementStatsRegistry& mutable_statement_stats() { return statement_stats_; }
  /// The statistics catalog backing the cost model. Always present; only
  /// populated (and only consulted) when options().enable_cost_model.
  const StatsCatalog& stats_catalog() const { return stats_catalog_; }
  StatsCatalog& mutable_stats_catalog() { return stats_catalog_; }
  /// Slow-query/trace-sample ring; nullptr unless statement stats are on
  /// and a threshold or sampling stride is configured.
  obs::SlowQueryLog* slow_log() { return slow_log_.get(); }
  const obs::SlowQueryLog* slow_log() const { return slow_log_.get(); }

 private:
  friend class PreparedStatement;
  friend class StorageEngine;

  /// Recovery-only table creation: no PK/FK validation (the definition was
  /// validated when first created), attaches the storage observer. Returns
  /// nullptr if the name is already taken.
  Table* RestoreTable(TableSchema schema);
  Status OpenStorage();
  /// Commits the statement-level implicit transaction and runs the
  /// auto-checkpoint policy. Called at the end of every mutating
  /// operation; no-op when not disk-backed.
  Status StorageStatementEnd();

  Result<QueryResult> ExecuteParsed(Statement* stmt,
                                    const std::vector<Value>* params = nullptr);
  /// The one SQL-text pipeline behind both Execute overloads: plan-cache
  /// lookup -> parse -> bind/plan -> cache store -> run. `params` is null
  /// for the unparameterized overload.
  Result<QueryResult> ExecuteText(std::string_view sql,
                                  const std::vector<Value>* params,
                                  obs::TraceContext* trace);

  /// Binds a freshly parsed SELECT, plans it when enabled, annotates its
  /// access paths and execution hints, and counts the work in the stats
  /// aggregate. With statement stats on and a non-empty
  /// `sql`, interns the statement shape and stamps the entry pointer onto
  /// the bound AST so executions tally without any lookup.
  Status BindAndPlan(SelectStmt* select, std::string_view sql = {});
  /// Post-execution telemetry hook: decides whether this execution crossed
  /// the slow threshold or hit the trace-sampling stride, and if so
  /// re-executes with a PlanProfile to capture an EXPLAIN ANALYZE plan into
  /// the slow log. Called only when the statement carries a stats entry.
  void MaybeCaptureStatement(const SelectStmt& select,
                             const std::vector<Value>* params,
                             double elapsed_us);
  /// Runs a bound SELECT: param-count check, private-stats execution,
  /// merge. Text, prepared and script SELECTs all run through here, so a
  /// parameter-count mismatch fails the same way on every path.
  Result<QueryResult> RunBoundSelect(const SelectStmt& select,
                                     const std::vector<Value>* params,
                                     obs::TraceContext* trace);
  /// Plan-cache lookup; returns null on miss or stale generation (the
  /// stale entry is dropped). Hits are counted and moved to the LRU front.
  std::shared_ptr<const SelectStmt> LookupCachedPlan(std::string_view sql);
  void StoreCachedPlan(std::string_view sql,
                       std::shared_ptr<const SelectStmt> plan);
  Result<QueryResult> ExecuteInsert(InsertStmt* stmt);
  /// A row an UPDATE or DELETE acts on: its id, and the values the probe's
  /// select list (UPDATE's assignment expressions) takes on it.
  struct DmlVictim {
    size_t row_id;
    Row values;
  };
  /// The WHERE evaluation of UPDATE and DELETE: moves `*where` and the
  /// `*values` expressions into a one-table probe SELECT over `table`, binds
  /// and annotates it, and collects every live row the WHERE accepts (every
  /// live row when `*where` is null). The expressions are moved back before
  /// returning, so the statement can execute again.
  Result<std::vector<DmlVictim>> FindDmlVictims(
      const Table& table, const std::string& table_name, ExprPtr* where,
      const std::vector<ExprPtr*>& values, ExecStats* stats);
  Result<QueryResult> ExecuteUpdate(UpdateStmt* stmt);
  Result<QueryResult> ExecuteDelete(DeleteStmt* stmt);
  Status CheckForeignKeys(const Table& table, const Row& row) const;

  static uint64_t NextDatabaseId();

  /// The per-thread stats shard for this database. Each (thread, database)
  /// pair writes its own cache-line-aligned shard, so the per-query stats
  /// merge is a handful of relaxed loads+stores instead of locked
  /// fetch_adds on one contended aggregate (the locked RMWs were a visible
  /// slice of the per-match profile). Shards are keyed by a process-unique
  /// database id, so a thread's cached shard pointer can never be revived
  /// by a later Database allocated at the same address; stats() sums every
  /// shard under the registry mutex.
  AtomicExecStats& LocalStats() const;

  Options options_;
  // Keyed by lower-cased name for case-insensitive resolution.
  std::map<std::string, std::unique_ptr<Table>> tables_;

  struct alignas(64) StatShard {
    AtomicExecStats stats;
  };
  const uint64_t db_id_;
  mutable std::mutex shard_mu_;
  mutable std::vector<std::unique_ptr<StatShard>> shards_;
  // Bumped on every DDL change; prepared statements from an older
  // generation refuse to run rather than touch stale table pointers.
  uint64_t catalog_generation_ = 0;

  /// Plan cache: SQL text -> bound+planned SELECT, stamped with the catalog
  /// generation it was prepared under. LRU-bounded; the mutex guards only
  /// the map/list bookkeeping — execution of a cached plan is read-only
  /// over the shared AST (the PreparedStatement concurrency contract), so
  /// hits from many threads proceed in parallel.
  struct CachedPlan {
    std::shared_ptr<const SelectStmt> stmt;
    uint64_t generation = 0;
    /// Stats epoch the plan was costed under (see StatsCatalog). With the
    /// cost model on, a lookup whose epoch moved drops the entry so the
    /// statement re-plans against the current cardinality landscape.
    uint64_t stats_epoch = 0;
  };
  using PlanLruList = std::list<std::pair<std::string, CachedPlan>>;
  mutable std::mutex plan_mu_;
  PlanLruList plan_lru_;  // front = most recent
  std::unordered_map<std::string_view, PlanLruList::iterator> plan_index_;

  // Statement telemetry. The registry always exists (entries are only
  // created when enable_statement_stats is set); the slow log exists only
  // when capture is configured.
  StatementStatsRegistry statement_stats_;
  std::unique_ptr<obs::SlowQueryLog> slow_log_;

  // Disk-backed persistence; null for in-memory databases (the default).
  std::unique_ptr<StorageEngine> storage_;
  Status storage_status_ = Status::OK();

  // Cost-model statistics; registered as a table observer (alongside the
  // storage engine) only when options_.enable_cost_model.
  StatsCatalog stats_catalog_;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_DATABASE_H_
