#include "sqldb/database.h"

#include <cstdlib>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sqldb/executor.h"
#include "sqldb/explain.h"
#include "sqldb/parser.h"
#include "sqldb/planner.h"

namespace p3pdb::sqldb {

bool PlannerEnabledFromEnv() {
  const char* v = std::getenv("P3PDB_NO_PLANNER");
  return v == nullptr || v[0] == '\0' || std::string_view(v) == "0";
}

bool VectorizeEnabledFromEnv() {
  const char* v = std::getenv("P3PDB_NO_VECTORIZE");
  return v == nullptr || v[0] == '\0' || std::string_view(v) == "0";
}

bool CostModelEnabledFromEnv() {
  const char* v = std::getenv("P3PDB_NO_COST");
  return v == nullptr || v[0] == '\0' || std::string_view(v) == "0";
}

namespace {

/// Shared ownership of a bound SELECT still owned by its Statement base.
std::shared_ptr<const SelectStmt> ShareSelect(std::unique_ptr<Statement> stmt,
                                              const SelectStmt* select) {
  return std::shared_ptr<const SelectStmt>(
      std::shared_ptr<Statement>(std::move(stmt)), select);
}

/// Bounded LRU capacity of the plan cache.
constexpr size_t kPlanCacheCapacity = 256;

/// Single-writer increment on a stats-shard counter (see LocalStats).
void BumpRelaxed(std::atomic<uint64_t>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

uint64_t Database::NextDatabaseId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Database::~Database() {
  if (storage_ != nullptr && storage_status_.ok() &&
      options_.storage_checkpoint_on_close) {
    // Final checkpoint: the next open loads a compact image instead of
    // replaying the whole WAL. Close-time failures are unreportable; the
    // WAL alone is sufficient for recovery, so best-effort is safe.
    (void)storage_->CommitIfImplicit();
    (void)storage_->Checkpoint(*this);
  }
  for (auto& [key, table] : tables_) table->ClearObservers();
}

Status Database::OpenStorage() {
  StorageEngine::Options sopts;
  sopts.path = options_.storage_path;
  sopts.sync_on_commit = options_.storage_sync_on_commit;
  sopts.checkpoint_wal_bytes = options_.storage_checkpoint_wal_bytes;
  sopts.group_commit_window_us = options_.storage_group_commit_window_us;
  sopts.backend_factory = options_.storage_backend_factory;
  auto engine = StorageEngine::Open(std::move(sopts));
  if (!engine.ok()) return engine.status();
  storage_ = std::move(engine).value();
  Status st = storage_->RecoverInto(this);
  if (!st.ok()) {
    for (auto& [key, table] : tables_) table->ClearObservers();
    storage_.reset();
    return st;
  }
  // Checkpoint load restores rows through RestoreSlot, which bypasses the
  // observers; one analysis pass brings the stats catalog up to the
  // recovered state. The HLL sketches are order/duplicate-insensitive, so
  // this lands on the same state incremental maintenance would have.
  if (options_.enable_cost_model) stats_catalog_.AnalyzeAll();
  return Status::OK();
}

Table* Database::RestoreTable(TableSchema schema) {
  std::string key = ToLower(schema.name());
  if (tables_.count(key) != 0) return nullptr;
  auto [it, inserted] =
      tables_.emplace(std::move(key),
                      std::make_unique<Table>(std::move(schema)));
  it->second->AddObserver(storage_.get());
  if (options_.enable_cost_model) {
    stats_catalog_.Register(it->second.get());
    it->second->AddObserver(&stats_catalog_);
  }
  ++catalog_generation_;
  return it->second.get();
}

Status Database::StorageStatementEnd() {
  if (!storage_active() || storage_->replaying()) return Status::OK();
  P3PDB_RETURN_IF_ERROR(storage_->CommitIfImplicit());
  return storage_->MaybeCheckpoint(*this);
}

Status Database::BeginTransaction() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return Status::OK();
  return storage_->Begin();
}

Status Database::CommitTransaction() {
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, CommitTransactionStaged());
  return WaitDurable(ticket);
}

Result<uint64_t> Database::CommitTransactionStaged() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return 0;
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, storage_->CommitStaged());
  // MaybeCheckpoint runs here, under the caller's serialization — if it
  // fires, the checkpoint itself durably covers the staged commit and
  // WaitDurable(ticket) returns without another fsync.
  P3PDB_RETURN_IF_ERROR(storage_->MaybeCheckpoint(*this));
  return ticket;
}

Status Database::WaitDurable(uint64_t ticket) {
  if (storage_ == nullptr || ticket == 0) return Status::OK();
  return storage_->WaitDurable(ticket);
}

Status Database::Checkpoint() {
  if (!storage_status_.ok()) return storage_status_;
  if (storage_ == nullptr) return Status::OK();
  return storage_->Checkpoint(*this);
}

AtomicExecStats& Database::LocalStats() const {
  // Small per-thread cache of (database id, shard) pairs: the common case
  // (a server thread executing against one or two databases, e.g. the
  // cross-engine differential harness) resolves with a few integer
  // compares. Eviction can hand a thread a second shard for the same
  // database; sums stay exact. A stale entry for a destroyed database is
  // only ever compared, never dereferenced — ids are process-unique.
  struct TlsEntry {
    uint64_t db_id = 0;
    AtomicExecStats* stats = nullptr;
  };
  constexpr size_t kTlsEntries = 4;
  thread_local TlsEntry tls_cache[kTlsEntries];
  thread_local size_t tls_next = 0;
  for (const TlsEntry& e : tls_cache) {
    if (e.db_id == db_id_) return *e.stats;
  }
  std::lock_guard<std::mutex> lock(shard_mu_);
  shards_.push_back(std::make_unique<StatShard>());
  AtomicExecStats* stats = &shards_.back()->stats;
  tls_cache[tls_next] = {db_id_, stats};
  tls_next = (tls_next + 1) % kTlsEntries;
  return *stats;
}

ExecStats Database::stats() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  ExecStats total;
  for (const auto& shard : shards_) total.Accumulate(shard->stats.Snapshot());
  return total;
}

void Database::ResetStats() {
  std::lock_guard<std::mutex> lock(shard_mu_);
  for (const auto& shard : shards_) shard->stats.Reset();
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      obs::TraceContext* trace) {
  return ExecuteText(sql, nullptr, trace);
}

Result<QueryResult> Database::Execute(std::string_view sql,
                                      const std::vector<Value>& params,
                                      obs::TraceContext* trace) {
  return ExecuteText(sql, &params, trace);
}

Result<QueryResult> Database::ExecuteText(std::string_view sql,
                                          const std::vector<Value>* params,
                                          obs::TraceContext* trace) {
  // A plan-cache hit skips the parse and bind spans entirely — that absence
  // in the trace *is* the signal that the cached path ran.
  if (std::shared_ptr<const SelectStmt> plan = LookupCachedPlan(sql)) {
    return RunBoundSelect(*plan, params, trace);
  }
  obs::ScopedSpan parse_span(trace, "sql-parse");
  auto parsed = ParseStatement(sql);
  parse_span.End();
  P3PDB_RETURN_IF_ERROR(parsed.status());
  Statement* stmt = parsed.value().get();
  if (stmt->kind != StatementKind::kSelect) {
    if (params != nullptr && stmt->kind != StatementKind::kExplain) {
      return Status::Unsupported(
          "bind parameters are only supported for SELECT statements");
    }
    // DDL/DML/EXPLAIN: bind+execute as one span; per-node detail for
    // SELECTs comes from EXPLAIN ANALYZE, not the trace.
    obs::ScopedSpan exec_span(trace, "sql-execute");
    return ExecuteParsed(stmt, params);
  }
  auto* select = static_cast<SelectStmt*>(stmt);
  {
    obs::ScopedSpan bind_span(trace, "sql-bind");
    P3PDB_RETURN_IF_ERROR(BindAndPlan(select, sql));
  }
  std::shared_ptr<const SelectStmt> plan =
      ShareSelect(std::move(parsed).value(), select);
  StoreCachedPlan(sql, plan);
  return RunBoundSelect(*plan, params, trace);
}

Status Database::BindAndPlan(SelectStmt* select, std::string_view sql) {
  Binder binder(*this, options_.max_subquery_depth);
  P3PDB_RETURN_IF_ERROR(binder.BindSelect(select));
  ExecStats local;
  ++local.plans_built;
  const StatsCatalog* catalog =
      options_.enable_cost_model ? &stats_catalog_ : nullptr;
  PlannerStats planner_stats;
  if (options_.enable_planner) {
    PlanSelect(select, &planner_stats, catalog);
    local.semi_join_rewrites = planner_stats.semi_join_rewrites;
    local.anti_join_rewrites = planner_stats.anti_join_rewrites;
  }
  // Annotation must follow planning: the rewrite replaces EXISTS subtrees
  // with hash joins, and the slot plans point into the final tree.
  AnnotateSelect(select, catalog, &planner_stats);
  local.cost_exists_kept = planner_stats.cost_exists_kept;
  local.cost_join_reorders = planner_stats.cost_join_reorders;
  local.cost_seq_forced = planner_stats.cost_seq_forced;
  PrecomputeExecHints(select);
  if (options_.enable_statement_stats && !sql.empty()) {
    select->stats_entry = statement_stats_.Intern(sql);
    select->stats_entry->RecordPlanned(local.semi_join_rewrites,
                                       local.anti_join_rewrites);
  }
  LocalStats().MergeSingleWriter(local);
  return Status::OK();
}

Result<QueryResult> Database::RunBoundSelect(const SelectStmt& select,
                                             const std::vector<Value>* params,
                                             obs::TraceContext* trace) {
  const size_t supplied = params == nullptr ? 0 : params->size();
  if (supplied != select.param_count) {
    return Status::InvalidArgument(
        "statement takes " + std::to_string(select.param_count) +
        " parameter(s) but " + std::to_string(supplied) + " were supplied");
  }
  obs::ScopedSpan exec_span(trace, "sql-execute");
  // Telemetry costs one branch when off; when on, a stopwatch read plus a
  // handful of relaxed fetch_adds on the interned entry.
  StatementStatsEntry* entry = select.stats_entry;
  Stopwatch timer;
  ExecStats local;
  Executor executor(&local, params, nullptr,
                    ExecConfig{options_.enable_vectorized_executor});
  auto result = executor.RunSelect(select);
  LocalStats().MergeSingleWriter(local);
  if (entry != nullptr) {
    const double elapsed_us = timer.ElapsedMicros();
    entry->RecordExecution(local,
                           result.ok() ? result.value().rows.size() : 0,
                           elapsed_us, result.ok());
    if (result.ok() && slow_log_ != nullptr) {
      MaybeCaptureStatement(select, params, elapsed_us);
    }
  }
  if (result.ok()) {
    exec_span.AddCount("rows", result.value().rows.size());
    exec_span.AddCount("rows-scanned", local.rows_scanned);
    exec_span.AddCount("index-lookups", local.index_lookups);
  }
  return result;
}

void Database::MaybeCaptureStatement(const SelectStmt& select,
                                     const std::vector<Value>* params,
                                     double elapsed_us) {
  StatementStatsEntry* entry = select.stats_entry;
  const bool slow = options_.slow_query_threshold_us > 0 &&
                    elapsed_us >=
                        static_cast<double>(options_.slow_query_threshold_us);
  const bool sampled =
      options_.trace_sample_every > 0 &&
      entry->calls() % options_.trace_sample_every == 0;
  if (!slow && !sampled) return;

  // Re-execute with a profile to render EXPLAIN ANALYZE. The capture pays
  // for a second run, but only for statements already past the threshold
  // (or on the sampling stride), and the profiled run's counters go to a
  // scratch ExecStats so the aggregate tallies are not double-counted.
  obs::SlowQueryEntry capture;
  capture.kind = slow ? obs::SlowQueryEntry::Kind::kSlow
                      : obs::SlowQueryEntry::Kind::kTraceSample;
  capture.fingerprint = entry->fingerprint();
  capture.sql = entry->normalized_sql();
  capture.elapsed_us = elapsed_us;
  std::string rendered = "[";
  if (params != nullptr) {
    for (size_t i = 0; i < params->size(); ++i) {
      if (i != 0) rendered += ", ";
      rendered += (*params)[i].ToString();
    }
  }
  rendered += "]";
  capture.params = std::move(rendered);
  PlanProfile profile;
  ExecStats scratch;
  Executor executor(&scratch, params, &profile,
                    ExecConfig{options_.enable_vectorized_executor});
  if (executor.RunSelect(select).ok()) {
    ExplainOptions explain_options;
    explain_options.params = params;
    explain_options.profile = &profile;
    capture.plan = ExplainPlan(select, explain_options);
  }
  slow_log_->Add(std::move(capture));
}

std::shared_ptr<const SelectStmt> Database::LookupCachedPlan(
    std::string_view sql) {
  if (!options_.enable_planner) return nullptr;
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = plan_index_.find(sql);
  if (it == plan_index_.end()) return nullptr;
  if (it->second->second.generation != catalog_generation_) {
    // Stale after DDL: drop and let the caller re-prepare.
    plan_lru_.erase(it->second);
    plan_index_.erase(it);
    return nullptr;
  }
  if (options_.enable_cost_model &&
      it->second->second.stats_epoch != stats_catalog_.epoch()) {
    // Cardinalities drifted past the epoch boundary since this plan was
    // costed: its build-side/access-path choices may no longer hold. Drop
    // it and let the caller re-plan against current statistics.
    plan_lru_.erase(it->second);
    plan_index_.erase(it);
    BumpRelaxed(LocalStats().plan_recosts);
    return nullptr;
  }
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
  BumpRelaxed(LocalStats().plan_cache_hits);
  if (it->second->second.stmt->stats_entry != nullptr) {
    it->second->second.stmt->stats_entry->RecordPlanCacheHit();
  }
  return it->second->second.stmt;
}

void Database::StoreCachedPlan(std::string_view sql,
                               std::shared_ptr<const SelectStmt> plan) {
  if (!options_.enable_planner) return;
  std::lock_guard<std::mutex> lock(plan_mu_);
  if (plan_index_.find(sql) != plan_index_.end()) return;  // concurrent store
  plan_lru_.emplace_front(
      std::string(sql),
      CachedPlan{std::move(plan), catalog_generation_,
                 options_.enable_cost_model ? stats_catalog_.epoch() : 0});
  plan_index_.emplace(plan_lru_.front().first, plan_lru_.begin());
  if (plan_lru_.size() > kPlanCacheCapacity) {
    plan_index_.erase(plan_lru_.back().first);
    plan_lru_.pop_back();
  }
}

Result<PreparedStatement> Database::Prepare(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                         ParseStatement(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::Unsupported("only SELECT statements can be prepared");
  }
  P3PDB_RETURN_IF_ERROR(
      BindAndPlan(static_cast<SelectStmt*>(stmt.get()), sql));
  PreparedStatement prepared;
  prepared.db_ = this;
  prepared.stmt_ = std::shared_ptr<Statement>(std::move(stmt));
  prepared.sql_ = std::string(sql);
  prepared.catalog_generation_ = catalog_generation_;
  return prepared;
}

Result<QueryResult> PreparedStatement::Execute(
    const std::vector<Value>& params, obs::TraceContext* trace) const {
  if (stmt_ == nullptr) {
    return Status::InvalidArgument("executing an empty prepared statement");
  }
  if (catalog_generation_ != db_->catalog_generation_) {
    return Status::InvalidArgument(
        "prepared statement is stale: the catalog changed since Prepare()");
  }
  const auto* select = static_cast<const SelectStmt*>(stmt_.get());
  // RunBoundSelect executes with per-call private stats (concurrent
  // executions stay race-free; the merge is the only shared-state touch)
  // and applies the same telemetry as the text-execution path.
  return db_->RunBoundSelect(*select, &params, trace);
}

size_t PreparedStatement::param_count() const {
  if (stmt_ == nullptr) return 0;
  return static_cast<const SelectStmt*>(stmt_.get())->param_count;
}

Status Database::ExecuteScript(std::string_view sql) {
  P3PDB_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<Statement>> stmts,
                         ParseScript(sql));
  for (auto& stmt : stmts) {
    auto result = ExecuteParsed(stmt.get());
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteParsed(Statement* stmt,
                                            const std::vector<Value>* params) {
  switch (stmt->kind) {
    case StatementKind::kSelect: {
      auto* select = static_cast<SelectStmt*>(stmt);
      P3PDB_RETURN_IF_ERROR(BindAndPlan(select));
      return RunBoundSelect(*select, params, nullptr);
    }
    case StatementKind::kInsert: {
      auto result = ExecuteInsert(static_cast<InsertStmt*>(stmt));
      // Commit even a failed statement's partial effects: the in-memory
      // state keeps them (no rollback), so disk must too.
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kUpdate: {
      auto result = ExecuteUpdate(static_cast<UpdateStmt*>(stmt));
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kDelete: {
      auto result = ExecuteDelete(static_cast<DeleteStmt*>(stmt));
      Status st = StorageStatementEnd();
      if (result.ok() && !st.ok()) return st;
      return result;
    }
    case StatementKind::kCreateTable: {
      auto* ct = static_cast<CreateTableStmt*>(stmt);
      if (ct->if_not_exists &&
          LookupTable(ct->schema.name()) != nullptr) {
        return QueryResult{};
      }
      // CreateTable consumes the schema; copy so re-execution stays valid.
      TableSchema schema = ct->schema;
      P3PDB_RETURN_IF_ERROR(CreateTable(std::move(schema)));
      BumpRelaxed(LocalStats().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kCreateIndex: {
      auto* ci = static_cast<CreateIndexStmt*>(stmt);
      Table* table = GetMutableTable(ci->table_name);
      if (table == nullptr) {
        return Status::NotFound("table '" + ci->table_name +
                                "' does not exist");
      }
      P3PDB_RETURN_IF_ERROR(
          table->CreateIndex(ci->index_name, ci->columns, ci->unique));
      P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
      BumpRelaxed(LocalStats().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kDropTable: {
      auto* dt = static_cast<DropTableStmt*>(stmt);
      P3PDB_RETURN_IF_ERROR(DropTable(dt->table_name, dt->if_exists));
      BumpRelaxed(LocalStats().statements_executed);
      return QueryResult{};
    }
    case StatementKind::kExplain: {
      auto* explain = static_cast<ExplainStmt*>(stmt);
      SelectStmt* select = explain->select.get();
      const size_t supplied = params == nullptr ? 0 : params->size();
      // Plain EXPLAIN renders a parameterized plan without values (the
      // placeholders stay `?`); ANALYZE executes, so values are mandatory.
      if (supplied != select->param_count &&
          (explain->analyze || supplied != 0)) {
        return Status::InvalidArgument(
            "statement takes " + std::to_string(select->param_count) +
            " parameter(s) but " + std::to_string(supplied) +
            " were supplied");
      }
      P3PDB_RETURN_IF_ERROR(BindAndPlan(select));
      ExplainOptions explain_options;
      explain_options.params = params;
      PlanProfile profile;
      if (explain->analyze) {
        ExecStats local;
        Executor executor(&local, params, &profile,
                          ExecConfig{options_.enable_vectorized_executor});
        P3PDB_RETURN_IF_ERROR(executor.RunSelect(*select).status());
        LocalStats().MergeSingleWriter(local);
        explain_options.profile = &profile;
      }
      QueryResult result;
      result.columns.push_back("plan");
      std::string plan = ExplainPlan(*select, explain_options);
      for (const std::string& line : Split(plan, '\n')) {
        if (!line.empty()) result.rows.push_back({Value::Text(line)});
      }
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::CreateTable(TableSchema schema) {
  if (!storage_status_.ok()) return storage_status_;
  std::string key = ToLower(schema.name());
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table '" + schema.name() +
                                 "' already exists");
  }
  // Validate the primary key columns exist.
  for (const std::string& col : schema.primary_key()) {
    if (!schema.ColumnIndex(col).has_value()) {
      return Status::InvalidArgument("primary key column '" + col +
                                     "' not in table '" + schema.name() + "'");
    }
  }
  // Validate foreign keys against existing tables.
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    if (fk.columns.size() != fk.referenced_columns.size()) {
      return Status::InvalidArgument(
          "foreign key column count mismatch in table '" + schema.name() +
          "'");
    }
    for (const std::string& col : fk.columns) {
      if (!schema.ColumnIndex(col).has_value()) {
        return Status::InvalidArgument("foreign key column '" + col +
                                       "' not in table '" + schema.name() +
                                       "'");
      }
    }
    const Table* ref = LookupTable(fk.referenced_table);
    if (ref == nullptr) {
      return Status::NotFound("referenced table '" + fk.referenced_table +
                              "' does not exist");
    }
    for (const std::string& col : fk.referenced_columns) {
      if (!ref->schema().ColumnIndex(col).has_value()) {
        return Status::InvalidArgument(
            "referenced column '" + col + "' not in table '" +
            fk.referenced_table + "'");
      }
    }
  }
  auto [it, inserted] = tables_.emplace(
      std::move(key), std::make_unique<Table>(std::move(schema)));
  ++catalog_generation_;
  if (options_.enable_cost_model) {
    stats_catalog_.Register(it->second.get());
    it->second->AddObserver(&stats_catalog_);
  }
  if (storage_active()) {
    storage_->LogCreateTable(it->second->schema());
    it->second->AddObserver(storage_.get());
    P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
  }
  return Status::OK();
}

Status Database::DropTable(std::string_view name, bool if_exists) {
  if (!storage_status_.ok()) return storage_status_;
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (if_exists) return Status::OK();
    return Status::NotFound("table '" + std::string(name) +
                            "' does not exist");
  }
  stats_catalog_.Forget(it->second.get());
  tables_.erase(it);
  ++catalog_generation_;
  if (storage_active() && !storage_->replaying()) {
    storage_->LogDropTable(std::string(name));
    P3PDB_RETURN_IF_ERROR(StorageStatementEnd());
  }
  return Status::OK();
}

Status Database::InsertRow(std::string_view table_name, Row row) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + std::string(table_name) +
                            "' does not exist");
  }
  if (options_.enforce_foreign_keys) {
    P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, row));
  }
  P3PDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
  return StorageStatementEnd();
}

const Table* Database::LookupTable(std::string_view name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetMutableTable(std::string_view name) {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    names.push_back(table->schema().name());
  }
  return names;
}

Status Database::CheckForeignKeys(const Table& table, const Row& row) const {
  for (const ForeignKeyDef& fk : table.schema().foreign_keys()) {
    const Table* ref = LookupTable(fk.referenced_table);
    if (ref == nullptr) {
      return Status::Internal("referenced table '" + fk.referenced_table +
                              "' vanished");
    }
    // Build the referencing key; NULL components skip the check (SQL MATCH
    // SIMPLE semantics).
    std::vector<Value> key_values;
    bool has_null = false;
    for (const std::string& col : fk.columns) {
      size_t ord = *table.schema().ColumnIndex(col);
      if (row[ord].is_null()) {
        has_null = true;
        break;
      }
      key_values.push_back(row[ord]);
    }
    if (has_null) continue;

    std::vector<size_t> ref_ordinals;
    for (const std::string& col : fk.referenced_columns) {
      ref_ordinals.push_back(*ref->schema().ColumnIndex(col));
    }
    const Index* index = ref->FindIndexCovering(ref_ordinals);
    bool found = false;
    if (index != nullptr &&
        index->column_ordinals().size() == ref_ordinals.size()) {
      // Reorder key values to the index's column order.
      IndexKey key;
      for (size_t ord : index->column_ordinals()) {
        for (size_t i = 0; i < ref_ordinals.size(); ++i) {
          if (ref_ordinals[i] == ord) {
            key.values.push_back(key_values[i]);
            break;
          }
        }
      }
      found = index->Lookup(key) != nullptr;
    } else {
      for (size_t row_id = 0; row_id < ref->SlotCount() && !found; ++row_id) {
        if (!ref->IsLive(row_id)) continue;
        const Row& candidate = ref->RowAt(row_id);
        bool all_equal = true;
        for (size_t i = 0; i < ref_ordinals.size(); ++i) {
          if (Value::OrderCompare(candidate[ref_ordinals[i]],
                                  key_values[i]) != 0) {
            all_equal = false;
            break;
          }
        }
        found = all_equal;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "foreign key violation: no matching row in '" + fk.referenced_table +
          "' for insert into '" + table.schema().name() + "'");
    }
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteInsert(InsertStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }
  const TableSchema& schema = table->schema();

  // Map the column list (or positional order) to ordinals.
  std::vector<size_t> ordinals;
  if (stmt->columns.empty()) {
    for (size_t i = 0; i < schema.ColumnCount(); ++i) ordinals.push_back(i);
  } else {
    for (const std::string& col : stmt->columns) {
      std::optional<size_t> ord = schema.ColumnIndex(col);
      if (!ord.has_value()) {
        return Status::NotFound("column '" + col + "' not in table '" +
                                stmt->table_name + "'");
      }
      ordinals.push_back(*ord);
    }
  }

  // The VALUES expressions bind as the items of a FROM-less probe SELECT,
  // so an EXISTS among them scans bound tables along planned access paths.
  // They are moved back before returning, as in FindDmlVictims.
  SelectStmt probe;
  for (std::vector<ExprPtr>& value_exprs : stmt->rows) {
    for (ExprPtr& e : value_exprs) {
      SelectItem item;
      item.expr = std::move(e);
      probe.items.push_back(std::move(item));
    }
  }
  ExecStats local;
  int64_t inserted = 0;
  auto insert_rows = [&]() -> Status {
    Binder binder(*this, options_.max_subquery_depth);
    P3PDB_RETURN_IF_ERROR(binder.BindSelect(&probe));
    AnnotateSelect(&probe,
                   options_.enable_cost_model ? &stats_catalog_ : nullptr);
    Executor executor(&local, nullptr, nullptr,
                      ExecConfig{options_.enable_vectorized_executor});
    size_t item = 0;
    for (const std::vector<ExprPtr>& value_exprs : stmt->rows) {
      if (value_exprs.size() != ordinals.size()) {
        return Status::InvalidArgument(
            "INSERT has " + std::to_string(value_exprs.size()) +
            " values for " + std::to_string(ordinals.size()) + " columns");
      }
      Row row(schema.ColumnCount(), Value::Null());
      for (size_t i = 0; i < value_exprs.size(); ++i) {
        P3PDB_ASSIGN_OR_RETURN(
            Value v, executor.EvalConstant(*probe.items[item++].expr));
        row[ordinals[i]] = std::move(v);
      }
      if (options_.enforce_foreign_keys) {
        P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, row));
      }
      P3PDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
      ++inserted;
    }
    return Status::OK();
  };
  Status st = insert_rows();
  size_t item = 0;
  for (std::vector<ExprPtr>& value_exprs : stmt->rows) {
    for (ExprPtr& e : value_exprs) e = std::move(probe.items[item++].expr);
  }
  P3PDB_RETURN_IF_ERROR(st);
  ++local.statements_executed;
  LocalStats().MergeSingleWriter(local);
  QueryResult result;
  result.rows_affected = inserted;
  return result;
}

Result<std::vector<Database::DmlVictim>> Database::FindDmlVictims(
    const Table& table, const std::string& table_name, ExprPtr* where,
    const std::vector<ExprPtr*>& values, ExecStats* stats) {
  SelectStmt probe;
  TableRef ref;
  ref.table_name = table_name;
  ref.alias = table_name;
  probe.from.push_back(std::move(ref));
  for (ExprPtr* value : values) {
    SelectItem item;
    item.expr = std::move(*value);
    probe.items.push_back(std::move(item));
  }
  probe.where = std::move(*where);

  std::vector<DmlVictim> victims;
  auto collect = [&]() -> Status {
    Binder binder(*this, options_.max_subquery_depth);
    P3PDB_RETURN_IF_ERROR(binder.BindSelect(&probe));
    // An EXISTS in the WHERE scans through the executor, which reads the
    // planned access paths like any SELECT's.
    AnnotateSelect(&probe,
                   options_.enable_cost_model ? &stats_catalog_ : nullptr);
    Executor executor(stats, nullptr, nullptr,
                      ExecConfig{options_.enable_vectorized_executor});
    for (size_t row_id = 0; row_id < table.SlotCount(); ++row_id) {
      if (!table.IsLive(row_id)) continue;
      const Row& row = table.RowAt(row_id);
      P3PDB_ASSIGN_OR_RETURN(bool pass, executor.EvalRowPredicate(probe, row));
      if (!pass) continue;
      DmlVictim victim{row_id, {}};
      for (const SelectItem& item : probe.items) {
        P3PDB_ASSIGN_OR_RETURN(Value v,
                               executor.EvalRowExpression(probe, row,
                                                          *item.expr));
        victim.values.push_back(std::move(v));
      }
      victims.push_back(std::move(victim));
    }
    return Status::OK();
  };
  Status st = collect();
  for (size_t i = 0; i < values.size(); ++i) {
    *values[i] = std::move(probe.items[i].expr);
  }
  *where = std::move(probe.where);
  P3PDB_RETURN_IF_ERROR(st);
  return victims;
}

Result<QueryResult> Database::ExecuteUpdate(UpdateStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }
  const TableSchema& schema = table->schema();

  std::vector<size_t> ordinals;
  for (const UpdateStmt::Assignment& a : stmt->assignments) {
    std::optional<size_t> ord = schema.ColumnIndex(a.column);
    if (!ord.has_value()) {
      return Status::NotFound("column '" + a.column + "' not in table '" +
                              stmt->table_name + "'");
    }
    ordinals.push_back(*ord);
  }

  // Snapshot pass: every victim's new values come from its old row before
  // anything is mutated.
  std::vector<ExprPtr*> values;
  for (UpdateStmt::Assignment& a : stmt->assignments) {
    values.push_back(&a.value);
  }
  ExecStats local;
  P3PDB_ASSIGN_OR_RETURN(
      std::vector<DmlVictim> victims,
      FindDmlVictims(*table, stmt->table_name, &stmt->where, values, &local));

  // Apply. Not transactional: a constraint violation mid-way leaves earlier
  // updates in place (as in many engines without ROLLBACK).
  for (DmlVictim& victim : victims) {
    Row old_row = table->RowAt(victim.row_id);
    Row new_row = old_row;
    for (size_t i = 0; i < ordinals.size(); ++i) {
      new_row[ordinals[i]] = std::move(victim.values[i]);
    }
    if (options_.enforce_foreign_keys) {
      P3PDB_RETURN_IF_ERROR(CheckForeignKeys(*table, new_row));
    }
    table->Delete(victim.row_id);
    Status st = table->Insert(std::move(new_row));
    if (!st.ok()) {
      // Try to put the old row back so a unique violation does not lose it.
      (void)table->Insert(std::move(old_row));
      return st;
    }
  }
  ++local.statements_executed;
  LocalStats().MergeSingleWriter(local);
  QueryResult result;
  result.rows_affected = static_cast<int64_t>(victims.size());
  return result;
}

Result<QueryResult> Database::ExecuteDelete(DeleteStmt* stmt) {
  if (!storage_status_.ok()) return storage_status_;
  Table* table = GetMutableTable(stmt->table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt->table_name +
                            "' does not exist");
  }

  ExecStats local;
  P3PDB_ASSIGN_OR_RETURN(
      std::vector<DmlVictim> victims,
      FindDmlVictims(*table, stmt->table_name, &stmt->where, {}, &local));

  for (const DmlVictim& victim : victims) table->Delete(victim.row_id);
  ++local.statements_executed;
  LocalStats().MergeSingleWriter(local);
  QueryResult result;
  result.rows_affected = static_cast<int64_t>(victims.size());
  return result;
}

}  // namespace p3pdb::sqldb
