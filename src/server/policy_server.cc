#include "server/policy_server.h"

#include <chrono>

#include "appel/fingerprint.h"
#include "common/string_util.h"
#include "p3p/augment.h"
#include "p3p/policy_xml.h"
#include "server/admin_http.h"
#include "sqldb/parser.h"
#include "translator/applicable_policy.h"
#include "translator/sql_optimized.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/eval.h"
#include "xquery/parser.h"
#include "xquery/xtable.h"

namespace p3pdb::server {

using sqldb::QueryResult;
using sqldb::Value;

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNativeAppel:
      return "native-appel";
    case EngineKind::kSql:
      return "sql";
    case EngineKind::kSqlSimple:
      return "sql-simple";
    case EngineKind::kXQueryNative:
      return "xquery-native";
    case EngineKind::kXQueryXTable:
      return "xquery-xtable";
  }
  return "?";
}

namespace {

constexpr const char* kCatalogDdl = R"sql(
CREATE TABLE PolicyCatalog (
  policy_id INTEGER NOT NULL,
  name VARCHAR(255) NOT NULL,
  version INTEGER NOT NULL,
  xml TEXT,
  PRIMARY KEY (policy_id)
);
CREATE INDEX idx_catalog_name ON PolicyCatalog (name);
CREATE TABLE MatchLog (
  match_id INTEGER NOT NULL,
  policy_id INTEGER NOT NULL,
  behavior VARCHAR(32) NOT NULL,
  fired_rule INTEGER NOT NULL,
  PRIMARY KEY (match_id)
);
CREATE TABLE RefFileCatalog (
  ref_id INTEGER NOT NULL,
  xml TEXT,
  PRIMARY KEY (ref_id)
);
)sql";

/// Microseconds since `start`. Callers read the clock only when
/// collect_metrics is on, so the start point is a plain time_point rather
/// than a Stopwatch (whose constructor always reads the clock).
double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Stamps the outcome onto the root `match` span (no-op when tracing is
/// off or the match failed).
void FinishMatchSpan(obs::ScopedSpan& span,
                     const Result<MatchResult>& result) {
  if (!span.active()) return;
  if (!result.ok()) {
    span.SetAttr("error", result.status().message());
    return;
  }
  const MatchResult& match = result.value();
  span.SetAttr("behavior", match.behavior);
  if (match.policy_found) {
    span.SetAttr("policy-id", std::to_string(match.policy_id));
    if (match.fired_rule_index >= 0) {
      span.SetAttr("rule", std::to_string(match.fired_rule_index));
    }
  }
}

}  // namespace

std::string AboutToPolicyName(std::string_view about) {
  size_t hash = about.find('#');
  if (hash == std::string_view::npos) return std::string(about);
  return std::string(about.substr(hash + 1));
}

PolicyServer::PolicyServer(Options options)
    : options_(options),
      db_(sqldb::Database::Options{
          .max_subquery_depth = options.max_subquery_depth,
          .enforce_foreign_keys = true,
          .enable_planner = options.enable_planner,
          .enable_cost_model = options.enable_cost_model,
          .enable_vectorized_executor = options.enable_vectorized_executor,
          .enable_statement_stats = options.enable_statement_stats,
          .slow_query_threshold_us = options.slow_query_threshold_us,
          .trace_sample_every = options.trace_sample_every,
          .slow_log_capacity = options.slow_log_capacity,
          .storage_path = options.storage_path,
          .storage_sync_on_commit = options.storage_sync_on_commit,
          .storage_checkpoint_wal_bytes = options.storage_checkpoint_wal_bytes,
          .storage_group_commit_window_us =
              options.storage_group_commit_window_us,
          .storage_checkpoint_on_close = options.storage_checkpoint_on_close,
          .storage_backend_factory = options.storage_backend_factory}),
      native_engine_(appel::NativeEngine::Options{
          .augment_per_match =
              options.augmentation == Augmentation::kPerMatch}),
      start_time_(std::chrono::steady_clock::now()) {
  // Instruments register once here; the match path then touches them
  // through cached pointers only (relaxed atomics, no registry lock).
  // Build identity and uptime: the `_info` idiom (constant labels, value 1)
  // plus a gauge refreshed at snapshot time.
#ifndef P3PDB_GIT_SHA
#define P3PDB_GIT_SHA "unknown"
#endif
#ifndef P3PDB_BUILD_TYPE
#define P3PDB_BUILD_TYPE "unknown"
#endif
  metrics_.SetInfo("p3p_build_info", {{"git_sha", P3PDB_GIT_SHA},
                                      {"build_type", P3PDB_BUILD_TYPE}});
  uptime_seconds_ = metrics_.GetGauge("p3p_uptime_seconds");
  matches_total_ = metrics_.GetCounter("p3p_matches_total");
  match_errors_total_ = metrics_.GetCounter("p3p_match_errors_total");
  no_policy_total_ = metrics_.GetCounter("p3p_match_no_policy_total");
  rule_queries_total_ = metrics_.GetCounter("p3p_rule_queries_total");
  compiles_total_ = metrics_.GetCounter("p3p_preference_compiles_total");
  policies_installed_ = metrics_.GetGauge("p3p_policies_installed");
  match_us_ = metrics_.GetHistogram("p3p_match_duration_us");
  ref_lookup_us_ = metrics_.GetHistogram("p3p_ref_lookup_duration_us");
  compile_us_ = metrics_.GetHistogram("p3p_preference_compile_duration_us");
  cache_hit_us_ = metrics_.GetHistogram("p3p_match_cache_hit_duration_us");
  cache_miss_us_ = metrics_.GetHistogram("p3p_match_cache_miss_duration_us");
  sql_plans_built_ = metrics_.GetCounter("sqldb_plans_built_total");
  sql_plan_cache_hits_ = metrics_.GetCounter("sqldb_plan_cache_hits_total");
  sql_semi_join_rewrites_ =
      metrics_.GetCounter("sqldb_semi_join_rewrites_total");
  sql_anti_join_rewrites_ =
      metrics_.GetCounter("sqldb_anti_join_rewrites_total");
  sql_hash_join_builds_ = metrics_.GetCounter("sqldb_hash_join_builds_total");
  sql_hash_join_probes_ = metrics_.GetCounter("sqldb_hash_join_probes_total");
  sql_batches_ = metrics_.GetCounter("sqldb_batches_total");
  sql_batch_rows_ = metrics_.GetCounter("sqldb_batch_rows_total");
  sql_vectorized_filters_ =
      metrics_.GetCounter("sqldb_vectorized_filters_total");
  sql_vectorized_fallback_rows_ =
      metrics_.GetCounter("sqldb_vectorized_fallback_rows_total");
  sql_cost_exists_kept_ = metrics_.GetCounter("sqldb_cost_exists_kept_total");
  sql_cost_join_reorders_ =
      metrics_.GetCounter("sqldb_cost_join_reorders_total");
  sql_cost_seq_forced_ = metrics_.GetCounter("sqldb_cost_seq_forced_total");
  sql_plan_recosts_ = metrics_.GetCounter("sqldb_plan_recosts_total");
  sql_stats_updates_ = metrics_.GetCounter("sqldb_stats_updates_total");
  sql_stats_rebuilds_ = metrics_.GetCounter("sqldb_stats_rebuilds_total");
  sql_stats_epoch_bumps_ =
      metrics_.GetCounter("sqldb_stats_epoch_bumps_total");
  if (!options_.storage_path.empty()) {
    storage_wal_records_ =
        metrics_.GetCounter("p3p_storage_wal_records_total");
    storage_wal_commits_ =
        metrics_.GetCounter("p3p_storage_wal_commits_total");
    storage_wal_syncs_ = metrics_.GetCounter("p3p_storage_wal_syncs_total");
    storage_wal_bytes_ = metrics_.GetCounter("p3p_storage_wal_bytes_total");
    storage_checkpoints_ =
        metrics_.GetCounter("p3p_storage_checkpoints_total");
    storage_recovered_txns_ =
        metrics_.GetCounter("p3p_storage_recovered_txns_total");
  }
  if (options_.enable_match_cache) {
    match_cache_ = std::make_unique<MatchCache>(
        MatchCache::Options{
            .shards = options_.match_cache_shards,
            .capacity_per_shard = options_.match_cache_capacity_per_shard},
        &metrics_);
  }
}

PolicyServer::~PolicyServer() {
  // Stop the admin thread before any member it scrapes is destroyed.
  admin_.reset();
}

Result<std::unique_ptr<PolicyServer>> PolicyServer::Create(Options options) {
  if (options.augmentation == Augmentation::kPerMatch &&
      options.engine != EngineKind::kNativeAppel) {
    return Status::InvalidArgument(
        "per-match augmentation is only meaningful for the native APPEL "
        "engine; SQL engines expand categories while shredding");
  }
  std::unique_ptr<PolicyServer> server(new PolicyServer(options));
  P3PDB_RETURN_IF_ERROR(server->Init());
  return server;
}

bool PolicyServer::UsesSqlMatching() const {
  return options_.engine == EngineKind::kSql ||
         options_.engine == EngineKind::kSqlSimple ||
         options_.engine == EngineKind::kXQueryXTable;
}

bool PolicyServer::UsesSimpleSchema() const {
  return options_.engine == EngineKind::kSqlSimple ||
         options_.engine == EngineKind::kXQueryXTable;
}

Status PolicyServer::Init() {
  // Disk-backed servers surface open/recovery failures at Create time
  // rather than on the first statement.
  P3PDB_RETURN_IF_ERROR(db_.storage_status());
  if (db_.storage_active() && db_.LookupTable("PolicyCatalog") != nullptr) {
    // The storage directory already holds a bootstrapped catalog: rebuild
    // the in-memory server state from it instead of re-installing schemas.
    P3PDB_RETURN_IF_ERROR(RestoreFromStorage());
  } else {
    // Group the bootstrap DDL and the ApplicablePolicy anchor into one WAL
    // transaction: the anchor insert goes through the table directly (no
    // per-statement commit), so without the explicit commit it would stay
    // uncommitted and be dropped by the next recovery.
    P3PDB_RETURN_IF_ERROR(db_.BeginTransaction());
    Status schema = InitSchema();
    Status commit = db_.CommitTransaction();
    P3PDB_RETURN_IF_ERROR(schema);
    P3PDB_RETURN_IF_ERROR(commit);
  }
  if (options_.enable_admin_endpoint) {
    P3PDB_ASSIGN_OR_RETURN(
        admin_, AdminHttpServer::Start(
                    this, AdminHttpServer::Options{
                              .host = options_.admin_host,
                              .port = options_.admin_port}));
  }
  return Status::OK();
}

Status PolicyServer::InitSchema() {
  P3PDB_RETURN_IF_ERROR(db_.ExecuteScript(kCatalogDdl));
  if (UsesSqlMatching()) {
    if (UsesSimpleSchema()) {
      P3PDB_RETURN_IF_ERROR(shredder::InstallSimpleSchema(&db_));
      simple_shredder_ = std::make_unique<shredder::SimpleShredder>(&db_);
    } else {
      P3PDB_RETURN_IF_ERROR(shredder::InstallOptimizedSchema(&db_));
      optimized_shredder_ =
          std::make_unique<shredder::OptimizedShredder>(&db_);
    }
    P3PDB_RETURN_IF_ERROR(shredder::InstallReferenceSchema(&db_));
    reference_shredder_ = std::make_unique<shredder::ReferenceShredder>(&db_);
    P3PDB_RETURN_IF_ERROR(
        db_.ExecuteScript(translator::ApplicablePolicyDdl()));
    // The rule queries bind the policy id and never join ApplicablePolicy;
    // they only need it as a one-row FROM anchor so catch-all rules return
    // a row. Install that anchor once; matches never mutate it.
    sqldb::Table* table =
        db_.GetMutableTable(translator::kApplicablePolicyTable);
    if (table == nullptr) {
      return Status::Internal("ApplicablePolicy table missing");
    }
    P3PDB_RETURN_IF_ERROR(table->Insert({Value::Integer(0)}));
  }
  return Status::OK();
}

Status PolicyServer::RestoreFromStorage() {
  if (UsesSqlMatching()) {
    // Guard against reopening a directory that was bootstrapped under a
    // different engine configuration: the shredded schemas would not match
    // the SQL this engine generates.
    for (const char* name :
         {"Meta", "Policyref", "Include", "Exclude", "CookieInclude",
          "CookieExclude", translator::kApplicablePolicyTable}) {
      if (db_.LookupTable(name) == nullptr) {
        return Status::InvalidArgument(
            "storage at '" + options_.storage_path + "' lacks table '" +
            std::string(name) + "'; created under a different engine?");
      }
    }
    if (UsesSimpleSchema()) {
      for (const sqldb::TableSchema& expected :
           shredder::GenerateSimpleSchema().tables) {
        const sqldb::Table* table = db_.LookupTable(expected.name());
        if (table == nullptr || table->schema().columns().size() !=
                                    expected.columns().size()) {
          return Status::InvalidArgument(
              "storage at '" + options_.storage_path +
              "' does not carry the simple schema (table '" +
              expected.name() + "' missing or mismatched)");
        }
      }
      simple_shredder_ = std::make_unique<shredder::SimpleShredder>(&db_);
      simple_shredder_->ResumeIds();
    } else {
      const sqldb::Table* policy_table = db_.LookupTable("Policy");
      if (policy_table == nullptr ||
          policy_table->schema().columns().size() != 5) {
        return Status::InvalidArgument(
            "storage at '" + options_.storage_path +
            "' does not carry the optimized schema");
      }
      optimized_shredder_ =
          std::make_unique<shredder::OptimizedShredder>(&db_);
      optimized_shredder_->ResumeIds();
    }
    reference_shredder_ = std::make_unique<shredder::ReferenceShredder>(&db_);
    reference_shredder_->ResumeIds();
    // Re-seed the one-row FROM anchor if the store holds it empty (older
    // stores materialized the applicable policy into it per match, and
    // their XTABLE servers never seeded it).
    sqldb::Table* anchor =
        db_.GetMutableTable(translator::kApplicablePolicyTable);
    if (anchor->RowCount() == 0) {
      P3PDB_RETURN_IF_ERROR(db_.BeginTransaction());
      Status inserted = anchor->Insert({Value::Integer(0)});
      Status commit = db_.CommitTransaction();
      P3PDB_RETURN_IF_ERROR(inserted);
      P3PDB_RETURN_IF_ERROR(commit);
    }
  }

  // Policy catalog -> id list, name/version maps, and the engine's
  // evidence. The catalog stores the original un-augmented XML, so the
  // evidence is rebuilt exactly as InstallPolicy built it. Slots are in
  // install order, so the last row per name is the latest version.
  const sqldb::Table* catalog = db_.LookupTable("PolicyCatalog");
  for (size_t slot = 0; slot < catalog->SlotCount(); ++slot) {
    if (!catalog->IsLive(slot)) continue;
    const sqldb::Row& row = catalog->RowAt(slot);
    P3PDB_ASSIGN_OR_RETURN(p3p::Policy policy,
                           p3p::PolicyFromText(row[3].AsText()));
    RecordPolicyLocked(row[0].AsInteger(), row[1].AsText(),
                       row[2].AsInteger(), policy);
  }

  // Reference file: every engine keeps the native copy for URI resolution.
  if (const sqldb::Table* rft = db_.LookupTable("RefFileCatalog")) {
    for (size_t slot = 0; slot < rft->SlotCount(); ++slot) {
      if (!rft->IsLive(slot)) continue;
      P3PDB_ASSIGN_OR_RETURN(
          reference_file_,
          p3p::ReferenceFileFromText(rft->RowAt(slot)[1].AsText()));
      has_reference_file_ = true;
    }
  }

  // MatchLog id sequence, so recorded matches never collide.
  if (const sqldb::Table* log = db_.LookupTable("MatchLog")) {
    for (size_t slot = 0; slot < log->SlotCount(); ++slot) {
      if (!log->IsLive(slot)) continue;
      const int64_t id = log->RowAt(slot)[0].AsInteger();
      if (id + 1 > next_match_id_) next_match_id_ = id + 1;
    }
  }
  return Status::OK();
}

Result<std::vector<InstalledPolicyRecord>>
PolicyServer::InstalledPolicyRecords() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const sqldb::Table* catalog = db_.LookupTable("PolicyCatalog");
  if (catalog == nullptr) {
    return Status::Internal("PolicyCatalog table missing");
  }
  std::vector<InstalledPolicyRecord> records;
  records.reserve(policy_ids_.size());
  // Slots are in install order (append-only inserts), which is the order a
  // replaying tier must re-install in to reproduce versions.
  for (size_t slot = 0; slot < catalog->SlotCount(); ++slot) {
    if (!catalog->IsLive(slot)) continue;
    const sqldb::Row& row = catalog->RowAt(slot);
    records.push_back({row[0].AsInteger(), row[1].AsText(),
                       row[2].AsInteger(), row[3].AsText()});
  }
  return records;
}

std::optional<p3p::ReferenceFile> PolicyServer::InstalledReferenceFile()
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!has_reference_file_) return std::nullopt;
  return reference_file_;
}

Result<int64_t> PolicyServer::InstallPolicy(const p3p::Policy& policy) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // One durable unit: every row the shred writes plus the catalog entry
  // commit together, so a crash mid-install recovers to "not installed".
  // There is no rollback — a *failed* install keeps its partial in-memory
  // effects, exactly as before storage existed — so the commit runs on
  // every path to keep disk and memory identical.
  P3PDB_RETURN_IF_ERROR(db_.BeginTransaction());
  auto result = InstallPolicyLocked(policy);
  Status commit = CommitInstall(lock);
  if (result.ok() && !commit.ok()) return commit;
  return result;
}

Status PolicyServer::CommitInstall(std::unique_lock<std::shared_mutex>& lock) {
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, db_.CommitTransactionStaged());
  if (options_.storage_group_commit) {
    // Every WAL record (including the commit record) is already appended,
    // so the exclusive lock can be released before the fsync — matches
    // proceed and concurrent installers coalesce their fsyncs in
    // WaitDurable's leader/follower queue.
    lock.unlock();
  }
  return db_.WaitDurable(ticket);
}

Result<int64_t> PolicyServer::InstallPolicyLocked(const p3p::Policy& policy) {
  P3PDB_RETURN_IF_ERROR(policy.Validate());

  int64_t policy_id = -1;
  if (UsesSqlMatching()) {
    p3p::Policy stored = StoredForm(policy);
    if (UsesSimpleSchema()) {
      std::unique_ptr<xml::Element> dom = p3p::PolicyToXml(stored);
      P3PDB_ASSIGN_OR_RETURN(policy_id, simple_shredder_->ShredPolicy(*dom));
    } else {
      P3PDB_ASSIGN_OR_RETURN(policy_id,
                             optimized_shredder_->ShredPolicy(stored));
    }
  } else {
    policy_id = static_cast<int64_t>(policy_ids_.size()) + 1;
  }

  std::string name = policy.name.empty()
                         ? ("policy-" + std::to_string(policy_id))
                         : policy.name;
  const int64_t version = PolicyVersionLocked(name) + 1;
  // The catalog keeps the original, un-augmented text for PolicyXml
  // retrieval and for rebuilding the evidence on a disk-backed reopen.
  P3PDB_RETURN_IF_ERROR(db_.InsertRow(
      "PolicyCatalog",
      {Value::Integer(policy_id), Value::Text(name), Value::Integer(version),
       Value::Text(p3p::PolicyToText(policy))}));
  RecordPolicyLocked(policy_id, std::move(name), version, policy);
  // Cached URI/cookie results may now be stale (a re-installed name changes
  // what a path resolves to): bump the catalog version. Stale entries are
  // invalidated lazily at their next lookup. Policy-id entries are keyed by
  // this id's immutable (id, version) pair and stay valid.
  ++catalog_epoch_;
  return policy_id;
}

p3p::Policy PolicyServer::StoredForm(const p3p::Policy& policy) const {
  p3p::Policy stored = p3p::Canonicalized(policy);
  if (options_.augmentation == Augmentation::kAtInstall) {
    p3p::AugmentPolicy(&stored);
  }
  return stored;
}

void PolicyServer::RecordPolicyLocked(int64_t policy_id, std::string name,
                                      int64_t version,
                                      const p3p::Policy& policy) {
  // Only the evidence this engine's match path reads: the DOM for the
  // native XML store, and for the client-centric baseline the serialized
  // text it re-parses on every match (a client receives policy XML over
  // the wire, it does not share the site's DOM). The SQL engines match
  // against the shredded rows and keep neither.
  if (options_.engine == EngineKind::kXQueryNative) {
    policy_dom_[policy_id] = p3p::PolicyToXml(StoredForm(policy));
  } else if (options_.engine == EngineKind::kNativeAppel) {
    policy_text_[policy_id] = xml::Write(*p3p::PolicyToXml(StoredForm(policy)));
  }
  policy_ids_.push_back(policy_id);
  latest_policy_by_name_[std::move(name)] = policy_id;
  policy_version_by_id_[policy_id] = version;
  if (options_.collect_metrics) {
    policies_installed_->Set(static_cast<int64_t>(policy_ids_.size()));
  }
}

Status PolicyServer::InstallReferenceFile(const p3p::ReferenceFile& rf) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // One durable unit, as in InstallPolicy: the old reference rows' deletes,
  // the reshred, and the RefFileCatalog swap commit together.
  P3PDB_RETURN_IF_ERROR(db_.BeginTransaction());
  Status result = InstallReferenceFileLocked(rf);
  Status commit = CommitInstall(lock);
  if (result.ok() && !commit.ok()) return commit;
  return result;
}

Status PolicyServer::InstallReferenceFileLocked(const p3p::ReferenceFile& rf) {
  // Resolve about -> latest installed policy id by fragment name.
  std::map<std::string, int64_t> resolution;
  for (const p3p::PolicyRef& ref : rf.refs) {
    auto it = latest_policy_by_name_.find(AboutToPolicyName(ref.about));
    if (it != latest_policy_by_name_.end()) {
      resolution[ref.about] = it->second;
    }
  }

  if (UsesSqlMatching()) {
    // Replace any previous reference data.
    for (const char* table : {"Include", "Exclude", "CookieInclude",
                              "CookieExclude", "Policyref", "Meta"}) {
      auto cleared = db_.Execute(std::string("DELETE FROM ") + table);
      if (!cleared.ok()) return cleared.status();
    }
    auto meta = reference_shredder_->ShredReferenceFile(rf, resolution);
    if (!meta.ok()) return meta.status();
  }
  // Persist the reference XML itself so a disk-backed reopen can rebuild
  // the native-path copy (the shredded rows only carry LIKE patterns).
  auto cleared = db_.Execute("DELETE FROM RefFileCatalog");
  if (!cleared.ok()) return cleared.status();
  P3PDB_RETURN_IF_ERROR(db_.InsertRow(
      "RefFileCatalog",
      {Value::Integer(0), Value::Text(p3p::ReferenceFileToText(rf))}));
  reference_file_ = rf;
  has_reference_file_ = true;
  // The path -> policy mapping changed; cached URI/cookie results computed
  // under the previous reference file must never be served again.
  ++catalog_epoch_;
  return Status::OK();
}

Result<CompiledPreference> PolicyServer::CompilePreference(
    const appel::AppelRuleset& ruleset, obs::TraceContext* trace) {
  // Read-only against the server: translation touches no shared state and
  // the XTABLE bind check only reads the catalog, so compiles run
  // concurrently with matches and each other.
  std::shared_lock<std::shared_mutex> lock(mu_);
  obs::ScopedSpan compile_span(trace, "compile-preference");
  if (compile_span.active()) {
    compile_span.SetAttr("engine", EngineKindName(options_.engine));
    compile_span.AddCount("rules", ruleset.rules.size());
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  P3PDB_RETURN_IF_ERROR(ruleset.Validate());
  CompiledPreference pref;
  // The fingerprint is the preference's identity in the match cache — over
  // the canonical serialized ruleset, so it is the same on every server and
  // engine this preference compiles on.
  pref.fingerprint = appel::RulesetFingerprint(ruleset);
  pref.ruleset = ruleset;
  {
    obs::ScopedSpan translate_span(trace, "translate");
    switch (options_.engine) {
      case EngineKind::kNativeAppel:
        // No compilation in the client-centric model: the engine consumes
        // the APPEL text itself on every match.
        pref.appel_text = appel::RulesetToText(ruleset);
        break;
      case EngineKind::kSql: {
        translator::OptimizedSqlTranslator translator(/*parameterized=*/true);
        P3PDB_ASSIGN_OR_RETURN(pref.sql,
                               translator.TranslateRuleset(ruleset, trace));
        break;
      }
      case EngineKind::kSqlSimple: {
        translator::SimpleSqlTranslator translator(/*parameterized=*/true);
        P3PDB_ASSIGN_OR_RETURN(pref.sql,
                               translator.TranslateRuleset(ruleset, trace));
        break;
      }
      case EngineKind::kXQueryNative: {
        xquery::AppelToXQueryTranslator translator;
        P3PDB_ASSIGN_OR_RETURN(pref.xquery_text,
                               translator.TranslateRuleset(ruleset));
        for (const std::string& text : pref.xquery_text.rule_queries) {
          P3PDB_ASSIGN_OR_RETURN(xquery::Query q, xquery::ParseQuery(text));
          pref.xquery_asts.push_back(std::move(q));
        }
        break;
      }
      case EngineKind::kXQueryXTable: {
        xquery::AppelToXQueryTranslator to_xq;
        P3PDB_ASSIGN_OR_RETURN(pref.xquery_text,
                               to_xq.TranslateRuleset(ruleset));
        xquery::XTableTranslator to_sql;
        P3PDB_ASSIGN_OR_RETURN(pref.sql,
                               to_sql.TranslateRuleset(pref.xquery_text));
        for (const std::string& sql : pref.sql.rule_queries) {
          // Prepare-time validation, as DB2 would do: parse and bind the
          // generated SQL, enforcing the statement complexity budget. This
          // is where the deeply nested Medium translation fails (Figure
          // 21).
          P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<sqldb::Statement> stmt,
                                 sqldb::ParseStatement(sql));
          if (stmt->kind == sqldb::StatementKind::kSelect) {
            sqldb::Binder binder(db_, options_.max_subquery_depth);
            P3PDB_RETURN_IF_ERROR(binder.BindSelect(
                static_cast<sqldb::SelectStmt*>(stmt.get())));
          }
        }
        break;
      }
    }
  }
  if (options_.collect_metrics) {
    compiles_total_->Increment();
    compile_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
  }
  return pref;
}

Result<int64_t> PolicyServer::FindApplicablePolicyId(
    std::string_view local_path, bool for_cookie, obs::TraceContext* trace) {
  if (!has_reference_file_) {
    return Status::InvalidArgument("no reference file installed");
  }
  obs::ScopedSpan span(trace, "ref-lookup");
  if (span.active()) {
    span.SetAttr("path", local_path);
    if (for_cookie) span.SetAttr("cookie", "true");
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  Result<int64_t> id = [&]() -> Result<int64_t> {
    if (UsesSqlMatching()) {
      P3PDB_ASSIGN_OR_RETURN(
          QueryResult result,
          db_.Execute(
              translator::ApplicablePolicyQuery(local_path, for_cookie),
              trace));
      if (result.rows.empty()) return int64_t{-1};
      return result.rows[0][0].AsInteger();
    }
    std::optional<std::string> about =
        for_cookie ? reference_file_.PolicyForCookie(local_path)
                   : reference_file_.PolicyForPath(local_path);
    if (!about.has_value()) return int64_t{-1};
    std::optional<int64_t> found = FindPolicyIdByAboutLocked(*about);
    return found.has_value() ? *found : int64_t{-1};
  }();

  if (options_.collect_metrics) {
    ref_lookup_us_->Record(static_cast<uint64_t>(MicrosSince(start)));
  }
  if (span.active() && id.ok()) {
    span.SetAttr("policy-id", std::to_string(id.value()));
  }
  return id;
}

std::optional<int64_t> PolicyServer::FindPolicyIdByAbout(
    std::string_view about) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindPolicyIdByAboutLocked(about);
}

std::optional<int64_t> PolicyServer::FindPolicyIdByAboutLocked(
    std::string_view about) const {
  auto it = latest_policy_by_name_.find(AboutToPolicyName(about));
  if (it == latest_policy_by_name_.end()) return std::nullopt;
  return it->second;
}

Result<MatchResult> PolicyServer::EvaluateAgainstCurrent(
    const CompiledPreference& pref, int64_t policy_id,
    obs::TraceContext* trace) {
  MatchResult result;
  result.policy_id = policy_id;
  result.behavior = appel::kDefaultBehavior;

  switch (options_.engine) {
    case EngineKind::kNativeAppel: {
      auto it = policy_text_.find(policy_id);
      if (it == policy_text_.end()) {
        return Status::NotFound("policy id " + std::to_string(policy_id) +
                                " not installed");
      }
      // The client-centric pipeline, per match: parse the policy XML the
      // site served, parse the user's APPEL text, then evaluate (with the
      // engine's per-match augmentation when so configured).
      xml::Document policy_doc;
      {
        obs::ScopedSpan parse_span(trace, "policy-parse");
        P3PDB_ASSIGN_OR_RETURN(policy_doc, xml::Parse(it->second));
        if (parse_span.active()) {
          parse_span.AddCount("chars", it->second.size());
        }
      }
      appel::AppelRuleset ruleset;
      {
        obs::ScopedSpan parse_span(trace, "appel-parse");
        P3PDB_ASSIGN_OR_RETURN(ruleset,
                               appel::RulesetFromText(pref.appel_text));
        if (parse_span.active()) {
          parse_span.AddCount("chars", pref.appel_text.size());
        }
      }
      // The engine adds the §6 breakdown: category-augmentation (when
      // configured per match) and connective-eval spans.
      P3PDB_ASSIGN_OR_RETURN(
          appel::MatchOutcome outcome,
          native_engine_.Evaluate(ruleset, *policy_doc.root, trace));
      result.behavior = outcome.behavior;
      result.fired_rule_index = outcome.fired_rule_index;
      break;
    }
    case EngineKind::kSql:
    case EngineKind::kSqlSimple:
    case EngineKind::kXQueryXTable: {
      std::vector<Value> params;  // reused across rules (capacity sticks)
      for (size_t i = 0; i < pref.sql.rule_queries.size(); ++i) {
        obs::ScopedSpan rule_span(trace, "rule-query");
        if (rule_span.active()) {
          rule_span.SetAttr("rule", std::to_string(i));
          rule_span.SetAttr("behavior", pref.sql.behaviors[i]);
        }
        // Every `?` of the rule query binds the applicable policy id;
        // catch-all rules take none. The SQL text is submitted per match,
        // as in the paper's methodology; the plan cache makes a repeat
        // submission skip parse, bind and plan.
        const size_t param_count = i < pref.sql.param_counts.size()
                                       ? pref.sql.param_counts[i]
                                       : 0;
        params.assign(param_count, Value::Integer(policy_id));
        P3PDB_ASSIGN_OR_RETURN(
            QueryResult rows,
            db_.Execute(pref.sql.rule_queries[i], params, trace));
        if (options_.collect_metrics) rule_queries_total_->Increment();
        if (rule_span.active()) rule_span.AddCount("rows", rows.rows.size());
        if (!rows.rows.empty()) {
          result.behavior = rows.rows[0][0].AsText();
          result.fired_rule_index = static_cast<int>(i);
          break;
        }
      }
      break;
    }
    case EngineKind::kXQueryNative: {
      auto it = policy_dom_.find(policy_id);
      if (it == policy_dom_.end()) {
        return Status::NotFound("policy id " + std::to_string(policy_id) +
                                " not installed");
      }
      for (size_t i = 0; i < pref.xquery_asts.size(); ++i) {
        obs::ScopedSpan rule_span(trace, "rule-query");
        if (rule_span.active()) rule_span.SetAttr("rule", std::to_string(i));
        P3PDB_ASSIGN_OR_RETURN(
            bool fired, xquery::EvalQuery(pref.xquery_asts[i], *it->second));
        if (options_.collect_metrics) rule_queries_total_->Increment();
        if (fired) {
          result.behavior = pref.xquery_text.behaviors[i];
          result.fired_rule_index = static_cast<int>(i);
          break;
        }
      }
      break;
    }
  }
  if (options_.record_matches) {
    obs::ScopedSpan record_span(trace, "record-match");
    P3PDB_RETURN_IF_ERROR(RecordMatch(result));
  }
  return result;
}

Result<MatchResult> PolicyServer::MatchUri(const CompiledPreference& pref,
                                           std::string_view local_path,
                                           obs::TraceContext* trace) {
  return Match(pref, MatchSubject::kUri, local_path, -1, trace);
}

Result<MatchResult> PolicyServer::MatchCookie(const CompiledPreference& pref,
                                              std::string_view cookie_path,
                                              obs::TraceContext* trace) {
  return Match(pref, MatchSubject::kCookie, cookie_path, -1, trace);
}

Result<MatchResult> PolicyServer::MatchPolicyId(const CompiledPreference& pref,
                                                int64_t policy_id,
                                                obs::TraceContext* trace) {
  return Match(pref, MatchSubject::kPolicyId, {}, policy_id, trace);
}

Result<MatchResult> PolicyServer::Match(const CompiledPreference& pref,
                                        MatchSubject subject,
                                        std::string_view path,
                                        int64_t policy_id,
                                        obs::TraceContext* trace) {
  const bool by_id = subject == MatchSubject::kPolicyId;
  const bool for_cookie = subject == MatchSubject::kCookie;
  obs::ScopedSpan match_span(trace, "match");
  if (match_span.active()) {
    match_span.SetAttr("engine", EngineKindName(options_.engine));
    if (!by_id) match_span.SetAttr(for_cookie ? "cookie" : "uri", path);
  }
  std::chrono::steady_clock::time_point start{};
  if (options_.collect_metrics) start = std::chrono::steady_clock::now();

  std::shared_lock<std::shared_mutex> lock(mu_);
  const bool cacheable = match_cache_ != nullptr && pref.fingerprint != 0;
  bool cache_hit = false;
  MatchCacheKey key;
  // URI/cookie entries are stamped with the catalog epoch: any install may
  // change what a path resolves to.
  uint64_t version = catalog_epoch_;
  Result<MatchResult> result = [&]() -> Result<MatchResult> {
    if (by_id) {
      auto version_it = policy_version_by_id_.find(policy_id);
      if (version_it == policy_version_by_id_.end()) {
        return Status::NotFound("policy id " + std::to_string(policy_id) +
                                " not installed");
      }
      // Policy ids are immutable (re-installing a name mints a new id), so
      // the entry is stamped with the id's own version and survives
      // unrelated catalog changes.
      version = static_cast<uint64_t>(version_it->second);
    }
    if (cacheable) {
      key = MatchCacheKey{pref.fingerprint, subject, policy_id,
                          std::string(path),
                          static_cast<uint8_t>(options_.engine)};
      if (std::optional<MatchResult> hit =
              CachedMatch(key, version, match_span)) {
        cache_hit = true;
        if (options_.record_matches) {
          obs::ScopedSpan record_span(trace, "record-match");
          P3PDB_RETURN_IF_ERROR(RecordMatch(*hit));
        }
        return *hit;
      }
    }
    if (!by_id) {
      P3PDB_ASSIGN_OR_RETURN(policy_id,
                             FindApplicablePolicyId(path, for_cookie, trace));
      if (policy_id < 0) {
        MatchResult miss;
        miss.behavior = kNoPolicyBehavior;
        miss.policy_found = false;
        return miss;
      }
    }
    return EvaluateAgainstCurrent(pref, policy_id, trace);
  }();
  if (cacheable && !cache_hit) StoreMatch(key, version, result);
  FinishMatchSpan(match_span, result);
  if (options_.collect_metrics) {
    TallyMatch(result, MicrosSince(start), cache_hit);
  }
  return result;
}

std::optional<MatchResult> PolicyServer::CachedMatch(
    const MatchCacheKey& key, uint64_t version, obs::ScopedSpan& match_span) {
  std::optional<MatchResult> hit = match_cache_->Lookup(key, version);
  if (match_span.active()) {
    match_span.SetAttr("cache", hit.has_value() ? "hit" : "miss");
  }
  return hit;
}

void PolicyServer::StoreMatch(const MatchCacheKey& key, uint64_t version,
                              const Result<MatchResult>& result) {
  // Errors are not memoized: they describe the attempt, not the catalog.
  if (!result.ok()) return;
  match_cache_->Insert(key, version, result.value());
}

uint64_t PolicyServer::catalog_epoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_epoch_;
}

void PolicyServer::TallyMatch(const Result<MatchResult>& result,
                              double elapsed_us, bool cache_hit) {
  matches_total_->Increment();
  match_us_->Record(static_cast<uint64_t>(elapsed_us));
  obs::Histogram* bucket = cache_hit ? cache_hit_us_ : cache_miss_us_;
  if (match_cache_ != nullptr && bucket != nullptr) {
    bucket->Record(static_cast<uint64_t>(elapsed_us));
  }
  if (!result.ok()) {
    match_errors_total_->Increment();
  } else if (!result.value().policy_found) {
    no_policy_total_->Increment();
  }
}

void PolicyServer::SyncDatabaseMetrics() const {
  const sqldb::ExecStats stats = db_.stats();
  // Counters are monotonic on both sides, so incrementing by the delta
  // since the last sync makes the registry converge on the database's
  // cumulative totals regardless of how often (or from how many threads)
  // the render entry points are hit.
  const auto sync = [](obs::Counter* counter, uint64_t current) {
    const uint64_t seen = counter->value();
    if (current > seen) counter->Increment(current - seen);
  };
  sync(sql_plans_built_, stats.plans_built);
  sync(sql_plan_cache_hits_, stats.plan_cache_hits);
  sync(sql_semi_join_rewrites_, stats.semi_join_rewrites);
  sync(sql_anti_join_rewrites_, stats.anti_join_rewrites);
  sync(sql_hash_join_builds_, stats.hash_join_builds);
  sync(sql_hash_join_probes_, stats.hash_join_probes);
  sync(sql_batches_, stats.batches);
  sync(sql_batch_rows_, stats.batch_rows);
  sync(sql_vectorized_filters_, stats.vectorized_filters);
  sync(sql_vectorized_fallback_rows_, stats.vectorized_fallback_rows);
  sync(sql_cost_exists_kept_, stats.cost_exists_kept);
  sync(sql_cost_join_reorders_, stats.cost_join_reorders);
  sync(sql_cost_seq_forced_, stats.cost_seq_forced);
  sync(sql_plan_recosts_, stats.plan_recosts);
  const sqldb::StatsCounters stats_counters = db_.stats_catalog().counters();
  sync(sql_stats_updates_, stats_counters.updates);
  sync(sql_stats_rebuilds_, stats_counters.rebuilds);
  sync(sql_stats_epoch_bumps_, stats_counters.epoch_bumps);
  if (storage_wal_records_ != nullptr) {
    const sqldb::StorageStats storage = db_.storage_stats();
    sync(storage_wal_records_, storage.wal_records);
    sync(storage_wal_commits_, storage.wal_commits);
    sync(storage_wal_syncs_, storage.wal_syncs);
    sync(storage_wal_bytes_, storage.wal_bytes);
    sync(storage_checkpoints_, storage.checkpoints);
    sync(storage_recovered_txns_, storage.recovered_txns);
  }
  uptime_seconds_->Set(std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - start_time_)
                           .count());
}

obs::MetricsSnapshot PolicyServer::MetricsSnapshot() const {
  SyncDatabaseMetrics();
  return metrics_.Snapshot();
}

std::string PolicyServer::RenderMetricsText() const {
  SyncDatabaseMetrics();
  return metrics_.RenderText();
}

std::string PolicyServer::RenderMetricsJson() const {
  SyncDatabaseMetrics();
  return metrics_.RenderJson();
}

std::string PolicyServer::RenderStatementStatsJson(size_t top) const {
  return db_.statement_stats().RenderJson(top);
}

std::string PolicyServer::RenderStatementStatsText(size_t top) const {
  return db_.statement_stats().RenderText(top);
}

std::string PolicyServer::RenderSlowLogJson(
    obs::SlowQueryEntry::Kind kind) const {
  const obs::SlowQueryLog* log = db_.slow_log();
  if (log == nullptr) return "[]\n";
  return log->RenderJson(kind);
}

std::string PolicyServer::RenderHealthzJson() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string out = "{\"status\":\"ok\",\"catalog_epoch\":" +
                    std::to_string(catalog_epoch_) +
                    ",\"policies\":" + std::to_string(policy_ids_.size()) +
                    ",\"match_cache_shards\":[";
  if (match_cache_ != nullptr) {
    for (size_t shard = 0; shard < match_cache_->shard_count(); ++shard) {
      if (shard > 0) out += ',';
      out += "{\"shard\":" + std::to_string(shard) + ",\"entries\":" +
             std::to_string(match_cache_->ShardStats(shard).entries) + "}";
    }
  }
  out += "]}\n";
  return out;
}

bool PolicyServer::admin_endpoint_running() const { return admin_ != nullptr; }

uint16_t PolicyServer::admin_port() const {
  return admin_ == nullptr ? 0 : admin_->port();
}

Status PolicyServer::RecordMatch(const MatchResult& result) {
  // Matches hold the main lock shared, so the log append — the one write a
  // read-only match performs — gets its own mutex. MatchLog is touched by
  // nothing else a concurrent matcher executes, and ConflictReport reads it
  // under the exclusive main lock.
  std::lock_guard<std::mutex> lock(match_log_mu_);
  return db_.InsertRow(
      "MatchLog",
      {Value::Integer(next_match_id_++), Value::Integer(result.policy_id),
       Value::Text(result.behavior),
       Value::Integer(result.fired_rule_index)});
}

int64_t PolicyServer::PolicyVersion(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return PolicyVersionLocked(name);
}

int64_t PolicyServer::PolicyVersionLocked(std::string_view name) const {
  auto latest = latest_policy_by_name_.find(name);
  if (latest == latest_policy_by_name_.end()) return 0;
  return policy_version_by_id_.at(latest->second);
}

Result<std::string> PolicyServer::PolicyXml(std::string_view name,
                                            int64_t version) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  P3PDB_ASSIGN_OR_RETURN(
      QueryResult result,
      db_.Execute("SELECT xml FROM PolicyCatalog WHERE name = " +
                  SqlQuote(name) +
                  " AND version = " + std::to_string(version)));
  if (result.rows.empty()) {
    return Status::NotFound("no version " + std::to_string(version) +
                            " of policy '" + std::string(name) + "'");
  }
  return result.rows[0][0].AsText();
}

Result<sqldb::QueryResult> PolicyServer::ConflictReport() {
  // Exclusive: reads MatchLog, which concurrent shared-lock matchers append
  // to under match_log_mu_.
  std::unique_lock<std::shared_mutex> lock(mu_);
  return db_.Execute(
      "SELECT policy_id, behavior, COUNT(*) AS matches FROM MatchLog "
      "GROUP BY policy_id, behavior ORDER BY 1, 2");
}

}  // namespace p3pdb::server
