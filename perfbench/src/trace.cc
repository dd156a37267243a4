#include "src/trace.h"

#include <cstdio>
#include <memory>

#include "sqldb/binder.h"
#include "sqldb/lexer.h"
#include "sqldb/parser.h"
#include "sqldb/planner.h"

namespace p3pdb::perfbench {

int64_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, uint64_t request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

Samples SpanLog::DurationsUs(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) out.Add(NsToUs(s.end_ns - s.start_ns));
  }
  return out;
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot close " + path);
}

namespace {

/// The conversion steps a fresh prepare of `text` would pay: lex, parse,
/// bind, plan (each a span under `parent`).
void ReplayConversion(const sqldb::Database& db, const std::string& text,
                      const sqldb::StatsCatalog* catalog, SpanLog* log,
                      int64_t parent, uint64_t request) {
  const sqldb::Database::Options& options = db.options();
  log->Time("sqldb.lex", parent, request,
            [&] { (void)sqldb::Tokenize(text); });
  Result<std::unique_ptr<sqldb::Statement>> parsed =
      Status::Internal("unparsed");
  log->Time("sqldb.parse", parent, request,
            [&] { parsed = sqldb::ParseStatement(text); });
  if (!parsed.ok() || parsed.value()->kind != sqldb::StatementKind::kSelect) {
    return;
  }
  auto* select = static_cast<sqldb::SelectStmt*>(parsed.value().get());
  Status bound = Status::OK();
  log->Time("sqldb.bind", parent, request, [&] {
    sqldb::Binder binder(db, options.max_subquery_depth);
    bound = binder.BindSelect(select);
  });
  if (!bound.ok()) return;
  log->Time("sqldb.plan", parent, request, [&] {
    sqldb::PlannerStats planner_stats;
    if (options.enable_planner) {
      sqldb::PlanSelect(select, &planner_stats, catalog);
    }
    if (options.enable_vectorized_executor || catalog != nullptr) {
      sqldb::AnnotateSelect(select, catalog, &planner_stats);
    }
  });
}

}  // namespace

Result<std::vector<sqldb::PreparedStatement>> PrepareRules(
    sqldb::Database* db, const translator::SqlRuleset& sql) {
  std::vector<sqldb::PreparedStatement> out;
  for (const std::string& text : sql.rule_queries) {
    P3PDB_ASSIGN_OR_RETURN(sqldb::PreparedStatement stmt, db->Prepare(text));
    out.push_back(std::move(stmt));
  }
  return out;
}

double ReplayRuleQueries(
    sqldb::Database* db, const translator::SqlRuleset& sql,
    const std::vector<sqldb::PreparedStatement>& prepared, int64_t policy_id,
    SpanLog* log, int64_t parent, uint64_t request) {
  double query_us = 0.0;
  std::vector<std::pair<int64_t, int64_t>> timings;  // per rule run
  std::vector<sqldb::Value> params;
  auto bind = [&](size_t rule) {
    const size_t count =
        rule < sql.param_counts.size() ? sql.param_counts[rule] : 0;
    params.assign(count, sqldb::Value::Integer(policy_id));
  };
  // The path a match takes: SQL text with bind parameters, in rule order.
  for (size_t i = 0; i < sql.rule_queries.size(); ++i) {
    const std::string& text = sql.rule_queries[i];
    bind(i);
    const int64_t start = NowNs();
    Result<sqldb::QueryResult> rows =
        params.empty() ? db->Execute(text) : db->Execute(text, params);
    const int64_t end = NowNs();
    timings.push_back({start, end});
    query_us += NsToUs(end - start);
    if (rows.ok() && !rows.value().rows.empty()) break;
  }
  if (log == nullptr) return query_us;
  // Spans, then the per-rule extras, timed after every query has run so
  // they do not warm the data the queries read.
  const sqldb::StatsCatalog* catalog =
      db->options().enable_cost_model ? &db->stats_catalog() : nullptr;
  for (size_t i = 0; i < timings.size(); ++i) {
    const int64_t query = log->Add("sqldb.query", timings[i].first,
                                   timings[i].second, parent, request);
    bind(i);
    if (i < prepared.size()) {
      log->Time("sqldb.execute", query, request,
                [&] { (void)prepared[i].Execute(params); });
    }
    ReplayConversion(*db, sql.rule_queries[i], catalog, log, query, request);
  }
  return query_us;
}

void ExecCounts::Add(const sqldb::ExecStats& before,
                     const sqldb::ExecStats& after) {
  matches += 1;
  statements += after.statements_executed - before.statements_executed;
  rows_scanned += after.rows_scanned - before.rows_scanned;
  hash_join_probes += after.hash_join_probes - before.hash_join_probes;
  plans_built += after.plans_built - before.plans_built;
  plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
}

}  // namespace p3pdb::perfbench
