// paper_fig20: the paper's Fig 20 method. One thread, closed loop, one
// uncached PolicyServer per engine (native APPEL, SQL, XQuery-native and
// the XTABLE XQuery->SQL path), 29 Fortune policies x the 5 JRC preference
// levels, SQL text submitted on every match (no prepared statements). The
// XTABLE translation of the Medium preference exceeds the statement
// complexity budget and is recorded as unsupported (Fig 21), not as an
// error. Every engine's answer is checked against the native engine's.
//
// The corpus is the paper's fixed 29-policy one (the seed bench_fig20 uses
// too), so every run matches the same pairs; --seed sets the order in
// which each round visits the policies.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "appel/engine.h"
#include "appel/model.h"
#include "p3p/policy_xml.h"
#include "server/policy_server.h"
#include "src/trace.h"
#include "src/workloads.h"
#include "translator/sql_optimized.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "xml/parser.h"
#include "xquery/eval.h"
#include "xquery/parser.h"
#include "xquery/translate_appel.h"

namespace p3pdb::perfbench {
namespace {

using server::Augmentation;
using server::CompiledPreference;
using server::EngineKind;
using server::MatchResult;
using server::PolicyServer;

constexpr size_t kLevels = 5;
constexpr size_t kPolicies = 29;  // §6.2
constexpr uint64_t kCorpusSeed = 2003;  // the year of the paper
/// The XTABLE statement complexity budget under which the Medium
/// translation fails to prepare (the fig20 bench uses the same budget).
constexpr int kXTableDepthBudget = 6;
constexpr int kConvertSamplesPerLevel = 8;  // per set-up
constexpr uint64_t kTraceEvery = 4;         // sql matches replayed: 1 in 4

struct Engine {
  EngineKind kind;
  const char* metric;  // <metric>_match_p50_us
  std::unique_ptr<PolicyServer> server;
  std::vector<int64_t> ids;
  std::vector<std::optional<CompiledPreference>> prefs;  // per level
};

class Fig20Bench {
 public:
  Fig20Bench(const RunOptions& options, RunReport* report)
      : options_(options), report_(report) {}

  Status Run();

 private:
  Status SetUp();
  /// Runs rounds over every engine, level and policy until `seconds` pass.
  void Loop(double seconds, bool traced);
  /// Mirrors one sql match on layer_sql_; a sampled match also gets spans
  /// for every layer it stands for.
  void TraceSqlMatch(size_t level, size_t policy, int64_t start,
                     int64_t done, bool sampled);
  void ReportLayers(double untraced_p50, double traced_p50);

  RunOptions options_;
  RunReport* report_;
  std::vector<p3p::Policy> corpus_;
  std::vector<appel::AppelRuleset> rulesets_;
  std::vector<std::string> appel_texts_;
  std::vector<std::string> policy_texts_;
  std::vector<size_t> policy_order_;  // the seed's visiting order
  std::vector<Engine> engines_;
  std::vector<Samples> match_us_;  // per engine, over every set-up
  std::vector<MatchResult> expected_;  // [level * kPolicies + policy]
  Samples convert_us_;
  Samples install_us_;  // sql engine, over every set-up of the run
  size_t unsupported_ = 0;

  // Traced-run state (one thread: no locking). Every sql match is mirrored
  // on layer_sql_, a second sql server with the same options and corpus,
  // so the layer calls read data as cold as the match they stand in for.
  std::unique_ptr<PolicyServer> layer_sql_;
  std::vector<int64_t> layer_ids_;
  std::vector<std::vector<sqldb::PreparedStatement>> prepared_;
  SpanLog spans_;
  Samples attributed_share_;
  ExecCounts exec_counts_;
  uint64_t sql_matches_ = 0;
};

constexpr size_t kSql = 1;  // engines_[kSql] is the sql engine
Engine& SqlEngine(std::vector<Engine>& engines) { return engines[kSql]; }

Status Fig20Bench::SetUp() {
  corpus_ = workload::FortuneCorpus(
      {.seed = kCorpusSeed, .policy_count = kPolicies});
  policy_order_.resize(kPolicies);
  for (size_t i = 0; i < kPolicies; ++i) policy_order_[i] = i;
  for (size_t i = kPolicies; i > 1; --i) {
    std::swap(policy_order_[i - 1],
              policy_order_[Mix(options_.seed * kPolicies + i) % i]);
  }
  rulesets_.clear();
  appel_texts_.clear();
  policy_texts_.clear();
  for (size_t l = 0; l < kLevels; ++l) {
    rulesets_.push_back(
        workload::JrcPreference(workload::AllPreferenceLevels()[l]));
    appel_texts_.push_back(appel::RulesetToText(rulesets_.back()));
  }
  for (const p3p::Policy& policy : corpus_) {
    policy_texts_.push_back(p3p::PolicyToText(policy));
  }

  engines_.push_back({EngineKind::kNativeAppel, "native", {}, {}, {}});
  engines_.push_back({EngineKind::kSql, "sql", {}, {}, {}});
  engines_.push_back({EngineKind::kXQueryNative, "xquery", {}, {}, {}});
  engines_.push_back({EngineKind::kXQueryXTable, "xtable", {}, {}, {}});
  match_us_.resize(engines_.size());
  unsupported_ = 0;
  for (Engine& engine : engines_) {
    PolicyServer::Options o;
    o.engine = engine.kind;
    // The client-centric baseline augments categories on every match.
    o.augmentation = engine.kind == EngineKind::kNativeAppel
                         ? Augmentation::kPerMatch
                         : Augmentation::kAtInstall;
    if (engine.kind == EngineKind::kXQueryXTable) {
      o.max_subquery_depth = kXTableDepthBudget;
    }
    // The paper restarted DB2 between preferences to defeat caching.
    o.enable_match_cache = false;
    P3PDB_ASSIGN_OR_RETURN(engine.server, PolicyServer::Create(o));
    for (const p3p::Policy& policy : corpus_) {
      const int64_t start = NowNs();
      P3PDB_ASSIGN_OR_RETURN(int64_t id, engine.server->InstallPolicy(policy));
      if (engine.kind == EngineKind::kSql) {
        install_us_.Add(NsToUs(NowNs() - start));
      }
      engine.ids.push_back(id);
    }
    for (const appel::AppelRuleset& ruleset : rulesets_) {
      Result<CompiledPreference> pref =
          engine.server->CompilePreference(ruleset);
      if (pref.ok()) {
        engine.prefs.push_back(std::move(pref).value());
      } else if (engine.kind == EngineKind::kXQueryXTable) {
        engine.prefs.push_back(std::nullopt);  // Fig 21: unsupported
        ++unsupported_;
      } else {
        return pref.status();
      }
    }
  }
  for (int rep = 0; rep < kConvertSamplesPerLevel; ++rep) {
    for (const appel::AppelRuleset& ruleset : rulesets_) {
      Status status = Status::OK();
      convert_us_.Add(TimeUs([&] {
        status = SqlEngine(engines_).server->CompilePreference(ruleset).status();
      }));
      P3PDB_RETURN_IF_ERROR(status);
    }
  }
  // Expected answers: the native engine's. Every other engine is checked
  // against them on this warm-up pass and on every timed match.
  expected_.assign(kLevels * kPolicies, MatchResult{});
  for (Engine& engine : engines_) {
    for (size_t l = 0; l < kLevels; ++l) {
      if (!engine.prefs[l].has_value()) continue;
      for (size_t p = 0; p < kPolicies; ++p) {
        P3PDB_ASSIGN_OR_RETURN(
            MatchResult m,
            engine.server->MatchPolicyId(*engine.prefs[l], engine.ids[p]));
        if (engine.kind == EngineKind::kNativeAppel) {
          expected_[l * kPolicies + p] = m;
          continue;
        }
        const MatchResult& e = expected_[l * kPolicies + p];
        report_->outcomes.Attempt();
        if (m.behavior != e.behavior ||
            m.fired_rule_index != e.fired_rule_index) {
          report_->outcomes.Fail(std::string(engine.metric) +
                                 " disagrees with native on " +
                                 corpus_[p].name);
        }
      }
    }
  }
  return Status::OK();
}

void Fig20Bench::Loop(double seconds, bool traced) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    for (size_t e = 0; e < engines_.size(); ++e) {
      Engine& engine = engines_[e];
      const bool is_sql = engine.kind == EngineKind::kSql;
      sqldb::Database* db = engine.server->database();
      for (size_t l = 0; l < kLevels && NowNs() < end; ++l) {
        if (!engine.prefs[l].has_value()) continue;
        const CompiledPreference& pref = *engine.prefs[l];
        for (size_t p : policy_order_) {
          const bool mirror = traced && is_sql;
          const bool sampled = mirror && ++sql_matches_ % kTraceEvery == 0;
          sqldb::ExecStats before;
          if (sampled) before = db->stats();
          const int64_t start = NowNs();
          Result<MatchResult> m =
              engine.server->MatchPolicyId(pref, engine.ids[p]);
          const int64_t done = NowNs();
          match_us_[e].Add(NsToUs(done - start));
          report_->outcomes.Attempt();
          const MatchResult& e = expected_[l * kPolicies + p];
          if (!m.ok()) {
            report_->outcomes.Fail("match error: " + m.status().ToString());
          } else if (m.value().behavior != e.behavior ||
                     m.value().fired_rule_index != e.fired_rule_index) {
            report_->outcomes.Fail(std::string(engine.metric) +
                                   " wrong answer on " + corpus_[p].name);
          }
          if (sampled) exec_counts_.Add(before, db->stats());
          if (mirror) TraceSqlMatch(l, p, start, done, sampled);
        }
      }
    }
    if (NowNs() >= end) break;
    for (const appel::AppelRuleset& ruleset : rulesets_) {
      convert_us_.Add(TimeUs([&] {
        (void)SqlEngine(engines_).server->CompilePreference(ruleset);
      }));
    }
  }
}

void Fig20Bench::TraceSqlMatch(size_t level, size_t policy, int64_t start,
                               int64_t done, bool sampled) {
  const uint64_t request = sql_matches_;
  const int64_t root =
      sampled ? spans_.Add("server.sql.match", start, done, -1, request) : -1;
  Engine& sql = SqlEngine(engines_);
  const double query_us = ReplayRuleQueries(
      layer_sql_->database(), sql.prefs[level]->sql, prepared_[level],
      layer_ids_[policy], sampled ? &spans_ : nullptr, root, request);
  if (!sampled) return;
  if (done > start) {
    attributed_share_.Add(query_us / NsToUs(done - start));
  }

  const appel::AppelRuleset& ruleset = rulesets_[level];
  spans_.Time("translator.translate", root, request, [&] {
    (void)translator::OptimizedSqlTranslator(/*parameterized=*/true)
        .TranslateRuleset(ruleset);
  });
  // The native engine's per-match steps: parse the policy, parse the
  // preference, evaluate with per-match category augmentation.
  Result<xml::Document> doc = Status::Internal("unparsed");
  spans_.Time("xml.parse", root, request,
              [&] { doc = xml::Parse(policy_texts_[policy]); });
  spans_.Time("appel.parse", root, request, [&] {
    (void)appel::RulesetFromText(appel_texts_[level]);
  });
  if (!doc.ok()) return;
  const xml::Element& policy_root = *doc.value().root;
  spans_.Time("appel.eval", root, request, [&] {
    (void)appel::NativeEngine(appel::NativeEngine::Options{
                                  .augment_per_match = true})
        .Evaluate(ruleset, policy_root);
  });
  spans_.Time("xquery.translate", root, request, [&] {
    Result<xquery::XQueryRuleset> xq =
        xquery::AppelToXQueryTranslator().TranslateRuleset(ruleset);
    if (!xq.ok()) return;
    for (const std::string& text : xq.value().rule_queries) {
      (void)xquery::ParseQuery(text);
    }
  });
  const Engine& xq = engines_[2];
  spans_.Time("xquery.eval", root, request, [&] {
    for (const xquery::Query& query : xq.prefs[level]->xquery_asts) {
      Result<bool> fired = xquery::EvalQuery(query, policy_root);
      if (!fired.ok() || fired.value()) break;
    }
  });
}

void Fig20Bench::ReportLayers(double untraced_p50, double traced_p50) {
  MetricSet& m = report_->per_layer;
  auto median = [&](const char* span) {
    return spans_.DurationsUs(span).Median();
  };
  for (const char* name :
       {"translator.translate", "appel.parse", "xml.parse", "appel.eval",
        "xquery.translate", "xquery.eval", "sqldb.query", "sqldb.execute",
        "sqldb.lex", "sqldb.parse", "sqldb.bind", "sqldb.plan"}) {
    m.Set(std::string(name) + "_us", median(name), "us");
  }
  const ExecCounts& c = exec_counts_;
  if (c.matches > 0) {
    m.Set("sqldb.rules_per_match", c.statements / c.matches, "count");
    m.Set("sqldb.rows_scanned_per_match", c.rows_scanned / c.matches,
          "count");
    m.Set("sqldb.hash_join_probes_per_match", c.hash_join_probes / c.matches,
          "count");
  }
  const double plans = c.plans_built + c.plan_cache_hits;
  m.Set("sqldb.plan_cache.hit_ratio",
        plans > 0 ? c.plan_cache_hits / plans : 0.0, "ratio");
  m.Set("trace.unattributed_ratio", 1.0 - attributed_share_.Median(),
        "ratio");
  m.Set("trace.overhead_ratio",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");
  m.Set("trace.spans", static_cast<double>(spans_.size()), "count");
}

Status Fig20Bench::Run() {
  // Set-up, several times. An untraced run spreads the set-ups over the
  // match loop, one before each segment, so setup_s and
  // setup_install_p50_us average over the same stretch of machine time as
  // the match metrics. A traced run sets up once.
  Samples setup_s;
  auto set_up = [&]() -> Status {
    engines_.clear();  // outside the timer: set-up time excludes teardown
    Status status = Status::OK();
    setup_s.Add(TimeUs([&] { status = SetUp(); }) / 1e6);
    return status;
  };
  P3PDB_RETURN_IF_ERROR(set_up());
  std::printf("paper_fig20: %zu policies x %zu levels, %zu engines, "
              "%zu engine/level pair(s) unsupported (XTABLE Medium, Fig 21)\n",
              kPolicies, kLevels, engines_.size(), unsupported_);

  const double s = options_.seconds;
  if (options_.trace) {
    Engine& sql = SqlEngine(engines_);
    P3PDB_ASSIGN_OR_RETURN(layer_sql_,
                           PolicyServer::Create(sql.server->options()));
    for (const p3p::Policy& policy : corpus_) {
      P3PDB_ASSIGN_OR_RETURN(int64_t id, layer_sql_->InstallPolicy(policy));
      layer_ids_.push_back(id);
    }
    for (const auto& pref : sql.prefs) {
      P3PDB_ASSIGN_OR_RETURN(auto prepared,
                             PrepareRules(layer_sql_->database(), pref->sql));
      prepared_.push_back(std::move(prepared));
    }
    Loop(0.5 * s, /*traced=*/false);
    const double untraced_sql_p50 = match_us_[kSql].Median();
    match_us_.assign(engines_.size(), Samples());
    Loop(0.5 * s, /*traced=*/true);
    ReportLayers(untraced_sql_p50, match_us_[kSql].Median());
    P3PDB_RETURN_IF_ERROR(spans_.WriteJsonl(
        options_.work_dir + "/" + options_.workload + "-seed" +
        std::to_string(options_.seed) + ".spans.jsonl"));
  } else {
    for (int rep = 1; rep < kSetupRepetitions; ++rep) {
      Loop(s / kSetupRepetitions, /*traced=*/false);
      P3PDB_RETURN_IF_ERROR(set_up());
    }
    Loop(s / kSetupRepetitions, /*traced=*/false);
  }

  MetricSet& e = report_->end_to_end;
  const Samples& sql = match_us_[kSql];
  e.Set("setup_s", setup_s.Median(), "s");
  e.Set("match_p50_us", sql.Median(), "us");
  e.Set("match_p99_us", sql.Percentile(99.0), "us");
  e.Set("convert_p50_us", convert_us_.Median(), "us");
  e.Set("setup_install_p50_us", install_us_.Median(), "us");
  e.Set("match_samples", static_cast<double>(sql.size()), "count");
  for (size_t i = 0; i < engines_.size(); ++i) {
    e.Set(std::string(engines_[i].metric) + "_match_p50_us",
          match_us_[i].Median(), "us");
  }
  e.Set("unsupported_pairs", static_cast<double>(unsupported_), "count");
  return Status::OK();
}

}  // namespace

Status RunFig20Workload(const RunOptions& options, RunReport* report) {
  Fig20Bench bench(options, report);
  return bench.Run();
}

}  // namespace p3pdb::perfbench
