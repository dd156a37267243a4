// The read-only match path: the generated rule queries take the applicable
// policy id as a bind parameter, so (a) their results are identical to the
// paper's literal queries that join a materialized ApplicablePolicy row,
// and (b) a match with record_matches off mutates no table at all — on
// every SQL engine, XTABLE included.

#include <gtest/gtest.h>

#include "server/policy_server.h"
#include "translator/sql_optimized.h"
#include "translator/sql_simple.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"

namespace p3pdb::server {
namespace {

using sqldb::QueryResult;
using sqldb::Value;
using workload::JrcPreference;
using workload::PreferenceLevel;

constexpr EngineKind kSqlEngines[] = {EngineKind::kSql, EngineKind::kSqlSimple,
                                      EngineKind::kXQueryXTable};

Result<std::unique_ptr<PolicyServer>> CorpusServer(
    EngineKind engine, const std::vector<p3p::Policy>& corpus,
    std::vector<int64_t>* ids) {
  PolicyServer::Options options;
  options.engine = engine;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> server,
                         PolicyServer::Create(options));
  for (const p3p::Policy& policy : corpus) {
    P3PDB_ASSIGN_OR_RETURN(int64_t id, server->InstallPolicy(policy));
    ids->push_back(id);
  }
  P3PDB_RETURN_IF_ERROR(
      server->InstallReferenceFile(workload::CorpusReferenceFile(corpus)));
  return server;
}

/// Rewrites the one-row ApplicablePolicy table to `policy_id`: the state
/// the paper's Figure 13 preamble sets up before running the literal rule
/// queries. The server never does this itself.
Status WriteApplicablePolicyRow(sqldb::Database* db, int64_t policy_id) {
  auto cleared = db->Execute("DELETE FROM ApplicablePolicy");
  if (!cleared.ok()) return cleared.status();
  return db->InsertRow("ApplicablePolicy", {Value::Integer(policy_id)});
}

Result<translator::SqlRuleset> LiteralRuleset(EngineKind engine,
                                              const appel::AppelRuleset& rs) {
  if (engine == EngineKind::kSqlSimple) {
    return translator::SimpleSqlTranslator().TranslateRuleset(rs);
  }
  return translator::OptimizedSqlTranslator().TranslateRuleset(rs);
}

// The correctness anchor of the bind-parameter path: for every preference
// level and policy, the server's match agrees on behavior and fired rule
// with the paper's literal translation run against a materialized row.
TEST(MatchReadonlyTest, ServerMatchesEqualLiteralTranslation) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : {EngineKind::kSql, EngineKind::kSqlSimple}) {
    std::vector<int64_t> ids;
    auto server = CorpusServer(engine, corpus, &ids);
    ASSERT_TRUE(server.ok()) << server.status();
    sqldb::Database* db = server.value()->database();

    for (PreferenceLevel level : workload::AllPreferenceLevels()) {
      auto pref = server.value()->CompilePreference(JrcPreference(level));
      ASSERT_TRUE(pref.ok()) << pref.status();
      auto literal = LiteralRuleset(engine, JrcPreference(level));
      ASSERT_TRUE(literal.ok()) << literal.status();
      for (int64_t id : ids) {
        auto match = server.value()->MatchPolicyId(pref.value(), id);
        ASSERT_TRUE(match.ok()) << match.status();

        ASSERT_TRUE(WriteApplicablePolicyRow(db, id).ok());
        std::string behavior = appel::kDefaultBehavior;
        int fired = -1;
        for (size_t i = 0; i < literal.value().rule_queries.size(); ++i) {
          auto rows = db->Execute(literal.value().rule_queries[i]);
          ASSERT_TRUE(rows.ok()) << rows.status();
          if (!rows.value().rows.empty()) {
            behavior = rows.value().rows[0][0].AsText();
            fired = static_cast<int>(i);
            break;
          }
        }
        EXPECT_EQ(match.value().behavior, behavior);
        EXPECT_EQ(match.value().fired_rule_index, fired);
      }
    }
  }
}

// A bound parameterized query returns exactly the rows of the literal
// translation, for both the Figure 11 and the Figure 15 translators,
// against the same materialized database state.
TEST(MatchReadonlyTest, PreparedWithParamsMatchesLiteralQueryRows) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : {EngineKind::kSqlSimple, EngineKind::kSql}) {
    std::vector<int64_t> ids;
    auto server = CorpusServer(engine, corpus, &ids);
    ASSERT_TRUE(server.ok()) << server.status();
    const appel::AppelRule rule = workload::JaneSimplifiedFirstRule();

    std::string literal_sql, param_sql;
    if (engine == EngineKind::kSqlSimple) {
      auto lit = translator::SimpleSqlTranslator().TranslateRule(rule);
      ASSERT_TRUE(lit.ok()) << lit.status();
      auto par = translator::SimpleSqlTranslator(/*parameterized=*/true)
                     .TranslateRule(rule);
      ASSERT_TRUE(par.ok()) << par.status();
      literal_sql = lit.value();
      param_sql = par.value();
    } else {
      auto lit = translator::OptimizedSqlTranslator().TranslateRule(rule);
      ASSERT_TRUE(lit.ok()) << lit.status();
      auto par = translator::OptimizedSqlTranslator(/*parameterized=*/true)
                     .TranslateRule(rule);
      ASSERT_TRUE(par.ok()) << par.status();
      literal_sql = lit.value();
      param_sql = par.value();
    }

    sqldb::Database* db = server.value()->database();
    auto prepared = db->Prepare(param_sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    ASSERT_EQ(prepared.value().param_count(), 1u);

    int fired = 0;
    for (int64_t id : ids) {
      ASSERT_TRUE(WriteApplicablePolicyRow(db, id).ok());
      auto literal = db->Execute(literal_sql);
      ASSERT_TRUE(literal.ok()) << literal.status();
      auto bound = prepared.value().Execute({Value::Integer(id)});
      ASSERT_TRUE(bound.ok()) << bound.status();
      ASSERT_EQ(literal.value().rows.size(), bound.value().rows.size());
      for (size_t r = 0; r < literal.value().rows.size(); ++r) {
        EXPECT_EQ(literal.value().rows[r], bound.value().rows[r]);
      }
      if (!bound.value().rows.empty()) ++fired;
    }
    // Guard against a vacuously-passing comparison: the Jane rule must
    // fire against some of the corpus and stay silent against some.
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, static_cast<int>(ids.size()));
  }
}

// Acceptance criterion of the read-only path: with record_matches off, a
// match changes no table — neither live row counts nor tombstones — and
// ApplicablePolicy holds exactly the anchor row installed at bootstrap.
TEST(MatchReadonlyTest, MatchMutatesNoTableWhenNotRecording) {
  std::vector<p3p::Policy> corpus = workload::FortuneCorpus();
  for (EngineKind engine : kSqlEngines) {
    SCOPED_TRACE(EngineKindName(engine));
    std::vector<int64_t> ids;
    auto server = CorpusServer(engine, corpus, &ids);
    ASSERT_TRUE(server.ok()) << server.status();
    auto pref = server.value()->CompilePreference(
        JrcPreference(PreferenceLevel::kHigh));
    ASSERT_TRUE(pref.ok()) << pref.status();

    sqldb::Database* db = server.value()->database();
    auto table_state = [db] {
      std::vector<std::pair<std::string, std::pair<size_t, size_t>>> state;
      for (const std::string& name : db->TableNames()) {
        const sqldb::Table* table = db->LookupTable(name);
        size_t live = 0;
        for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
          if (table->IsLive(slot)) ++live;
        }
        state.emplace_back(name, std::make_pair(table->SlotCount(), live));
      }
      return state;
    };

    const auto before = table_state();
    for (int64_t id : ids) {
      ASSERT_TRUE(server.value()->MatchPolicyId(pref.value(), id).ok());
    }
    for (const p3p::Policy& policy : corpus) {
      ASSERT_TRUE(server.value()
                      ->MatchUri(pref.value(), "/" + policy.name + "/x")
                      .ok());
      ASSERT_TRUE(server.value()
                      ->MatchCookie(pref.value(), "/" + policy.name + "/x")
                      .ok());
    }
    EXPECT_EQ(table_state(), before);

    auto anchor = db->Execute("SELECT policy_id FROM ApplicablePolicy");
    ASSERT_TRUE(anchor.ok()) << anchor.status();
    ASSERT_EQ(anchor.value().rows.size(), 1u);
    EXPECT_EQ(anchor.value().rows[0][0].AsInteger(), 0);
  }
}

}  // namespace
}  // namespace p3pdb::server
