// Tests for EXPLAIN and EXPLAIN ANALYZE: the plan must reflect the
// executor's actual access-path choices (index point lookups vs sequential
// scans) and the subquery nesting of the generated APPEL queries; ANALYZE
// additionally attaches per-node actual rows/loops/elapsed time and bound
// parameter values.

#include <gtest/gtest.h>

#include "appel/model.h"
#include "common/string_util.h"
#include "sqldb/database.h"
#include "workload/paper_examples.h"

#include "server/policy_server.h"

namespace p3pdb::sqldb {
namespace {

std::string PlanText(const Result<QueryResult>& result,
                     const std::string& sql) {
  EXPECT_TRUE(result.ok()) << result.status() << "\nSQL: " << sql;
  std::string plan;
  if (result.ok()) {
    for (const Row& row : result.value().rows) {
      plan += row[0].AsText();
      plan += "\n";
    }
  }
  return plan;
}

std::string Plan(Database* db, const std::string& sql) {
  return PlanText(db->Execute("EXPLAIN " + sql), sql);
}

std::string AnalyzePlan(Database* db, const std::string& sql,
                        const std::vector<Value>& params = {}) {
  return PlanText(db->Execute("EXPLAIN ANALYZE " + sql, params), sql);
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// Strips the ANALYZE decorations so the remaining text is the structural
/// plan, comparable to plain EXPLAIN output.
std::string StripActuals(const std::string& plan) {
  std::string out;
  for (size_t i = 0; i < plan.size();) {
    size_t actual = plan.find(" (actual rows=", i);
    size_t never = plan.find(" (never executed)", i);
    size_t cut = std::min(actual, never);
    if (cut == std::string::npos) {
      out += plan.substr(i);
      break;
    }
    out += plan.substr(i, cut - i);
    i = plan.find(')', cut);
    if (i == std::string::npos) break;
    ++i;
  }
  return out;
}

TEST(ExplainTest, SeqScanWithoutIndex) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  std::string plan = Plan(&db, "SELECT * FROM t WHERE a = 1");
  EXPECT_NE(plan.find("scan t (seq scan)"), std::string::npos) << plan;
}

TEST(ExplainTest, IndexLookupWithPrimaryKey) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE t (a INTEGER, PRIMARY KEY (a));")
                  .ok());
  std::string plan = Plan(&db, "SELECT * FROM t WHERE a = 1");
  EXPECT_NE(plan.find("index pk_t on a"), std::string::npos) << plan;
}

TEST(ExplainTest, NonEqualityPredicateCannotUseIndex) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE t (a INTEGER, PRIMARY KEY (a));")
                  .ok());
  std::string plan = Plan(&db, "SELECT * FROM t WHERE a > 1");
  EXPECT_NE(plan.find("seq scan"), std::string::npos) << plan;
}

TEST(ExplainTest, CorrelatedSubqueryShowsIndexProbe) {
  // Planner off: pins the correlated fallback plan (re-executed subquery
  // probing the secondary index), which non-rewritable EXISTS still use.
  Database db(Database::Options{.enable_planner = false});
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
                    "CREATE TABLE s (pid INTEGER);"
                    "CREATE INDEX s_pid ON s (pid);")
                  .ok());
  std::string plan = Plan(
      &db,
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)");
  EXPECT_NE(plan.find("scan p (seq scan)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("exists-subquery"), std::string::npos) << plan;
  EXPECT_NE(plan.find("index s_pid on pid"), std::string::npos) << plan;
}

TEST(ExplainTest, PlannerRewritesExistsToHashSemiJoin) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
                    "CREATE TABLE s (pid INTEGER);"
                    "CREATE INDEX s_pid ON s (pid);")
                  .ok());
  std::string plan = Plan(
      &db,
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)");
  EXPECT_NE(plan.find("hash-semi-join on s.pid = p.id"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("exists-subquery"), std::string::npos) << plan;

  std::string anti = Plan(
      &db,
      "SELECT * FROM p WHERE NOT EXISTS "
      "(SELECT * FROM s WHERE s.pid = p.id)");
  EXPECT_NE(anti.find("hash-anti-join on s.pid = p.id"), std::string::npos)
      << anti;

  // A non-equality correlation is not decorrelated: correlated fallback.
  std::string fallback = Plan(
      &db,
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid < p.id)");
  EXPECT_NE(fallback.find("exists-subquery"), std::string::npos) << fallback;
  EXPECT_EQ(fallback.find("hash-semi-join"), std::string::npos) << fallback;
}

TEST(ExplainTest, DecorationsAppear) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  std::string plan = Plan(
      &db, "SELECT DISTINCT a, COUNT(*) FROM t GROUP BY a ORDER BY a LIMIT 3");
  EXPECT_NE(plan.find("distinct"), std::string::npos) << plan;
  EXPECT_NE(plan.find("hash aggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("sort"), std::string::npos) << plan;
  EXPECT_NE(plan.find("limit 3"), std::string::npos) << plan;
}

TEST(ExplainTest, GeneratedAppelQueryPlanIsFullyIndexed) {
  // The paper's core performance claim visualized: every parent-child join
  // in the translated Jane rule is served by an index; the only sequential
  // scan is the one-row ApplicablePolicy table. Planner off: hash-join
  // builds deliberately full-scan their table once, so this correlated
  // plan shape only exists on the fallback path.
  auto server = server::PolicyServer::Create(
      {.engine = server::EngineKind::kSql, .enable_planner = false});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(
      server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  auto pref =
      server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  std::string plan =
      Plan(server.value()->database(), pref.value().sql.rule_queries[0]);
  // One seq scan (ApplicablePolicy), everything else indexed.
  size_t seq_scans = 0, pos = 0;
  while ((pos = plan.find("(seq scan)", pos)) != std::string::npos) {
    ++seq_scans;
    pos += 1;
  }
  EXPECT_EQ(seq_scans, 1u) << plan;
  EXPECT_NE(plan.find("scan ApplicablePolicy (seq scan)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("index pk_Policy"), std::string::npos) << plan;
  EXPECT_NE(plan.find("index idx_statement_policy"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("index idx_purpose_stmt"), std::string::npos) << plan;
}

// -- plan goldens: the planner must decorrelate the translated rule
// queries of both schema generations into hash joins. The outermost EXISTS
// stays correlated by design: its subquery carries the `?` policy-id
// parameter, and cached key sets must be parameter-independent.

TEST(ExplainTest, Fig15RuleQueryPlanUsesHashSemiJoins) {
  auto server =
      server::PolicyServer::Create({.engine = server::EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  std::string plan =
      Plan(server.value()->database(), pref.value().sql.rule_queries[0]);
  EXPECT_NE(plan.find("hash-semi-join on Statement.policy_id = "
                      "Policy.policy_id"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("hash-semi-join on Purpose.policy_id = "
                      "Statement.policy_id, Purpose.statement_id = "
                      "Statement.statement_id"),
            std::string::npos)
      << plan;
  // Only the parameterized outer subquery keeps the correlated form.
  EXPECT_EQ(CountOf(plan, "exists-subquery"), 1u) << plan;
}

TEST(ExplainTest, Fig11RuleQueryPlanUsesHashSemiJoins) {
  auto server = server::PolicyServer::Create(
      {.engine = server::EngineKind::kSqlSimple});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  std::string plan =
      Plan(server.value()->database(), pref.value().sql.rule_queries[0]);
  // The simple schema's one-table-per-vocabulary-value shape: Statement,
  // Purpose, and every per-value table (Admin, Contact, ...) decorrelate.
  EXPECT_NE(plan.find("hash-semi-join on Statement.policy_id = "
                      "Policy.policy_id"),
            std::string::npos)
      << plan;
  EXPECT_GE(CountOf(plan, "hash-semi-join"), 4u) << plan;
  EXPECT_EQ(CountOf(plan, "exists-subquery"), 1u) << plan;
}

TEST(ExplainTest, OrExactRuleQueryPlanUsesHashAntiJoin) {
  // The or-exact connective adds the closure clause — "no purpose row
  // OTHER than the listed ones" — a correlated NOT EXISTS the planner
  // turns into a hash anti-join.
  appel::AppelRule rule = workload::JaneSimplifiedFirstRule();
  ASSERT_EQ(rule.expressions.size(), 1u);        // POLICY
  ASSERT_EQ(rule.expressions[0].children.size(), 1u);  // STATEMENT
  appel::AppelExpr& purpose = rule.expressions[0].children[0].children[0];
  ASSERT_EQ(purpose.name, "PURPOSE");
  purpose.connective = appel::Connective::kOrExact;
  appel::AppelRuleset ruleset;
  ruleset.rules.push_back(std::move(rule));

  auto server =
      server::PolicyServer::Create({.engine = server::EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->InstallPolicy(workload::VolgaPolicy()).ok());
  auto pref = server.value()->CompilePreference(ruleset);
  ASSERT_TRUE(pref.ok()) << pref.status();
  std::string plan =
      Plan(server.value()->database(), pref.value().sql.rule_queries[0]);
  EXPECT_NE(plan.find("hash-anti-join on Purpose.policy_id = "
                      "Statement.policy_id, Purpose.statement_id = "
                      "Statement.statement_id"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("hash-semi-join"), std::string::npos) << plan;
}

// -- cost-model plan-flip goldens: same SQL, same schema, different data
// shape => different plan. Each case pins both sides of the flip by running
// one database with the cost model and one without (rule-only).

TEST(ExplainTest, CostModelKeepsCorrelatedExistsWhenBuildDwarfsOuter) {
  // 3 outer rows vs a 400-row indexed build side: materializing the key set
  // enumerates 400 rows to answer 3 probes, while the correlated plan does
  // 3 point lookups on s_pid. The cost model vetoes the rewrite; the
  // rule-only planner takes it unconditionally.
  const char* schema =
      "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
      "CREATE TABLE s (pid INTEGER);"
      "CREATE INDEX s_pid ON s (pid);";
  const std::string sql =
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)";

  Database cost;  // cost model on by default
  ASSERT_TRUE(cost.ExecuteScript(schema).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cost.InsertRow("p", {Value::Integer(i)}).ok());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cost.InsertRow("s", {Value::Integer(i % 40)}).ok());
  }
  std::string costed = Plan(&cost, sql);
  EXPECT_NE(costed.find("exists-subquery"), std::string::npos) << costed;
  EXPECT_EQ(costed.find("hash-semi-join"), std::string::npos) << costed;
  EXPECT_NE(costed.find("index s_pid on pid"), std::string::npos) << costed;

  Database rule(Database::Options{.enable_cost_model = false});
  ASSERT_TRUE(rule.ExecuteScript(schema).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rule.InsertRow("p", {Value::Integer(i)}).ok());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(rule.InsertRow("s", {Value::Integer(i % 40)}).ok());
  }
  std::string ruled = Plan(&rule, sql);
  EXPECT_NE(ruled.find("hash-semi-join on s.pid = p.id"), std::string::npos)
      << ruled;
  EXPECT_EQ(ruled.find("exists-subquery"), std::string::npos) << ruled;

  // Both plans return the identical rows.
  auto cost_rows = cost.Execute(sql);
  auto rule_rows = rule.Execute(sql);
  ASSERT_TRUE(cost_rows.ok());
  ASSERT_TRUE(rule_rows.ok());
  EXPECT_EQ(cost_rows.value().rows.size(), rule_rows.value().rows.size());
  EXPECT_GT(cost.stats().cost_exists_kept, 0u);
}

TEST(ExplainTest, RangeSelectivityInterpolationFlipsExistsRewrite) {
  // Golden plan-flip for min/max range interpolation. s has 400 rows with
  // val uniform over 1..100; p has 8. Under the old constant 1/3 range
  // guess, any `s.val > X` build side estimates 133 rows — past the 8x veto
  // threshold (64), so the correlated plan is always kept. Interpolating X
  // against the observed [1, 100] span estimates ~20 rows for X=95, which
  // is under the threshold, so the narrow predicate now flips the plan to
  // the hash-semi-join while the wide one (X=40, ~242 rows) still keeps
  // the correlated point-lookup plan.
  const char* schema =
      "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
      "CREATE TABLE s (pid INTEGER, val INTEGER);"
      "CREATE INDEX s_pid ON s (pid);";
  Database db;  // cost model on by default
  ASSERT_TRUE(db.ExecuteScript(schema).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.InsertRow("p", {Value::Integer(i)}).ok());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.InsertRow("s", {Value::Integer(i % 40),
                                   Value::Integer(i % 100 + 1)})
                    .ok());
  }
  const std::string narrow =
      "SELECT * FROM p WHERE EXISTS "
      "(SELECT * FROM s WHERE s.pid = p.id AND s.val > 95)";
  const std::string wide =
      "SELECT * FROM p WHERE EXISTS "
      "(SELECT * FROM s WHERE s.pid = p.id AND s.val > 40)";

  std::string narrow_plan = Plan(&db, narrow);
  EXPECT_NE(narrow_plan.find("hash-semi-join on s.pid = p.id"),
            std::string::npos)
      << narrow_plan;
  EXPECT_EQ(narrow_plan.find("exists-subquery"), std::string::npos)
      << narrow_plan;

  std::string wide_plan = Plan(&db, wide);
  EXPECT_NE(wide_plan.find("exists-subquery"), std::string::npos)
      << wide_plan;
  EXPECT_EQ(wide_plan.find("hash-semi-join"), std::string::npos) << wide_plan;

  // The flip is a cost choice, not a semantic one: both shapes return the
  // same rows as the rule-only planner's unconditional rewrite.
  Database rule(Database::Options{.enable_cost_model = false});
  ASSERT_TRUE(rule.ExecuteScript(schema).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rule.InsertRow("p", {Value::Integer(i)}).ok());
  }
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(rule.InsertRow("s", {Value::Integer(i % 40),
                                     Value::Integer(i % 100 + 1)})
                    .ok());
  }
  for (const std::string& sql : {narrow, wide}) {
    auto cost_rows = db.Execute(sql);
    auto rule_rows = rule.Execute(sql);
    ASSERT_TRUE(cost_rows.ok());
    ASSERT_TRUE(rule_rows.ok());
    EXPECT_EQ(cost_rows.value().rows.size(), rule_rows.value().rows.size())
        << sql;
  }
}

TEST(ExplainTest, CostModelForcesSeqScanOnLowCardinalityIndex) {
  // An index on a 2-value column: the syntactic planner always takes it,
  // but the lookup returns ~half the table — more work than scanning. With
  // statistics, NDV=2 => selectivity 1/2 >= the seq-force threshold.
  const char* schema =
      "CREATE TABLE t (flag INTEGER, v INTEGER);"
      "CREATE INDEX t_flag ON t (flag);";
  const std::string sql = "SELECT * FROM t WHERE flag = 1";

  Database cost;
  ASSERT_TRUE(cost.ExecuteScript(schema).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cost.InsertRow("t", {Value::Integer(i % 2), Value::Integer(i)}).ok());
  }
  std::string costed = Plan(&cost, sql);
  EXPECT_NE(costed.find("scan t (seq scan) (est rows=100, seq-forced)"),
            std::string::npos)
      << costed;
  EXPECT_EQ(costed.find("index t_flag"), std::string::npos) << costed;
  EXPECT_GT(cost.stats().cost_seq_forced, 0u);

  Database rule(Database::Options{.enable_cost_model = false});
  ASSERT_TRUE(rule.ExecuteScript(schema).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        rule.InsertRow("t", {Value::Integer(i % 2), Value::Integer(i)}).ok());
  }
  std::string ruled = Plan(&rule, sql);
  EXPECT_NE(ruled.find("index t_flag on flag"), std::string::npos) << ruled;
  EXPECT_EQ(ruled.find("seq-forced"), std::string::npos) << ruled;

  // Row-identical either way.
  auto cost_rows = cost.Execute(sql);
  auto rule_rows = rule.Execute(sql);
  ASSERT_TRUE(cost_rows.ok());
  ASSERT_TRUE(rule_rows.ok());
  EXPECT_EQ(cost_rows.value().rows.size(), 50u);
  EXPECT_EQ(rule_rows.value().rows.size(), 50u);

  // A near-unique key on the same schema keeps its index: the flip is
  // driven by the data, not the shape of the SQL.
  std::string selective = Plan(&cost, "SELECT * FROM t WHERE v = 7");
  EXPECT_EQ(selective.find("seq-forced"), std::string::npos) << selective;
}

TEST(ExplainAnalyzeTest, EstimatedVersusActualRows) {
  // The est-vs-actual golden: a unique key estimates 1 row and finds 1; a
  // seq scan estimates the full table and visits it.
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a));")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db.InsertRow("t", {Value::Integer(i), Value::Integer(i / 10)}).ok());
  }
  std::string point = AnalyzePlan(&db, "SELECT * FROM t WHERE a = 7");
  EXPECT_NE(point.find("(est rows=1) (actual rows=1 loops=1"),
            std::string::npos)
      << point;
  std::string scan = AnalyzePlan(&db, "SELECT * FROM t WHERE b = 2");
  EXPECT_NE(scan.find("(est rows=50) (actual rows=50 loops=1"),
            std::string::npos)
      << scan;
}

TEST(ExplainTest, ExplainValidates) {
  Database db;
  EXPECT_FALSE(db.Execute("EXPLAIN SELECT * FROM missing").ok());
  EXPECT_FALSE(db.Execute("EXPLAIN INSERT INTO t VALUES (1)").ok());
}

TEST(ExplainAnalyzeTest, ReportsActualRowsAndLoops) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                               "INSERT INTO t VALUES (1);"
                               "INSERT INTO t VALUES (2);"
                               "INSERT INTO t VALUES (3);")
                  .ok());
  std::string plan = AnalyzePlan(&db, "SELECT * FROM t WHERE a >= 2");
  EXPECT_NE(plan.find("select (actual rows=2 loops=1"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("scan t (seq scan) (est rows=3) (actual rows=3 loops=1"),
            std::string::npos)
      << plan;
  // Elapsed time is attached (value not pinned — timings are not
  // deterministic).
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
}

TEST(ExplainAnalyzeTest, CorrelatedSubqueryShowsLoops) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
                    "CREATE TABLE s (pid INTEGER);"
                    "INSERT INTO p VALUES (1); INSERT INTO p VALUES (2);"
                    "INSERT INTO s VALUES (1);")
                  .ok());
  std::string plan = AnalyzePlan(
      &db,
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)");
  // The subquery re-executes once per outer row: loops=2.
  EXPECT_NE(plan.find("loops=2"), std::string::npos) << plan;
}

TEST(ExplainAnalyzeTest, VectorizedScanReportsBatchActuals) {
  Database::Options options;
  options.enable_vectorized_executor = true;
  Database db(options);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  // 64 rows: the adaptive ramp emits a 32-row first chunk and a 32-row
  // second chunk, both past the small-scan cutoff.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i)}).ok());
  }
  const std::string sql = "SELECT * FROM t WHERE a >= 32";
  std::string plan = AnalyzePlan(&db, sql);
  // Golden batch actuals: 2 chunks, 32 rows each, half the rows pass.
  EXPECT_NE(plan.find("batches=2 rows/batch=32.0 selectivity=50.0%"),
            std::string::npos)
      << plan;
  EXPECT_NE(
      plan.find("scan t (seq scan) (est rows=64) (actual rows=64 loops=1"),
      std::string::npos)
      << plan;
  // Stripping the actuals recovers the structural EXPLAIN plan.
  EXPECT_EQ(StripActuals(plan), Plan(&db, sql));

  // The scalar executor renders the same structural plan with no batch
  // decorations.
  Database::Options scalar_options;
  scalar_options.enable_vectorized_executor = false;
  Database scalar(scalar_options);
  ASSERT_TRUE(scalar.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(scalar.InsertRow("t", {Value::Integer(i)}).ok());
  }
  std::string scalar_plan = AnalyzePlan(&scalar, sql);
  EXPECT_EQ(scalar_plan.find("batches="), std::string::npos) << scalar_plan;
  EXPECT_EQ(StripActuals(scalar_plan), StripActuals(plan));
}

TEST(ExplainAnalyzeTest, ExistsInsideAggregateRunsUnderEverySetting) {
  // EXPLAIN ANALYZE executes the EXISTS under COUNT once per row of t,
  // through scans the planner annotated; the structural plan matches EXPLAIN
  // under every executor setting.
  const std::string sql =
      "SELECT COUNT(EXISTS (SELECT * FROM u WHERE u.k = t.a)), "
      "COUNT(EXISTS (SELECT * FROM u WHERE u.v >= 20)) FROM t";
  for (bool vectorized : {false, true}) {
    for (bool cost_model : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "vectorized=" << vectorized
                                        << " cost_model=" << cost_model);
      Database db(Database::Options{.enable_cost_model = cost_model,
                                    .enable_vectorized_executor = vectorized});
      ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                                   "CREATE TABLE u (k INTEGER, v INTEGER);"
                                   "CREATE INDEX u_k ON u (k);")
                      .ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(db.InsertRow("t", {Value::Integer(i)}).ok());
      }
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            db.InsertRow("u", {Value::Integer(i % 5), Value::Integer(i)})
                .ok());
      }
      const std::string plan = Plan(&db, sql);
      EXPECT_NE(plan.find("scan t (seq scan)"), std::string::npos) << plan;
      const std::string analyzed = AnalyzePlan(&db, sql);
      EXPECT_NE(analyzed.find("select (actual rows=1 loops=1"),
                std::string::npos)
          << analyzed;
      EXPECT_EQ(StripActuals(analyzed), plan);
    }
  }
}

TEST(ExplainAnalyzeTest, AnnotatesBoundParameterValues) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE t (a INTEGER, PRIMARY KEY (a));"
                    "INSERT INTO t VALUES (7);")
                  .ok());
  std::string plan =
      AnalyzePlan(&db, "SELECT * FROM t WHERE a = ?", {Value::Integer(7)});
  EXPECT_NE(plan.find("index pk_t on a = ?[=7]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("actual rows=1"), std::string::npos) << plan;
  // Plain EXPLAIN of the same statement keeps the placeholder abstract.
  std::string unbound = Plan(&db, "SELECT * FROM t WHERE a = ?");
  EXPECT_NE(unbound.find("index pk_t on a = ?"), std::string::npos) << unbound;
  EXPECT_EQ(unbound.find("?[="), std::string::npos) << unbound;
}

TEST(ExplainAnalyzeTest, MarksNeverExecutedNodes) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE p (id INTEGER);"
                    "CREATE TABLE s (pid INTEGER);")
                  .ok());
  // Outer table empty: the EXISTS subquery is never reached.
  std::string plan = AnalyzePlan(
      &db,
      "SELECT * FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)");
  EXPECT_NE(plan.find("(never executed)"), std::string::npos) << plan;
}

TEST(ExplainAnalyzeTest, RequiresExactParameters) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteScript("CREATE TABLE t (a INTEGER, PRIMARY KEY (a));").ok());
  // ANALYZE executes, so parameter values are mandatory; plain EXPLAIN
  // renders the plan without them.
  EXPECT_FALSE(db.Execute("EXPLAIN ANALYZE SELECT * FROM t WHERE a = ?").ok());
  EXPECT_FALSE(db.Execute("EXPLAIN ANALYZE SELECT * FROM t WHERE a = ?",
                          {Value::Integer(1), Value::Integer(2)})
                   .ok());
  EXPECT_TRUE(db.Execute("EXPLAIN SELECT * FROM t WHERE a = ?").ok());
}

TEST(ExplainAnalyzeTest, GeneratedAppelQueryStructureMatchesExplain) {
  // The acceptance case: EXPLAIN ANALYZE on a Figure 15 rule query. Pin the
  // node structure — every node annotated, the structural plan identical to
  // plain EXPLAIN — without pinning timings.
  auto server =
      server::PolicyServer::Create({.engine = server::EngineKind::kSql});
  ASSERT_TRUE(server.ok());
  auto policy_id = server.value()->InstallPolicy(workload::VolgaPolicy());
  ASSERT_TRUE(policy_id.ok());
  auto pref = server.value()->CompilePreference(workload::JanePreference());
  ASSERT_TRUE(pref.ok());
  const auto& sql = pref.value().sql;

  // Find a parameterized rule query (policy id arrives as a bind value).
  size_t rule = sql.rule_queries.size();
  for (size_t i = 0; i < sql.rule_queries.size(); ++i) {
    if (sql.param_counts[i] > 0) {
      rule = i;
      break;
    }
  }
  ASSERT_LT(rule, sql.rule_queries.size());
  std::vector<Value> params(sql.param_counts[rule],
                            Value::Integer(policy_id.value()));

  Database* db = server.value()->database();
  std::string analyzed = AnalyzePlan(db, sql.rule_queries[rule], params);

  // Every plan node line carries actuals (or an explicit never-executed
  // marker) — count annotations against node lines (subquery header lines
  // have no annotation of their own).
  size_t node_lines = 0;
  for (const std::string& line : Split(analyzed, '\n')) {
    if (line.empty()) continue;
    std::string trimmed = Trim(line);
    if (trimmed.rfind("select", 0) == 0 || trimmed.rfind("scan", 0) == 0 ||
        trimmed.rfind("hash-", 0) == 0) {
      ++node_lines;
    }
  }
  EXPECT_GT(node_lines, 2u) << analyzed;
  EXPECT_EQ(CountOf(analyzed, " (actual rows=") +
                CountOf(analyzed, " (never executed)"),
            node_lines)
      << analyzed;

  // The bound policy id is substituted into every index probe on it.
  EXPECT_NE(analyzed.find("?[=" + std::to_string(policy_id.value()) + "]"),
            std::string::npos)
      << analyzed;

  // Stripping the actuals recovers exactly the plain (bound) EXPLAIN plan:
  // ANALYZE changes annotations, never the plan shape.
  std::string plain = PlanText(
      db->Execute("EXPLAIN " + sql.rule_queries[rule], params),
      sql.rule_queries[rule]);
  EXPECT_EQ(StripActuals(analyzed), plain);
}

}  // namespace
}  // namespace p3pdb::sqldb
