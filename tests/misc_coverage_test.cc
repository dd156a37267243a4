// Cross-cutting coverage: parser surface for UPDATE/EXPLAIN, XML mixed
// content, APPEL serialization round-trips with every connective, the
// prepared-statement server mode, and random-preference well-formedness.

#include <gtest/gtest.h>

#include "appel/model.h"
#include "common/random.h"
#include "common/string_util.h"
#include "server/policy_server.h"
#include "sqldb/parser.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"
#include "workload/paper_examples.h"
#include "workload/random_preferences.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace p3pdb {
namespace {

TEST(ParserSurfaceTest, UpdateStatement) {
  auto stmt = sqldb::ParseStatement(
      "UPDATE t SET a = 1, b = 'x' WHERE c IS NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& update = static_cast<const sqldb::UpdateStmt&>(*stmt.value());
  EXPECT_EQ(update.table_name, "t");
  ASSERT_EQ(update.assignments.size(), 2u);
  EXPECT_EQ(update.assignments[0].column, "a");
  ASSERT_NE(update.where, nullptr);
  EXPECT_FALSE(sqldb::ParseStatement("UPDATE t SET").ok());
  EXPECT_FALSE(sqldb::ParseStatement("UPDATE t a = 1").ok());
  EXPECT_FALSE(sqldb::ParseStatement("UPDATE SET a = 1").ok());
}

TEST(ParserSurfaceTest, ExplainStatement) {
  auto stmt = sqldb::ParseStatement("EXPLAIN SELECT 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt.value()->kind, sqldb::StatementKind::kExplain);
  EXPECT_FALSE(sqldb::ParseStatement("EXPLAIN DELETE FROM t").ok());
}

TEST(ParserSurfaceTest, LikeEscapeClause) {
  auto stmt = sqldb::ParseStatement(
      "SELECT 1 FROM t WHERE a LIKE '10\\%' ESCAPE '\\'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = static_cast<const sqldb::SelectStmt&>(*stmt.value());
  const auto& like = static_cast<const sqldb::LikeExpr&>(*select.where);
  EXPECT_EQ(like.escape_char, '\\');
  // ToSql round-trips the ESCAPE clause.
  EXPECT_NE(select.ToSql().find("ESCAPE"), std::string::npos);
  EXPECT_FALSE(
      sqldb::ParseStatement("SELECT 1 FROM t WHERE a LIKE 'x' ESCAPE 'ab'")
          .ok());
}

TEST(XmlMixedContentTest, TextAroundChildrenIsConcatenated) {
  auto doc = xml::Parse("<c>We collect <b>name</b> and address.</c>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value().root->text(), "We collect  and address.");
  ASSERT_EQ(doc.value().root->ChildCount(), 1u);
  EXPECT_EQ(doc.value().root->children()[0]->text(), "name");
}

TEST(XmlMixedContentTest, WriterHandlesTextPlusChildren) {
  xml::Element root("t");
  root.set_text("hello");
  root.AddChild("child");
  std::string out = xml::Write(root, {.indent = true, .prolog = false});
  auto again = xml::Parse(out);
  ASSERT_TRUE(again.ok()) << again.status() << "\n" << out;
  EXPECT_EQ(p3pdb::Trim(again.value().root->text()), "hello");
  EXPECT_EQ(again.value().root->ChildCount(), 1u);
}

TEST(AppelRoundTripTest, EveryConnectiveSurvivesSerialization) {
  using appel::Connective;
  for (Connective c :
       {Connective::kAnd, Connective::kOr, Connective::kNonAnd,
        Connective::kNonOr, Connective::kAndExact, Connective::kOrExact}) {
    appel::AppelRuleset rs;
    appel::AppelRule rule;
    rule.behavior = "block";
    rule.description = "why this rule exists";
    appel::AppelExpr purpose;
    purpose.name = "PURPOSE";
    purpose.connective = c;
    appel::AppelExpr v;
    v.name = "telemarketing";
    purpose.children.push_back(std::move(v));
    appel::AppelExpr statement;
    statement.name = "STATEMENT";
    statement.children.push_back(std::move(purpose));
    appel::AppelExpr policy;
    policy.name = "POLICY";
    policy.children.push_back(std::move(statement));
    rule.expressions.push_back(std::move(policy));
    rs.rules.push_back(std::move(rule));
    appel::AppelRule catch_all;
    catch_all.behavior = "request";
    rs.rules.push_back(std::move(catch_all));

    auto parsed = appel::RulesetFromText(appel::RulesetToText(rs));
    ASSERT_TRUE(parsed.ok()) << appel::ConnectiveToString(c) << ": "
                             << parsed.status();
    const appel::AppelExpr& round =
        parsed.value().rules[0].expressions[0].children[0].children[0];
    EXPECT_EQ(round.connective, c) << appel::ConnectiveToString(c);
    EXPECT_EQ(parsed.value().rules[0].description, "why this rule exists");
  }
}

TEST(OtherwiseTest, NestedInsideFinalRuleAsInFigure2) {
  // The paper's Figure 2 shows <appel:OTHERWISE/> nested inside the final
  // request rule; the marker is consumed and the rule becomes a catch-all.
  auto parsed = appel::RulesetFromText(
      "<appel:RULESET xmlns:appel=\"http://www.w3.org/2002/04/APPELv1\">"
      "<appel:RULE behavior=\"request\"><appel:OTHERWISE/></appel:RULE>"
      "</appel:RULESET>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().RuleCount(), 1u);
  EXPECT_TRUE(parsed.value().rules[0].IsCatchAll());
  EXPECT_EQ(parsed.value().rules[0].behavior, "request");
}

TEST(OtherwiseTest, BareAtRulesetLevel) {
  auto parsed = appel::RulesetFromText(
      "<appel:RULESET><appel:RULE behavior=\"block\"><POLICY/></appel:RULE>"
      "<appel:OTHERWISE/></appel:RULESET>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().RuleCount(), 2u);
  EXPECT_TRUE(parsed.value().rules[1].IsCatchAll());
  EXPECT_EQ(parsed.value().rules[1].behavior, "request");
}

TEST(RandomPreferenceTest, GeneratedRulesetsAreWellFormed) {
  Random rng(20030704);
  workload::RandomPreferenceOptions options;
  options.allow_exact_connectives = true;
  for (int i = 0; i < 50; ++i) {
    appel::AppelRuleset rs = workload::RandomPreference(&rng, options);
    ASSERT_TRUE(rs.Validate().ok());
    ASSERT_GE(rs.RuleCount(), 2u);
    EXPECT_TRUE(rs.rules.back().IsCatchAll());
    // Serialization round-trip preserves structure.
    auto parsed = appel::RulesetFromText(appel::RulesetToText(rs));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value().ExpressionCount(), rs.ExpressionCount());
  }
}

}  // namespace
}  // namespace p3pdb
