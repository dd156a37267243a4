// Robustness (deterministic fuzz) tests: every parser in the system must
// reject arbitrary mutations of valid inputs with a Status — never crash,
// hang, or accept garbage silently as something it is not.

#include <gtest/gtest.h>

#include "appel/model.h"
#include "common/random.h"
#include "p3p/compact.h"
#include "p3p/policy_xml.h"
#include "p3p/reference_file.h"
#include "sqldb/database.h"
#include "sqldb/parser.h"
#include "workload/paper_examples.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/parser.h"

namespace p3pdb {
namespace {

/// Applies `count` random byte-level mutations (replace, insert, delete,
/// truncate) to `input`.
std::string Mutate(Random* rng, std::string input, int count) {
  static constexpr char kBytes[] =
      "<>/=\"'&;%_*[]() abcXYZ012\t\n\\#@!{}";
  for (int i = 0; i < count && !input.empty(); ++i) {
    size_t pos = rng->Uniform(input.size());
    switch (rng->Uniform(4)) {
      case 0:
        input[pos] = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
        break;
      case 1:
        input.insert(pos, 1, kBytes[rng->Uniform(sizeof(kBytes) - 1)]);
        break;
      case 2:
        input.erase(pos, 1 + rng->Uniform(3));
        break;
      default:
        input.resize(pos);  // truncate
        break;
    }
  }
  return input;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(101, 202, 303));

TEST_P(FuzzTest, XmlParserNeverCrashes) {
  Random rng(GetParam());
  std::string base = workload::VolgaPolicyXml();
  for (int i = 0; i < 400; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 8));
    auto result = xml::Parse(mutated);  // ok or error, never UB
    if (result.ok()) {
      // Whatever parsed must serialize and re-parse.
      std::string again = xml::Write(*result.value().root);
      EXPECT_TRUE(xml::Parse(again).ok());
    }
  }
}

TEST_P(FuzzTest, PolicyParserNeverCrashes) {
  Random rng(GetParam() + 1);
  std::string base = workload::VolgaPolicyXml();
  for (int i = 0; i < 300; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 10));
    auto result = p3p::PolicyFromText(mutated);
    if (result.ok()) {
      // Accepted policies must at least re-serialize.
      (void)p3p::PolicyToText(result.value());
    }
  }
}

TEST_P(FuzzTest, AppelParserNeverCrashes) {
  Random rng(GetParam() + 2);
  std::string base = workload::JanePreferenceXml();
  for (int i = 0; i < 300; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 10));
    auto result = appel::RulesetFromText(mutated);
    if (result.ok()) {
      (void)appel::RulesetToText(result.value());
    }
  }
}

TEST_P(FuzzTest, SqlParserNeverCrashes) {
  Random rng(GetParam() + 3);
  const std::string base =
      "SELECT 'block' FROM ApplicablePolicy WHERE EXISTS (SELECT * FROM "
      "Purpose WHERE Purpose.policy_id = ApplicablePolicy.policy_id AND "
      "(Purpose.purpose = 'admin' OR Purpose.required = 'always')) "
      "ORDER BY 1 LIMIT 3";
  for (int i = 0; i < 400; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 8));
    auto result = sqldb::ParseStatement(mutated);
    if (result.ok()) {
      // Parsed statements render back to parseable SQL.
      if (result.value()->kind == sqldb::StatementKind::kSelect) {
        auto* select =
            static_cast<sqldb::SelectStmt*>(result.value().get());
        EXPECT_TRUE(sqldb::ParseStatement(select->ToSql()).ok())
            << select->ToSql();
      }
    }
  }
}

TEST_P(FuzzTest, XQueryParserNeverCrashes) {
  Random rng(GetParam() + 4);
  const std::string base =
      "if (document(\"applicable-policy\")[POLICY[STATEMENT[PURPOSE["
      "(admin) or (contact[@required = \"always\"])]]]]) then <block/> "
      "else ()";
  for (int i = 0; i < 400; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 8));
    auto result = xquery::ParseQuery(mutated);
    if (result.ok()) {
      EXPECT_TRUE(xquery::ParseQuery(result.value().ToString()).ok());
    }
  }
}

TEST_P(FuzzTest, CompactPolicyParserNeverCrashes) {
  Random rng(GetParam() + 5);
  const std::string base = "CAO DSP CUR IVDi CONi OUR SAM STP BUS ONL PHY";
  for (int i = 0; i < 400; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 6));
    auto result = p3p::ParseCompactPolicy(mutated);
    if (result.ok()) {
      (void)p3p::CompactPolicyToString(result.value());
    }
  }
}

TEST_P(FuzzTest, ReferenceFileParserNeverCrashes) {
  Random rng(GetParam() + 6);
  std::string base =
      p3p::ReferenceFileToText(workload::VolgaReferenceFile());
  for (int i = 0; i < 300; ++i) {
    std::string mutated = Mutate(&rng, base, rng.UniformInt(1, 8));
    auto result = p3p::ReferenceFileFromText(mutated);
    if (result.ok()) {
      (void)result.value().PolicyForPath("/x/y");
    }
  }
}

std::string NestedElements(size_t depth) {
  std::string doc;
  doc.reserve(depth * 7);
  for (size_t i = 0; i < depth; ++i) doc += "<a>";
  for (size_t i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

TEST(XmlDepthTest, DeepNestingIsAParseErrorNotAStackOverflow) {
  auto deep = xml::Parse(NestedElements(100000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
}

TEST(XmlDepthTest, NestingBudgetIs256Elements) {
  auto at_budget = xml::Parse(NestedElements(256));
  ASSERT_TRUE(at_budget.ok()) << at_budget.status();
  EXPECT_TRUE(xml::Parse(xml::Write(*at_budget.value().root)).ok());
  auto past_budget = xml::Parse(NestedElements(257));
  ASSERT_FALSE(past_budget.ok());
  EXPECT_EQ(past_budget.status().code(), StatusCode::kParseError);
}

std::string Repeat(std::string_view piece, size_t n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (size_t i = 0; i < n; ++i) out += piece;
  return out;
}

/// A SELECT whose WHERE nests `levels` expression levels deep: the WHERE
/// expression itself is level 1, and each parenthesis adds one.
std::string SqlNestedParens(size_t levels) {
  return "SELECT a FROM t WHERE " + Repeat("(", levels - 1) + "a = 1" +
         Repeat(")", levels - 1);
}

std::string SqlNotChain(size_t n) {
  return "SELECT a FROM t WHERE " + Repeat("NOT ", n) + "a = 1";
}

std::string SqlNestedExists(size_t n) {
  return "SELECT a FROM t WHERE " +
         Repeat("EXISTS (SELECT a FROM t WHERE ", n) + "a = 1" +
         Repeat(")", n);
}

std::string XQueryNestedParens(size_t n) {
  return "if (document(\"p\")[" + Repeat("(", n) + "POLICY" +
         Repeat(")", n) + "]) then <block/>";
}

void ExpectParseError(const Status& st) {
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st;
}

TEST(SqlDepthTest, DeepParenthesesAreAParseErrorNotAStackOverflow) {
  ExpectParseError(sqldb::ParseStatement(SqlNestedParens(100000)).status());
}

TEST(SqlDepthTest, DeepNotChainIsAParseErrorNotAStackOverflow) {
  ExpectParseError(sqldb::ParseStatement(SqlNotChain(100000)).status());
}

TEST(SqlDepthTest, DeepExistsNestingIsAParseErrorNotAStackOverflow) {
  ExpectParseError(sqldb::ParseStatement(SqlNestedExists(100000)).status());
}

TEST(SqlDepthTest, NestingBudgetIsKMaxExpressionDepthLevels) {
  const size_t budget = sqldb::kMaxExpressionDepth;
  auto at_budget = sqldb::ParseStatement(SqlNestedParens(budget));
  EXPECT_TRUE(at_budget.ok()) << at_budget.status();
  ExpectParseError(
      sqldb::ParseStatement(SqlNestedParens(budget + 1)).status());
}

TEST(SqlDepthTest, DatabaseStillAnswersAfterRejectingDeepInput) {
  sqldb::Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);"
                               "INSERT INTO t VALUES (1);")
                  .ok());
  ExpectParseError(db.Execute(SqlNestedExists(100000)).status());
  auto after = db.Execute("SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.value().rows.size(), 1u);
}

TEST(SqlSubqueryInDmlTest, ExistsInInsertValuesIsBoundNotACrash) {
  // INSERT evaluates its VALUES with no row context; an EXISTS there used to
  // scan a table the binder never resolved.
  sqldb::Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, b VARCHAR(5));"
                               "CREATE TABLE u (k INTEGER);"
                               "CREATE INDEX u_k ON u (k);"
                               "INSERT INTO u VALUES (1), (2);")
                  .ok());
  for (const char* sql : {
           "INSERT INTO t VALUES ((EXISTS (SELECT * FROM u)), 'x')",
           "INSERT INTO t (a) VALUES ((EXISTS (SELECT * FROM u)))",
           "INSERT INTO t VALUES ((NOT EXISTS (SELECT * FROM u WHERE k = "
           "2)), 'y'), (1, 'x')",
           "INSERT INTO t (a) VALUES ((EXISTS (SELECT * FROM u WHERE k = 1 "
           "AND EXISTS (SELECT * FROM u WHERE k = 2))))",
       }) {
    SCOPED_TRACE(sql);
    // A predicate's verdict is a BOOLEAN, which no column type stores.
    auto r = db.Execute(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status();
  }
  // Binding errors surface as Statuses too, before any row is inserted.
  auto missing = db.Execute(
      "INSERT INTO t (a) VALUES (2), ((EXISTS (SELECT * FROM nope)))");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto column = db.Execute("INSERT INTO t (a) VALUES (a)");
  ASSERT_FALSE(column.ok());
  EXPECT_EQ(column.status().code(), StatusCode::kNotFound);

  // UPDATE binds its SET expressions through the WHERE probe: the same
  // subquery answers cleanly there, and the table still serves reads and
  // writes afterwards.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (3, 'z')").ok());
  auto update = db.Execute("UPDATE t SET a = (EXISTS (SELECT * FROM u))");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument);
  auto correlated = db.Execute(
      "UPDATE t SET b = 'hit' WHERE EXISTS (SELECT * FROM u WHERE u.k = "
      "t.a)");
  ASSERT_TRUE(correlated.ok()) << correlated.status();
  EXPECT_EQ(correlated.value().rows_affected, 1);
  auto rows = db.Execute("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().rows.size(), 2u);
  EXPECT_EQ(rows.value().rows[0][1].AsText(), "hit");
  EXPECT_EQ(rows.value().rows[1][1].AsText(), "z");
}

TEST(XQueryDepthTest, DeepParenthesesAreAParseErrorNotAStackOverflow) {
  ExpectParseError(xquery::ParseQuery(XQueryNestedParens(100000)).status());
}

}  // namespace
}  // namespace p3pdb
