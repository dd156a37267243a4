// Bind-parameter (`?`) support: parse/bind/execute plumbing, unbound and
// miscounted rejection, index use, and prepared re-execution.

#include <gtest/gtest.h>

#include "sqldb/database.h"

namespace p3pdb::sqldb {
namespace {

class SqldbParamsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Album (
        album_id INTEGER NOT NULL,
        artist VARCHAR(64) NOT NULL,
        year INTEGER,
        PRIMARY KEY (album_id)
      );
    )sql")
                    .ok());
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(db_.InsertRow("Album",
                                {Value::Integer(i),
                                 Value::Text("artist-" + std::to_string(i % 4)),
                                 Value::Integer(1960 + i)})
                      .ok());
    }
  }

  Database db_;
};

TEST_F(SqldbParamsTest, UnparameterizedExecuteRejectsPlaceholder) {
  auto result = db_.Execute("SELECT * FROM Album WHERE album_id = ?");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("parameter"), std::string::npos)
      << result.status();
}

TEST_F(SqldbParamsTest, ExecuteWithParamsReturnsLiteralRows) {
  auto literal = db_.Execute("SELECT artist FROM Album WHERE album_id = 7");
  ASSERT_TRUE(literal.ok());
  auto bound = db_.Execute("SELECT artist FROM Album WHERE album_id = ?",
                           {Value::Integer(7)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound.value().rows.size(), literal.value().rows.size());
  EXPECT_EQ(bound.value().rows[0], literal.value().rows[0]);
}

TEST_F(SqldbParamsTest, ParamCountMismatchIsRejected) {
  auto prepared = db_.Prepare(
      "SELECT * FROM Album WHERE album_id = ? AND year = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared.value().param_count(), 2u);

  auto unbound = prepared.value().Execute();
  ASSERT_FALSE(unbound.ok());
  auto too_few = prepared.value().Execute({Value::Integer(3)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_NE(too_few.status().ToString().find("2 parameter"),
            std::string::npos)
      << too_few.status();
  auto too_many = prepared.value().Execute(
      {Value::Integer(3), Value::Integer(1963), Value::Integer(9)});
  ASSERT_FALSE(too_many.ok());

  auto exact = prepared.value().Execute(
      {Value::Integer(3), Value::Integer(1963)});
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact.value().rows.size(), 1u);

  // The SQL-text path fails the same way, traced or not, on a plan-cache
  // miss (the first submission) and on a hit (the repeat). Each mode gets
  // its own text so that each starts with a miss.
  obs::TraceContext trace;
  obs::TraceContext* const modes[] = {&trace, nullptr};
  for (obs::TraceContext* t : modes) {
    const std::string sql =
        std::string("SELECT * FROM Album WHERE album_id = ? AND year = ?") +
        (t == nullptr ? "" : " ");
    for (int pass = 0; pass < 2; ++pass) {
      auto text = db_.Execute(sql, {Value::Integer(3)}, t);
      ASSERT_FALSE(text.ok());
      EXPECT_EQ(text.status().ToString(), too_few.status().ToString());
    }
  }
}

TEST_F(SqldbParamsTest, ExecuteWithParamsOnNonSelectIsRejected) {
  auto result = db_.Execute("DELETE FROM Album WHERE album_id = ?",
                            {Value::Integer(1)});
  ASSERT_FALSE(result.ok());
}

TEST_F(SqldbParamsTest, PlaceholderInDmlIsRejectedAsUnbound) {
  auto result = db_.Execute("DELETE FROM Album WHERE album_id = ?");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("parameter"), std::string::npos);
}

TEST_F(SqldbParamsTest, ParamEqualityUsesPrimaryKeyIndex) {
  db_.ResetStats();
  auto bound = db_.Execute("SELECT year FROM Album WHERE album_id = ?",
                           {Value::Integer(21)});
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound.value().rows.size(), 1u);
  EXPECT_EQ(bound.value().rows[0][0].AsInteger(), 1981);
  EXPECT_GE(db_.stats().index_lookups, 1u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
}

TEST_F(SqldbParamsTest, PreparedStatementReexecutesWithDifferentValues) {
  auto prepared = db_.Prepare("SELECT COUNT(*) FROM Album WHERE artist = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto hits = prepared.value().Execute({Value::Text("artist-1")});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().rows[0][0].AsInteger(), 10);
  auto misses = prepared.value().Execute({Value::Text("nobody")});
  ASSERT_TRUE(misses.ok());
  EXPECT_EQ(misses.value().rows[0][0].AsInteger(), 0);
}

TEST_F(SqldbParamsTest, ParamInSubqueryCountsOnRootStatement) {
  auto prepared = db_.Prepare(
      "SELECT album_id FROM Album WHERE year = ? AND EXISTS "
      "(SELECT * FROM Album WHERE album_id = ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared.value().param_count(), 2u);
  auto rows = prepared.value().Execute(
      {Value::Integer(1970), Value::Integer(1)});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].AsInteger(), 10);
}

}  // namespace
}  // namespace p3pdb::sqldb
