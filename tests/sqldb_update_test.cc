// Tests for UPDATE: assignments referencing current row values, WHERE
// filtering, index maintenance, and constraint interaction.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sqldb/database.h"

namespace p3pdb::sqldb {
namespace {

/// The first column of `result`, one value per line.
std::string Column(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) out += row[0].ToString() + "\n";
  return out;
}

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(
                      "CREATE TABLE t (k INTEGER NOT NULL, v VARCHAR(10), "
                      "n INTEGER, PRIMARY KEY (k));"
                      "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), "
                      "(3, 'c', 30);")
                    .ok());
  }

  int64_t Count(const std::string& where) {
    auto result = db_.Execute("SELECT COUNT(*) FROM t WHERE " + where);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result.value().rows[0][0].AsInteger() : -1;
  }

  Database db_;
};

TEST_F(UpdateTest, UpdateWithWhere) {
  auto result = db_.Execute("UPDATE t SET v = 'x' WHERE k >= 2");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows_affected, 2);
  EXPECT_EQ(Count("v = 'x'"), 2);
  EXPECT_EQ(Count("v = 'a'"), 1);
}

TEST_F(UpdateTest, UpdateAllRows) {
  auto result = db_.Execute("UPDATE t SET n = 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows_affected, 3);
  EXPECT_EQ(Count("n = 0"), 3);
}

TEST_F(UpdateTest, AssignmentSeesOldValues) {
  // Swap-like update: both assignments read the pre-update row.
  ASSERT_TRUE(db_.Execute("UPDATE t SET n = k, k = n WHERE k = 1").ok());
  EXPECT_EQ(Count("k = 10 AND n = 1"), 1);
}

TEST_F(UpdateTest, MultipleAssignments) {
  ASSERT_TRUE(
      db_.Execute("UPDATE t SET v = 'z', n = NULL WHERE k = 2").ok());
  EXPECT_EQ(Count("v = 'z' AND n IS NULL"), 1);
}

TEST_F(UpdateTest, IndexFollowsUpdatedKey) {
  ASSERT_TRUE(db_.Execute("UPDATE t SET k = 99 WHERE k = 1").ok());
  db_.ResetStats();
  EXPECT_EQ(Count("k = 99"), 1);
  EXPECT_GE(db_.stats().index_lookups, 1u);
  EXPECT_EQ(Count("k = 1"), 0);
  // The freed key is insertable again.
  EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'new', 0)").ok());
}

TEST_F(UpdateTest, PrimaryKeyConflictRejectedAndRowPreserved) {
  auto clash = db_.Execute("UPDATE t SET k = 2 WHERE k = 1");
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);
  // The row that failed to move is still there with its old key.
  EXPECT_EQ(Count("k = 1"), 1);
  EXPECT_EQ(Count("1 = 1"), 3);
}

TEST_F(UpdateTest, TypeAndNullabilityChecked) {
  EXPECT_FALSE(db_.Execute("UPDATE t SET n = 'text' WHERE k = 1").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET k = NULL WHERE k = 1").ok());
}

TEST_F(UpdateTest, UnknownTableOrColumn) {
  EXPECT_FALSE(db_.Execute("UPDATE missing SET a = 1").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET missing = 1").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET v = 'x' WHERE missing = 1").ok());
}

TEST_F(UpdateTest, ReExecutionAfterErrorWorks) {
  // Statement state must be restored after a failed bind.
  ASSERT_FALSE(db_.Execute("UPDATE t SET v = nope WHERE k = 1").ok());
  ASSERT_TRUE(db_.Execute("UPDATE t SET v = 'ok' WHERE k = 1").ok());
  EXPECT_EQ(Count("v = 'ok'"), 1);
}

TEST_F(UpdateTest, ForeignKeyEnforcedOnUpdate) {
  ASSERT_TRUE(db_.ExecuteScript(
                    "CREATE TABLE child (k INTEGER, "
                    "FOREIGN KEY (k) REFERENCES t (k));"
                    "INSERT INTO child VALUES (1);")
                  .ok());
  EXPECT_FALSE(db_.Execute("UPDATE child SET k = 77").ok());
  EXPECT_TRUE(db_.Execute("UPDATE child SET k = 3").ok());
}

TEST_F(UpdateTest, CorrelatedSubqueryInWhere) {
  ASSERT_TRUE(db_.ExecuteScript(
                    "CREATE TABLE marks (k INTEGER);"
                    "INSERT INTO marks VALUES (2);")
                  .ok());
  ASSERT_TRUE(db_.Execute(
                    "UPDATE t SET v = 'marked' WHERE EXISTS "
                    "(SELECT * FROM marks WHERE marks.k = t.k)")
                  .ok());
  EXPECT_EQ(Count("v = 'marked'"), 1);
  EXPECT_EQ(Count("v = 'marked' AND k = 2"), 1);

  // The same shape over wider tables, under every executor setting: an
  // UPDATE and a DELETE whose WHERE holds a correlated EXISTS. The
  // subquery's access path is planned like any SELECT's: an index lookup on
  // marks(tag), which the cost model overrides with a sequential scan (tag
  // has two values), each filtered row at a time or, with vectorization
  // on, in chunks (30+ candidates). All four must pick the same victims.
  std::set<int64_t> marked;    // t.k with a tag-1 mark
  std::set<int64_t> tagged_0;  // t.k with a tag-0 mark
  std::string marks_rows;
  for (int64_t i = 0; i < 60; ++i) {
    const int64_t k = (i * 7) % 40 + 1;
    (i % 2 == 1 ? marked : tagged_0).insert(k);
    marks_rows += (i == 0 ? "" : ", ") + std::string("(") +
                  std::to_string(k) + ", " + std::to_string(i % 2) + ")";
  }
  std::string t_rows;
  std::string expect_marked;
  std::string expect_kept;
  int64_t n_marked = 0;
  int64_t n_kept = 0;
  for (int64_t k = 1; k <= 30; ++k) {
    t_rows += (k == 1 ? "" : ", ") + std::string("(") + std::to_string(k) +
              ", 'a', " + std::to_string(k) + ")";
    if (marked.count(k) != 0) {
      expect_marked += std::to_string(k) + "\n";
      ++n_marked;
    }
    if (tagged_0.count(k) != 0) {
      expect_kept += std::to_string(k) + "\n";
      ++n_kept;
    }
  }
  for (bool vectorized : {false, true}) {
    for (bool cost_model : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "vectorized=" << vectorized
                                        << " cost_model=" << cost_model);
      Database db(Database::Options{.enable_cost_model = cost_model,
                                    .enable_vectorized_executor = vectorized});
      ASSERT_TRUE(db.ExecuteScript(
                        "CREATE TABLE t (k INTEGER NOT NULL, v VARCHAR(10), "
                        "n INTEGER, PRIMARY KEY (k));"
                        "CREATE TABLE marks (k INTEGER, tag INTEGER);"
                        "CREATE INDEX marks_tag ON marks (tag);"
                        "INSERT INTO t VALUES " + t_rows + ";"
                        "INSERT INTO marks VALUES " + marks_rows + ";")
                      .ok());
      auto updated = db.Execute(
          "UPDATE t SET v = 'marked' WHERE EXISTS (SELECT * FROM marks "
          "WHERE marks.k = t.k AND marks.tag = 1)");
      ASSERT_TRUE(updated.ok()) << updated.status();
      EXPECT_EQ(updated.value().rows_affected, n_marked);
      auto got_marked =
          db.Execute("SELECT k FROM t WHERE v = 'marked' ORDER BY k");
      ASSERT_TRUE(got_marked.ok()) << got_marked.status();
      EXPECT_EQ(Column(got_marked.value()), expect_marked);

      auto deleted = db.Execute(
          "DELETE FROM t WHERE NOT EXISTS (SELECT * FROM marks "
          "WHERE marks.k = t.k AND marks.tag = 0)");
      ASSERT_TRUE(deleted.ok()) << deleted.status();
      EXPECT_EQ(deleted.value().rows_affected, 30 - n_kept);
      auto kept = db.Execute("SELECT k FROM t ORDER BY k");
      ASSERT_TRUE(kept.ok()) << kept.status();
      EXPECT_EQ(Column(kept.value()), expect_kept);

      const ExecStats stats = db.stats();
      if (vectorized) {
        EXPECT_GT(stats.batches, 0u);
      } else {
        EXPECT_EQ(stats.batches, 0u);
      }
      if (cost_model) {
        EXPECT_EQ(stats.index_lookups, 0u);
      } else {
        EXPECT_GT(stats.index_lookups, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
