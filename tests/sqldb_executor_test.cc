// End-to-end tests for the sqldb engine: DDL, DML, correlated subqueries,
// aggregates, NULL semantics, indexes, and the complexity limit.

#include <gtest/gtest.h>

#include "sqldb/binder.h"
#include "sqldb/database.h"
#include "sqldb/executor.h"
#include "sqldb/parser.h"
#include "sqldb/planner.h"

namespace p3pdb::sqldb {
namespace {

class SqldbTest : public ::testing::Test {
 protected:
  QueryResult MustExecute(std::string_view sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status() << "\nSQL: " << sql;
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  void MustScript(std::string_view sql) {
    Status st = db_.ExecuteScript(sql);
    ASSERT_TRUE(st.ok()) << st;
  }

  Database db_;
};

TEST_F(SqldbTest, CreateInsertSelect) {
  MustScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(10));"
      "INSERT INTO t VALUES (1, 'x'), (2, 'y');");
  QueryResult r = MustExecute("SELECT * FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns[0], "a");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_EQ(r.rows[1][1].AsText(), "y");
}

TEST_F(SqldbTest, WhereFilters) {
  MustScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2), (3);");
  QueryResult r = MustExecute("SELECT a FROM t WHERE a >= 2 ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqldbTest, ComparisonOperators) {
  MustScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5);");
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a = 5").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a <> 5").rows.size(), 0u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a < 6").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a <= 5").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a > 5").rows.size(), 0u);
  EXPECT_EQ(MustExecute("SELECT a FROM t WHERE a >= 5").rows.size(), 1u);
}

TEST_F(SqldbTest, NullThreeValuedLogic) {
  MustScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(5));"
      "INSERT INTO t VALUES (1, 'x'), (NULL, 'y');");
  // NULL = NULL is not TRUE; the NULL row never matches an equality.
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE a = 1").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE a <> 1").rows.size(), 0u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE a IS NULL").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE a IS NOT NULL").rows.size(),
            1u);
  // NULL OR TRUE is TRUE; NULL AND TRUE is NULL (filtered out).
  EXPECT_EQ(
      MustExecute("SELECT * FROM t WHERE a = 99 OR b = 'y'").rows.size(), 1u);
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE a = a AND b = 'y'").rows.size(),
            0u);
}

TEST_F(SqldbTest, InListSemantics) {
  MustScript(
      "CREATE TABLE t (p VARCHAR(20));"
      "INSERT INTO t VALUES ('admin'), ('contact'), (NULL);");
  EXPECT_EQ(
      MustExecute("SELECT p FROM t WHERE p IN ('admin', 'telemarketing')")
          .rows.size(),
      1u);
  // NOT IN with a NULL operand row yields NULL, not TRUE.
  EXPECT_EQ(MustExecute("SELECT p FROM t WHERE p NOT IN ('admin')")
                .rows.size(),
            1u);
}

TEST_F(SqldbTest, LikeMatching) {
  MustScript(
      "CREATE TABLE u (uri VARCHAR(100));"
      "INSERT INTO u VALUES ('http://volga.example.com/catalog/books');");
  EXPECT_EQ(
      MustExecute("SELECT * FROM u WHERE uri LIKE 'http://%/catalog/%'")
          .rows.size(),
      1u);
  EXPECT_EQ(MustExecute("SELECT * FROM u WHERE uri LIKE '%checkout%'")
                .rows.size(),
            0u);
  EXPECT_EQ(MustExecute("SELECT * FROM u WHERE uri NOT LIKE '%checkout%'")
                .rows.size(),
            1u);
}

TEST(SqlLikeMatchTest, Wildcards) {
  EXPECT_TRUE(SqlLikeMatch("abc", "abc"));
  EXPECT_TRUE(SqlLikeMatch("abc", "a%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%c"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%b%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "a_c"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_TRUE(SqlLikeMatch("anything", "%%"));
  EXPECT_FALSE(SqlLikeMatch("abc", "a_"));
  EXPECT_FALSE(SqlLikeMatch("abc", "b%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  // Backtracking case: % must retry shorter matches.
  EXPECT_TRUE(SqlLikeMatch("aXbYb", "%b"));
  EXPECT_TRUE(SqlLikeMatch("mississippi", "%iss%pi"));
}

TEST(SqlLikeMatchTest, EdgeCases) {
  // `_` needs a character; an empty text has none, even after `%`.
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  EXPECT_FALSE(SqlLikeMatch("", "%_"));
  EXPECT_FALSE(SqlLikeMatch("", "_%"));
  EXPECT_TRUE(SqlLikeMatch("", ""));
  EXPECT_FALSE(SqlLikeMatch("a", ""));
  // `%%` runs behave as one `%`, wherever they sit.
  EXPECT_TRUE(SqlLikeMatch("", "%%%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "a%%c"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%%b%%"));
  EXPECT_FALSE(SqlLikeMatch("abc", "%%d%%"));
  EXPECT_TRUE(SqlLikeMatch("ac", "a%%%c"));
  // An escaped `%` or `_` is a literal.
  EXPECT_TRUE(SqlLikeMatch("10%", "10!%", '!'));
  EXPECT_FALSE(SqlLikeMatch("100", "10!%", '!'));
  EXPECT_TRUE(SqlLikeMatch("a_b", "a!_b", '!'));
  EXPECT_FALSE(SqlLikeMatch("axb", "a!_b", '!'));
  EXPECT_TRUE(SqlLikeMatch("x%yz", "%!%%", '!'));
  EXPECT_FALSE(SqlLikeMatch("xyz", "%!%%", '!'));
  EXPECT_TRUE(SqlLikeMatch("a!b", "a!!b", '!'));
  // An escaped ordinary character is that character.
  EXPECT_TRUE(SqlLikeMatch("ab", "!a!b", '!'));
  // An escape as the last pattern character escapes nothing: it matches
  // itself.
  EXPECT_TRUE(SqlLikeMatch("a!", "a!", '!'));
  EXPECT_FALSE(SqlLikeMatch("a", "a!", '!'));
  EXPECT_TRUE(SqlLikeMatch("xa!", "%a!", '!'));
  // Without an escape character, `!` and `\` are literals.
  EXPECT_TRUE(SqlLikeMatch("a!%", "a!%"));
  EXPECT_TRUE(SqlLikeMatch("a\\x", "a\\_"));
  // Backtracking after an escaped literal.
  EXPECT_TRUE(SqlLikeMatch("_x_y", "%!_y", '!'));
  EXPECT_FALSE(SqlLikeMatch("_x_", "%!_y", '!'));
}

TEST_F(SqldbTest, CrossJoinTwoTables) {
  MustScript(
      "CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER);"
      "INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (10), (20);");
  QueryResult r =
      MustExecute("SELECT x, y FROM a, b WHERE x = 1 ORDER BY y");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 10);
}

TEST_F(SqldbTest, JoinWithPredicate) {
  MustScript(
      "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
      "CREATE TABLE s (pid INTEGER, v VARCHAR(5));"
      "INSERT INTO p VALUES (1), (2);"
      "INSERT INTO s VALUES (1, 'a'), (1, 'b'), (2, 'c');");
  QueryResult r = MustExecute(
      "SELECT p.id, s.v FROM p, s WHERE p.id = s.pid ORDER BY s.v");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[2][0].AsInteger(), 2);
}

TEST_F(SqldbTest, CorrelatedExists) {
  MustScript(
      "CREATE TABLE policy (policy_id INTEGER, PRIMARY KEY (policy_id));"
      "CREATE TABLE stmt (policy_id INTEGER, stmt_id INTEGER);"
      "INSERT INTO policy VALUES (1), (2);"
      "INSERT INTO stmt VALUES (1, 1);");
  QueryResult r = MustExecute(
      "SELECT policy_id FROM policy WHERE EXISTS ("
      "SELECT * FROM stmt WHERE stmt.policy_id = policy.policy_id)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
}

TEST_F(SqldbTest, NotExistsCorrelated) {
  MustScript(
      "CREATE TABLE policy (policy_id INTEGER);"
      "CREATE TABLE stmt (policy_id INTEGER);"
      "INSERT INTO policy VALUES (1), (2);"
      "INSERT INTO stmt VALUES (1);");
  QueryResult r = MustExecute(
      "SELECT policy_id FROM policy WHERE NOT EXISTS ("
      "SELECT * FROM stmt WHERE stmt.policy_id = policy.policy_id)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqldbTest, DeeplyNestedCorrelation) {
  // Three levels, mirroring the Figure 13 query shape where the innermost
  // table joins to its grandparent's ancestors.
  MustScript(
      "CREATE TABLE l1 (a INTEGER); CREATE TABLE l2 (a INTEGER, b INTEGER);"
      "CREATE TABLE l3 (a INTEGER, b INTEGER, c INTEGER);"
      "INSERT INTO l1 VALUES (1), (2);"
      "INSERT INTO l2 VALUES (1, 10), (2, 20);"
      "INSERT INTO l3 VALUES (1, 10, 100);");
  QueryResult r = MustExecute(
      "SELECT a FROM l1 WHERE EXISTS (SELECT * FROM l2 WHERE l2.a = l1.a AND "
      "EXISTS (SELECT * FROM l3 WHERE l3.a = l1.a AND l3.b = l2.b))");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
}

TEST_F(SqldbTest, AggregatesWithoutGroupBy) {
  MustScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (3), (1), (NULL), (7);");
  QueryResult r =
      MustExecute("SELECT COUNT(*), COUNT(a), MIN(a), MAX(a), SUM(a) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 4);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 3);  // NULL not counted
  EXPECT_EQ(r.rows[0][2].AsInteger(), 1);
  EXPECT_EQ(r.rows[0][3].AsInteger(), 7);
  EXPECT_EQ(r.rows[0][4].AsInteger(), 11);
}

TEST_F(SqldbTest, AggregateOverEmptyTable) {
  MustScript("CREATE TABLE t (a INTEGER);");
  QueryResult r = MustExecute("SELECT COUNT(*), MIN(a) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqldbTest, GroupByWithCount) {
  MustScript(
      "CREATE TABLE purpose (purpose VARCHAR(30));"
      "INSERT INTO purpose VALUES ('current'), ('contact'), ('contact'), "
      "('telemarketing');");
  QueryResult r = MustExecute(
      "SELECT purpose, COUNT(*) FROM purpose GROUP BY purpose "
      "ORDER BY 2 DESC, 1");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText(), "contact");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 2);
}

TEST_F(SqldbTest, GroupByRejectsBareColumns) {
  MustScript("CREATE TABLE t (a INTEGER, b INTEGER); ");
  EXPECT_FALSE(db_.Execute("SELECT a, b, COUNT(*) FROM t GROUP BY a").ok());
}

TEST_F(SqldbTest, Distinct) {
  MustScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (1), (2), (2), (2);");
  QueryResult r = MustExecute("SELECT DISTINCT a FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(SqldbTest, OrderByDescAndLimit) {
  MustScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (5), (3), (4), (2);");
  QueryResult r = MustExecute("SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 5);
  EXPECT_EQ(r.rows[1][0].AsInteger(), 4);
}

TEST_F(SqldbTest, DeleteWithWhere) {
  MustScript(
      "CREATE TABLE t (a INTEGER);"
      "INSERT INTO t VALUES (1), (2), (3);");
  QueryResult r = MustExecute("DELETE FROM t WHERE a >= 2");
  EXPECT_EQ(r.rows_affected, 2);
  EXPECT_EQ(MustExecute("SELECT * FROM t").rows.size(), 1u);
  // Re-running the same parsed statement path must still work (WHERE is
  // restored after binding).
  EXPECT_EQ(MustExecute("DELETE FROM t WHERE a >= 2").rows_affected, 0);
}

TEST_F(SqldbTest, DeleteAll) {
  MustScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2);");
  EXPECT_EQ(MustExecute("DELETE FROM t").rows_affected, 2);
  EXPECT_EQ(MustExecute("SELECT COUNT(*) FROM t").rows[0][0].AsInteger(), 0);
}

TEST_F(SqldbTest, PrimaryKeyRejectsDuplicates) {
  MustScript(
      "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b));"
      "INSERT INTO t VALUES (1, 1);");
  auto dup = db_.Execute("INSERT INTO t VALUES (1, 1)");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  // Different second component is fine.
  EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 2)").ok());
}

TEST_F(SqldbTest, ForeignKeyEnforced) {
  MustScript(
      "CREATE TABLE parent (id INTEGER, PRIMARY KEY (id));"
      "CREATE TABLE child (pid INTEGER, "
      "FOREIGN KEY (pid) REFERENCES parent (id));"
      "INSERT INTO parent VALUES (1);");
  EXPECT_TRUE(db_.Execute("INSERT INTO child VALUES (1)").ok());
  auto bad = db_.Execute("INSERT INTO child VALUES (99)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // NULL FK components skip the check.
  EXPECT_TRUE(db_.Execute("INSERT INTO child VALUES (NULL)").ok());
}

TEST_F(SqldbTest, TypeMismatchRejected) {
  MustScript("CREATE TABLE t (a INTEGER);");
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES ('text')").ok());
}

TEST_F(SqldbTest, NotNullEnforced) {
  MustScript("CREATE TABLE t (a INTEGER NOT NULL);");
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (NULL)").ok());
}

TEST_F(SqldbTest, UnknownTableAndColumnErrors) {
  auto r1 = db_.Execute("SELECT * FROM missing");
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  MustScript("CREATE TABLE t (a INTEGER);");
  auto r2 = db_.Execute("SELECT nope FROM t");
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
}

TEST_F(SqldbTest, AmbiguousColumnRejected) {
  MustScript("CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER);");
  auto r = db_.Execute("SELECT x FROM a, b");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqldbTest, TableNamesAreCaseInsensitive) {
  MustScript("CREATE TABLE Policy (policy_id INTEGER);");
  EXPECT_TRUE(db_.Execute("SELECT * FROM POLICY").ok());
  EXPECT_TRUE(db_.Execute("SELECT * FROM policy").ok());
  EXPECT_FALSE(db_.Execute("CREATE TABLE POLICY (x INTEGER)").ok());
}

TEST_F(SqldbTest, DropTable) {
  MustScript("CREATE TABLE t (a INTEGER);");
  MustExecute("DROP TABLE t");
  EXPECT_FALSE(db_.Execute("SELECT * FROM t").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
}

TEST_F(SqldbTest, CreateTableIfNotExistsIsIdempotent) {
  MustScript("CREATE TABLE IF NOT EXISTS t (a INTEGER);");
  MustScript("CREATE TABLE IF NOT EXISTS t (a INTEGER);");
  EXPECT_EQ(db_.TableCount(), 1u);
}

TEST_F(SqldbTest, SelectWithoutFrom) {
  QueryResult r = MustExecute("SELECT 1, 'two'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_EQ(r.rows[0][1].AsText(), "two");
}

TEST_F(SqldbTest, IndexAcceleratesEqualityLookups) {
  MustScript("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a));");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i * 10) + ")")
                    .ok());
  }
  db_.ResetStats();
  QueryResult r = MustExecute("SELECT b FROM t WHERE a = 42");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 420);
  // The PK index must serve this: one point lookup, no full scan.
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 1u);
  EXPECT_LE(db_.stats().rows_scanned, 1u);
}

TEST_F(SqldbTest, SecondaryIndexUsedForCorrelatedSubquery) {
  // The planner decorrelates this EXISTS into a hash semi-join; turn it off
  // to pin the correlated access path itself (one index probe per outer
  // row), which remains the fallback for non-rewritable subqueries.
  Database db(Database::Options{.enable_planner = false});
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
                    "CREATE TABLE s (pid INTEGER, v INTEGER);"
                    "CREATE INDEX s_pid ON s (pid);")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO p VALUES (" + std::to_string(i) + ")").ok());
    ASSERT_TRUE(
        db.Execute("INSERT INTO s VALUES (" + std::to_string(i) + ", 1)")
            .ok());
  }
  db.ResetStats();
  auto r = db.Execute(
      "SELECT id FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().rows.size(), 50u);
  // The inner probe uses the secondary index; only the outer scan is full.
  EXPECT_EQ(db.stats().full_scans, 1u);
  EXPECT_EQ(db.stats().index_lookups, 50u);
}

TEST_F(SqldbTest, PlannerRewritesCorrelatedExistsToSemiJoin) {
  MustScript(
      "CREATE TABLE p (id INTEGER, PRIMARY KEY (id));"
      "CREATE TABLE s (pid INTEGER, v INTEGER);"
      "CREATE INDEX s_pid ON s (pid);");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db_.Execute("INSERT INTO p VALUES (" + std::to_string(i) + ")").ok());
    // Key every other outer row so the probe answers both ways.
    if (i % 2 == 0) {
      ASSERT_TRUE(db_.Execute("INSERT INTO s VALUES (" + std::to_string(i) +
                              ", 1)")
                      .ok());
    }
  }
  db_.ResetStats();
  const std::string sql =
      "SELECT id FROM p WHERE EXISTS (SELECT * FROM s WHERE s.pid = p.id)";
  QueryResult r = MustExecute(sql);
  EXPECT_EQ(r.rows.size(), 25u);
  ExecStats stats = db_.stats();
  EXPECT_EQ(stats.semi_join_rewrites, 1u);
  EXPECT_EQ(stats.hash_join_builds, 1u);
  EXPECT_EQ(stats.hash_join_probes, 50u);
  EXPECT_EQ(stats.plans_built, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);

  // Same text again: served from the plan cache, key set reused (no new
  // build), same answer.
  QueryResult again = MustExecute(sql);
  EXPECT_EQ(again.rows.size(), 25u);
  stats = db_.stats();
  EXPECT_EQ(stats.plans_built, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.hash_join_builds, 1u);

  // A write to the build side invalidates the cached key set.
  ASSERT_TRUE(db_.Execute("INSERT INTO s VALUES (1, 1)").ok());
  QueryResult after = MustExecute(sql);
  EXPECT_EQ(after.rows.size(), 26u);
  stats = db_.stats();
  EXPECT_EQ(stats.hash_join_builds, 2u);
}

TEST_F(SqldbTest, SubqueryDepthLimitEnforced) {
  Database limited(Database::Options{.max_subquery_depth = 2,
                                     .enforce_foreign_keys = false});
  ASSERT_TRUE(limited.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  EXPECT_TRUE(
      limited.Execute("SELECT * FROM t WHERE EXISTS (SELECT * FROM t)").ok());
  auto deep = limited.Execute(
      "SELECT * FROM t WHERE EXISTS (SELECT * FROM t WHERE EXISTS ("
      "SELECT * FROM t))");
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kLimitExceeded);
}

TEST_F(SqldbTest, ExistsEarlyOutScansAtMostOneMatch) {
  MustScript("CREATE TABLE big (a INTEGER);");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (1)").ok());
  }
  db_.ResetStats();
  QueryResult r =
      MustExecute("SELECT 1 WHERE EXISTS (SELECT * FROM big)");
  EXPECT_EQ(r.rows.size(), 1u);
  // Early-out: must not scan all 100 rows.
  EXPECT_LE(db_.stats().rows_scanned, 1u);
}

TEST(SqldbExistsInAggregateTest, RunsUnderEverySetting) {
  // An EXISTS inside an aggregate's argument runs once per input row through
  // the executor's scan, which reads the planner's access paths, so the
  // planner must annotate subqueries under aggregates too. The correlated
  // one probes u_k; the uncorrelated one scans 40 rows, in chunks when
  // vectorization is on.
  for (bool vectorized : {false, true}) {
    for (bool cost_model : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "vectorized=" << vectorized
                                        << " cost_model=" << cost_model);
      Database db(Database::Options{.enable_cost_model = cost_model,
                                    .enable_vectorized_executor = vectorized});
      ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER, b INTEGER);"
                                   "CREATE TABLE u (k INTEGER, v INTEGER);"
                                   "CREATE INDEX u_k ON u (k);")
                      .ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            db.InsertRow("t", {Value::Integer(i), Value::Integer(i / 5)})
                .ok());
      }
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            db.InsertRow("u", {Value::Integer(i % 5), Value::Integer(i)})
                .ok());
      }
      db.ResetStats();

      auto count =
          db.Execute("SELECT COUNT(EXISTS (SELECT * FROM u)) FROM t");
      ASSERT_TRUE(count.ok()) << count.status();
      ASSERT_EQ(count.value().rows.size(), 1u);
      EXPECT_EQ(count.value().rows[0][0].AsInteger(), 10);

      auto grouped = db.Execute(
          "SELECT b, MAX(EXISTS (SELECT * FROM u WHERE u.k = t.a)), "
          "MIN(EXISTS (SELECT * FROM u WHERE u.k = t.a)), "
          "COUNT(EXISTS (SELECT * FROM u WHERE u.v >= 20)) "
          "FROM t GROUP BY b ORDER BY 1");
      ASSERT_TRUE(grouped.ok()) << grouped.status();
      const std::vector<Row>& rows = grouped.value().rows;
      ASSERT_EQ(rows.size(), 2u);
      // b = 0 holds a = 0..4, every one a u.k; b = 1 holds a = 5..9, none.
      EXPECT_EQ(rows[0][0].AsInteger(), 0);
      EXPECT_TRUE(rows[0][1].AsBoolean());
      EXPECT_TRUE(rows[0][2].AsBoolean());
      EXPECT_EQ(rows[0][3].AsInteger(), 5);
      EXPECT_EQ(rows[1][0].AsInteger(), 1);
      EXPECT_FALSE(rows[1][1].AsBoolean());
      EXPECT_FALSE(rows[1][2].AsBoolean());
      EXPECT_EQ(rows[1][3].AsInteger(), 5);

      const ExecStats stats = db.stats();
      EXPECT_GT(stats.index_lookups, 0u);
      if (vectorized) {
        EXPECT_GT(stats.batches, 0u);
      } else {
        EXPECT_EQ(stats.batches, 0u);
      }
    }
  }
}

// --- Predicate evaluator parity ---------------------------------------------
// WHERE filters, EXISTS bodies and projected predicates share one
// three-valued evaluator; these pin its NULL semantics, its error text and
// its comparison count.

TEST_F(SqldbTest, NullOnEitherSideOfEveryComparison) {
  MustScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(5));"
      "INSERT INTO t VALUES (1, 'x'), (NULL, NULL);");
  for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
    SCOPED_TRACE(op);
    const std::string o = op;
    for (const std::string& pred :
         {"a " + o + " NULL", "NULL " + o + " a", "b " + o + " NULL",
          "NULL " + o + " b", "NULL " + o + " NULL"}) {
      SCOPED_TRACE(pred);
      // UNKNOWN rejects the row, and so does its negation.
      EXPECT_EQ(MustExecute("SELECT * FROM t WHERE " + pred).rows.size(), 0u);
      EXPECT_EQ(
          MustExecute("SELECT * FROM t WHERE NOT (" + pred + ")").rows.size(),
          0u);
      EXPECT_EQ(MustExecute("SELECT * FROM t WHERE (" + pred + ") IS NULL")
                    .rows.size(),
                2u);
      // Projected, the verdict is a NULL value.
      QueryResult projected = MustExecute("SELECT " + pred + " FROM t");
      ASSERT_EQ(projected.rows.size(), 2u);
      EXPECT_TRUE(projected.rows[0][0].is_null());
      EXPECT_TRUE(projected.rows[1][0].is_null());
    }
    // A NULL row against a non-null operand is UNKNOWN on either side; the
    // non-null row answers.
    const size_t lhs =
        MustExecute("SELECT * FROM t WHERE a " + o + " 1").rows.size();
    const size_t rhs =
        MustExecute("SELECT * FROM t WHERE 1 " + o + " a").rows.size();
    const bool reflexive = o == "=" || o == "<=" || o == ">=";
    EXPECT_EQ(lhs, reflexive ? 1u : 0u);
    EXPECT_EQ(rhs, reflexive ? 1u : 0u);
    const size_t text =
        MustExecute("SELECT * FROM t WHERE b " + o + " 'x'").rows.size();
    EXPECT_EQ(text, reflexive ? 1u : 0u);
  }
}

TEST_F(SqldbTest, PredicateErrorTextIsExact) {
  MustScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(5));"
      "INSERT INTO t VALUES (1, 'x');");
  auto expect_error = [&](const std::string& sql, const std::string& message) {
    SCOPED_TRACE(sql);
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), message);
  };
  expect_error("SELECT * FROM t WHERE a", "WHERE clause is not a boolean");
  expect_error("SELECT * FROM t WHERE 1", "WHERE clause is not a boolean");
  expect_error("SELECT * FROM t WHERE a = 1 AND b",
               "logical operand is not a boolean: b");
  expect_error("SELECT * FROM t WHERE a = 2 OR a",
               "logical operand is not a boolean: a");
  expect_error("SELECT * FROM t WHERE NOT a", "NOT applied to non-boolean");
  expect_error("SELECT a = 1 AND b FROM t",
               "logical operand is not a boolean: b");
  expect_error("SELECT NOT b FROM t", "NOT applied to non-boolean");
  // Mixed-type comparisons name the operand types in evaluation order: `>`
  // and `<=` compare right against left.
  expect_error("SELECT * FROM t WHERE a = 'x'",
               "cannot compare INTEGER with TEXT");
  expect_error("SELECT * FROM t WHERE a <> b",
               "cannot compare INTEGER with TEXT");
  expect_error("SELECT * FROM t WHERE a < b",
               "cannot compare INTEGER with TEXT");
  expect_error("SELECT * FROM t WHERE a >= b",
               "cannot compare INTEGER with TEXT");
  expect_error("SELECT * FROM t WHERE a > b",
               "cannot compare TEXT with INTEGER");
  expect_error("SELECT * FROM t WHERE a <= b",
               "cannot compare TEXT with INTEGER");
  expect_error("SELECT * FROM t WHERE b IN (1)",
               "cannot compare TEXT with INTEGER");
  expect_error("SELECT * FROM t WHERE a LIKE 'x'",
               "LIKE requires text operands");
  // Booleans compare for equality only.
  expect_error("SELECT * FROM t WHERE (a = 1) < (a = 1)",
               "cannot compare BOOLEAN with BOOLEAN");
  EXPECT_EQ(MustExecute("SELECT * FROM t WHERE (a = 1) = (b = 'x')")
                .rows.size(),
            1u);
}

TEST_F(SqldbTest, NonBooleanColumnAsPredicate) {
  MustScript(
      "CREATE TABLE t (a INTEGER);"
      "CREATE TABLE n (a INTEGER);"
      "INSERT INTO t VALUES (7);"
      "INSERT INTO n VALUES (NULL);");
  auto r = db_.Execute("SELECT * FROM t WHERE a");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "WHERE clause is not a boolean");
  // Inside an EXISTS body the same check holds.
  auto sub = db_.Execute("SELECT 1 WHERE EXISTS (SELECT * FROM t WHERE a)");
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().message(), "WHERE clause is not a boolean");
  // A NULL is UNKNOWN before it is a type: the row is filtered, no error.
  EXPECT_EQ(MustExecute("SELECT * FROM n WHERE a").rows.size(), 0u);
  EXPECT_EQ(MustExecute("SELECT * FROM n WHERE NOT a").rows.size(), 0u);
  EXPECT_EQ(MustExecute("SELECT * FROM n WHERE a OR a IS NULL").rows.size(),
            1u);
  // DML probes run the same filter.
  auto del = db_.Execute("DELETE FROM t WHERE a");
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.status().message(), "WHERE clause is not a boolean");
}

TEST_F(SqldbTest, UnboundParameterIsAnError) {
  MustScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);");
  auto parsed = ParseStatement("SELECT a FROM t WHERE a = ?");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto* select = static_cast<SelectStmt*>(parsed.value().get());
  Binder binder(db_, 32);
  ASSERT_TRUE(binder.BindSelect(select).ok());
  AnnotateSelect(select);
  PrecomputeExecHints(select);
  const std::string want =
      "unbound parameter: statement uses '?' placeholder 1 but 0 value(s) "
      "were supplied";
  ExecStats stats;
  Executor none(&stats);
  auto r = none.RunSelect(*select);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), want);
  const std::vector<Value> empty;
  Executor short_list(&stats, &empty);
  auto r2 = short_list.RunSelect(*select);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().message(), want);
  const std::vector<Value> one = {Value::Integer(1)};
  Executor bound(&stats, &one);
  auto r3 = bound.RunSelect(*select);
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3.value().rows.size(), 1u);
}

TEST(SqldbRuleQueryStatsTest, CountersMatchPinnedValues) {
  // A rule query in the paper's Fig 13 shape: the policy is a `?`, each
  // nested EXISTS joins a child to its parent, with IN, <>, LIKE and NOT
  // EXISTS tests at the leaves. The counters are pinned so a change to the
  // evaluator cannot silently evaluate more (or fewer) comparisons.
  struct Pinned {
    bool planner;
    uint64_t comparisons, subquery_evals, rows_scanned, index_lookups;
  };
  for (const Pinned& want : {Pinned{false, 44, 13, 18, 16},
                             Pinned{true, 22, 0, 21, 3}}) {
    SCOPED_TRACE(::testing::Message() << "planner=" << want.planner);
    Database::Options options;
    options.enable_planner = want.planner;
    options.enable_cost_model = true;
    options.enable_vectorized_executor = true;
    Database db(options);
    ASSERT_TRUE(
        db.ExecuteScript(
              "CREATE TABLE Policy (policy_id INTEGER, PRIMARY KEY "
              "(policy_id));"
              "CREATE TABLE Stmt (policy_id INTEGER, statement_id INTEGER);"
              "CREATE INDEX stmt_p ON Stmt (policy_id);"
              "CREATE TABLE Purpose (policy_id INTEGER, statement_id "
              "INTEGER, purpose VARCHAR(20), required VARCHAR(10));"
              "CREATE INDEX purpose_ps ON Purpose (policy_id, statement_id);"
              "CREATE TABLE Recipient (policy_id INTEGER, statement_id "
              "INTEGER, recipient VARCHAR(20));"
              "CREATE INDEX recipient_ps ON Recipient (policy_id, "
              "statement_id);"
              "CREATE TABLE DataRef (policy_id INTEGER, statement_id "
              "INTEGER, ref VARCHAR(40));"
              "CREATE INDEX dataref_ps ON DataRef (policy_id, statement_id);"
              "INSERT INTO Policy VALUES (1), (2), (3);"
              "INSERT INTO Stmt VALUES (1, 1), (1, 2), (2, 1), (3, 1), "
              "(3, 2);"
              "INSERT INTO Purpose VALUES (1, 1, 'current', 'always'), "
              "(1, 2, 'telemarketing', 'opt-out'), (2, 1, 'contact', "
              "'always'), (3, 1, 'admin', NULL), (3, 2, 'telemarketing', "
              "'opt-out');"
              "INSERT INTO Recipient VALUES (1, 1, 'ours'), (1, 2, "
              "'public'), (2, 1, 'ours'), (3, 2, 'public');"
              "INSERT INTO DataRef VALUES (1, 1, '#user.name'), (1, 2, "
              "'#user.home-info.telecom'), (2, 1, '#user.home-info.postal'), "
              "(3, 2, '#dynamic.clickstream');")
            .ok());
    const std::string rule =
        "SELECT 1 FROM Policy WHERE Policy.policy_id = ? AND EXISTS ("
        "SELECT * FROM Stmt WHERE Stmt.policy_id = Policy.policy_id AND "
        "EXISTS (SELECT * FROM Purpose WHERE Purpose.policy_id = "
        "Stmt.policy_id AND Purpose.statement_id = Stmt.statement_id AND "
        "Purpose.purpose IN ('telemarketing', 'contact') AND "
        "(Purpose.required IS NULL OR Purpose.required <> 'opt-in')) AND "
        "(NOT EXISTS (SELECT * FROM Recipient WHERE Recipient.policy_id = "
        "Stmt.policy_id AND Recipient.statement_id = Stmt.statement_id AND "
        "Recipient.recipient = 'public') OR EXISTS (SELECT * FROM DataRef "
        "WHERE DataRef.policy_id = Stmt.policy_id AND DataRef.statement_id "
        "= Stmt.statement_id AND DataRef.ref LIKE '#user.home-info%')))";
    db.ResetStats();
    std::vector<bool> fired;
    for (int64_t id = 1; id <= 3; ++id) {
      auto r = db.Execute(rule, {Value::Integer(id)});
      ASSERT_TRUE(r.ok()) << r.status();
      fired.push_back(!r.value().rows.empty());
    }
    EXPECT_EQ(fired, (std::vector<bool>{true, true, false}));
    const ExecStats stats = db.stats();
    EXPECT_EQ(stats.comparisons, want.comparisons);
    EXPECT_EQ(stats.subquery_evals, want.subquery_evals);
    EXPECT_EQ(stats.rows_scanned, want.rows_scanned);
    EXPECT_EQ(stats.index_lookups, want.index_lookups);
  }
}

TEST_F(SqldbTest, QueryResultToStringRendersTable) {
  MustScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (7);");
  std::string rendered = MustExecute("SELECT a FROM t").ToString();
  EXPECT_NE(rendered.find("| a |"), std::string::npos);
  EXPECT_NE(rendered.find("| 7 |"), std::string::npos);
  EXPECT_NE(rendered.find("(1 rows)"), std::string::npos);
}

TEST_F(SqldbTest, StatsAccumulateAndReset) {
  MustScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);");
  MustExecute("SELECT * FROM t");
  EXPECT_GT(db_.stats().statements_executed, 0u);
  db_.ResetStats();
  EXPECT_EQ(db_.stats().statements_executed, 0u);
}

}  // namespace
}  // namespace p3pdb::sqldb
