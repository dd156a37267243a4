// Randomized differential test for the SQL executor: random predicates over
// random data, evaluated twice — once by the engine, once by a direct
// brute-force C++ interpreter with explicit three-valued logic. The two
// must agree on every row count.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "common/random.h"
#include "sqldb/database.h"
#include "sqldb/executor.h"

namespace p3pdb::sqldb {
namespace {

using TriBool = std::optional<bool>;  // nullopt = SQL NULL / unknown

struct Predicate {
  std::string sql;
  std::function<TriBool(const Row&)> eval;
};

TriBool TriAnd(TriBool a, TriBool b) {
  if (a.has_value() && !*a) return false;
  if (b.has_value() && !*b) return false;
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return true;
}

TriBool TriOr(TriBool a, TriBool b) {
  if (a.has_value() && *a) return true;
  if (b.has_value() && *b) return true;
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return false;
}

TriBool TriNot(TriBool a) {
  if (!a.has_value()) return std::nullopt;
  return !*a;
}

/// Reference LIKE for the oracle, written independently of SqlLikeMatch:
/// tokenize (an escape makes the next character literal; an escape as the
/// last character is itself a literal), then match by plain recursion.
bool ReferenceLike(const std::string& text, const std::string& pattern,
                   char escape) {
  enum Kind { kChar, kRun, kOne };
  std::vector<std::pair<Kind, char>> toks;
  for (size_t i = 0; i < pattern.size(); ++i) {
    const char ch = pattern[i];
    if (escape != '\0' && ch == escape && i + 1 < pattern.size()) {
      toks.push_back({kChar, pattern[++i]});
    } else {
      toks.push_back({ch == '%' ? kRun : ch == '_' ? kOne : kChar, ch});
    }
  }
  std::function<bool(size_t, size_t)> match = [&](size_t ti, size_t pi) {
    if (pi == toks.size()) return ti == text.size();
    if (toks[pi].first == kRun) {
      for (size_t k = ti; k <= text.size(); ++k) {
        if (match(k, pi + 1)) return true;
      }
      return false;
    }
    if (ti == text.size()) return false;
    if (toks[pi].first == kChar && toks[pi].second != text[ti]) return false;
    return match(ti + 1, pi + 1);
  };
  return match(0, 0);
}

/// `a op b` for op in =, <>, <, <=, >, >= (index 0..5).
template <typename T>
bool Holds(int op, const T& a, const T& b) {
  switch (op) {
    case 0: return a == b;
    case 1: return a != b;
    case 2: return a < b;
    case 3: return a <= b;
    case 4: return a > b;
    default: return a >= b;
  }
}

const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};

/// Columns: 0 = a INTEGER, 1 = b INTEGER, 2 = c VARCHAR, and with
/// `text_pair` 3 = d VARCHAR. `text_pair` adds text-to-text and
/// text-to-literal comparisons under all six operators and LIKE ... ESCAPE;
/// without it the generator draws exactly what it did before they existed,
/// so the batteries over `t(a, b, c)` keep their queries.
class PredicateGen {
 public:
  explicit PredicateGen(Random* rng, bool text_pair = false)
      : rng_(rng), text_pair_(text_pair) {}

  Predicate Generate(int depth) {
    if (depth <= 0 || rng_->Bernoulli(0.4)) return Leaf();
    switch (rng_->Uniform(3)) {
      case 0: {
        Predicate l = Generate(depth - 1), r = Generate(depth - 1);
        return Predicate{
            "(" + l.sql + " AND " + r.sql + ")",
            [l, r](const Row& row) { return TriAnd(l.eval(row), r.eval(row)); }};
      }
      case 1: {
        Predicate l = Generate(depth - 1), r = Generate(depth - 1);
        return Predicate{
            "(" + l.sql + " OR " + r.sql + ")",
            [l, r](const Row& row) { return TriOr(l.eval(row), r.eval(row)); }};
      }
      default: {
        Predicate inner = Generate(depth - 1);
        return Predicate{"NOT (" + inner.sql + ")", [inner](const Row& row) {
                           return TriNot(inner.eval(row));
                         }};
      }
    }
  }

 private:
  Predicate Leaf() {
    switch (rng_->Uniform(text_pair_ ? 7 : 5)) {
      case 0: {  // integer comparison against a literal
        size_t col = rng_->Uniform(2);
        int64_t lit = rng_->UniformInt(0, 5);
        int op = rng_->UniformInt(0, 5);
        std::string col_name = col == 0 ? "a" : "b";
        Predicate p;
        p.sql = col_name + " " + kOps[op] + " " + std::to_string(lit);
        p.eval = [col, lit, op](const Row& row) -> TriBool {
          if (row[col].is_null()) return std::nullopt;
          return Holds(op, row[col].AsInteger(), lit);
        };
        return p;
      }
      case 1: {  // column-to-column comparison
        Predicate p;
        p.sql = "a = b";
        p.eval = [](const Row& row) -> TriBool {
          if (row[0].is_null() || row[1].is_null()) return std::nullopt;
          return row[0].AsInteger() == row[1].AsInteger();
        };
        return p;
      }
      case 2: {  // IS [NOT] NULL
        size_t col = rng_->Uniform(text_pair_ ? 4 : 3);
        bool negated = rng_->Bernoulli(0.5);
        static const char* names[] = {"a", "b", "c", "d"};
        Predicate p;
        p.sql = std::string(names[col]) + (negated ? " IS NOT NULL"
                                                   : " IS NULL");
        p.eval = [col, negated](const Row& row) -> TriBool {
          bool is_null = row[col].is_null();
          return negated ? !is_null : is_null;
        };
        return p;
      }
      case 3: {  // IN list over text
        int n = rng_->UniformInt(1, 3);
        std::vector<std::string> items;
        static const char* pool[] = {"x", "y", "z", "w"};
        for (int i = 0; i < n; ++i) items.push_back(pool[rng_->Uniform(4)]);
        bool negated = rng_->Bernoulli(0.3);
        Predicate p;
        p.sql = std::string("c") + (negated ? " NOT IN (" : " IN (");
        for (int i = 0; i < n; ++i) {
          if (i > 0) p.sql += ", ";
          p.sql += "'" + items[i] + "'";
        }
        p.sql += ")";
        p.eval = [items, negated](const Row& row) -> TriBool {
          if (row[2].is_null()) return std::nullopt;
          bool found = false;
          for (const std::string& item : items) {
            if (row[2].AsText() == item) found = true;
          }
          TriBool base = found;
          return negated ? TriNot(base) : base;
        };
        return p;
      }
      case 5: {  // text comparison: column to column, or to a literal
        static const char* lits[] = {"x", "xz", "y", "", "x%", "_z"};
        const int op = rng_->UniformInt(0, 5);
        // Operand slots: column index, or -1 for the literal.
        int lhs = 2, rhs = 3;
        const std::string lit = lits[rng_->Uniform(6)];
        switch (rng_->Uniform(3)) {
          case 0: break;             // c op d
          case 1: rhs = -1; break;   // c op 'lit'
          default: lhs = -1; break;  // 'lit' op d
        }
        auto sql_of = [&](int col) {
          return col < 0 ? "'" + lit + "'" : std::string(col == 2 ? "c" : "d");
        };
        Predicate p;
        p.sql = sql_of(lhs) + " " + kOps[op] + " " + sql_of(rhs);
        p.eval = [lhs, rhs, lit, op](const Row& row) -> TriBool {
          const Value l = lhs < 0 ? Value::Text(lit) : row[lhs];
          const Value r = rhs < 0 ? Value::Text(lit) : row[rhs];
          if (l.is_null() || r.is_null()) return std::nullopt;
          return Holds(op, l.AsText(), r.AsText());
        };
        return p;
      }
      case 6: {  // LIKE with ESCAPE '!'
        static const char* patterns[] = {"x!%",  "%!_%", "!x%", "%!%",
                                         "_!_",  "x%!",  "!!%", "%z!"};
        const std::string pattern = patterns[rng_->Uniform(8)];
        const size_t col = 2 + rng_->Uniform(2);
        const bool negated = rng_->Bernoulli(0.3);
        Predicate p;
        p.sql = std::string(col == 2 ? "c" : "d") +
                (negated ? " NOT LIKE '" : " LIKE '") + pattern +
                "' ESCAPE '!'";
        p.eval = [pattern, col, negated](const Row& row) -> TriBool {
          if (row[col].is_null()) return std::nullopt;
          return ReferenceLike(row[col].AsText(), pattern, '!') != negated;
        };
        return p;
      }
      default: {  // LIKE on text
        static const char* patterns[] = {"%x%", "x%", "%z", "_",  "%",
                                         "x_z", "%%", "_%", "%_%_", ""};
        std::string pattern = patterns[rng_->Uniform(text_pair_ ? 10 : 6)];
        const size_t col = text_pair_ ? 2 + rng_->Uniform(2) : 2;
        Predicate p;
        p.sql = std::string(col == 2 ? "c" : "d") + " LIKE '" + pattern + "'";
        p.eval = [pattern, col](const Row& row) -> TriBool {
          if (row[col].is_null()) return std::nullopt;
          return ReferenceLike(row[col].AsText(), pattern, '\0');
        };
        return p;
      }
    }
  }

  Random* rng_;
  bool text_pair_;
};

/// Correlated-subquery generator for the plan-equivalence battery. Emits
/// EXISTS / NOT EXISTS predicates over `u(k, v, w)` correlated to the outer
/// `t(a, b, c)`; some shapes satisfy the planner's rewrite preconditions
/// (pure equality correlation, local-only residue) and become hash
/// semi/anti-joins, others (non-equality or disjunctive correlation) are
/// deliberately non-rewritable and must take the correlated fallback path.
/// Ground truth is a planner-off database, so no brute-force evaluator is
/// needed here.
class ExistsGen {
 public:
  explicit ExistsGen(Random* rng) : rng_(rng) {}

  std::string Generate() {
    const bool negated = rng_->Bernoulli(0.4);
    std::string inner;
    switch (rng_->Uniform(7)) {
      case 0:  // single-key equality correlation: rewritable
        inner = "u.k = a";
        break;
      case 1:  // composite-key correlation: rewritable
        inner = "u.k = a AND u.v = b";
        break;
      case 2:  // correlation + local predicate pushed below the build
        inner = "u.k = a AND u.v >= " + std::to_string(rng_->UniformInt(0, 4));
        break;
      case 3:  // correlation + NULL-sensitive local predicate
        inner = "u.k = b AND (u.w IS NULL OR u.w LIKE '%x%')";
        break;
      case 4:  // reversed operand order, still an equality correlation
        inner = "a = u.k AND u.w IS NOT NULL";
        break;
      case 5:  // non-equality correlation: NOT rewritable
        inner = "u.k < a";
        break;
      default:  // disjunctive correlation: NOT rewritable
        inner = "(u.k = a OR u.v = " + std::to_string(rng_->UniformInt(0, 3)) +
                ")";
        break;
    }
    if (rng_->Bernoulli(0.25)) {
      // Nest a second correlated level so the build side itself plans.
      inner += rng_->Bernoulli(0.5)
                   ? " AND EXISTS (SELECT * FROM s WHERE s.m = u.v)"
                   : " AND NOT EXISTS (SELECT * FROM s WHERE s.m = u.k AND "
                     "s.n = " +
                         std::to_string(rng_->UniformInt(0, 3)) + ")";
    }
    return std::string(negated ? "NOT EXISTS" : "EXISTS") +
           " (SELECT * FROM u WHERE " + inner + ")";
  }

 private:
  Random* rng_;
};

class SqldbRandomTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SqldbRandomTest,
                         ::testing::Values(3, 7, 11, 19, 23, 42));

TEST_P(SqldbRandomTest, ExecutorAgreesWithBruteForce) {
  Random rng(GetParam());
  // The 60-row scan filters in chunks when vectorization is on (the
  // environment's default); the second database pins the row-at-a-time
  // evaluator, so both answer to the same oracle.
  Database::Options row_options;
  row_options.enable_vectorized_executor = false;
  Database db;
  Database row_db(row_options);
  for (Database* d : {&db, &row_db}) {
    ASSERT_TRUE(d->ExecuteScript("CREATE TABLE t (a INTEGER, b INTEGER, "
                                 "c VARCHAR(4), d VARCHAR(4));")
                    .ok());
  }

  // Random data with plenty of NULLs and duplicate values; some texts carry
  // the LIKE wildcards as data, for the ESCAPE patterns to find.
  std::vector<Row> rows;
  static const char* texts[] = {"x", "y", "z", "w", "xz", "xyz",
                                "x%", "_z", "x!", "!x", ""};
  for (int i = 0; i < 60; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Integer(rng.UniformInt(0, 5)));
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Integer(rng.UniformInt(0, 5)));
    for (int text_col = 0; text_col < 2; ++text_col) {
      row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                       : Value::Text(texts[rng.Uniform(11)]));
    }
    for (Database* d : {&db, &row_db}) ASSERT_TRUE(d->InsertRow("t", row).ok());
    rows.push_back(std::move(row));
  }

  PredicateGen gen(&rng, /*text_pair=*/true);
  for (int trial = 0; trial < 120; ++trial) {
    Predicate pred = gen.Generate(3);
    int64_t brute_count = 0;
    for (const Row& row : rows) {
      TriBool verdict = pred.eval(row);
      if (verdict.has_value() && *verdict) ++brute_count;
    }
    for (Database* d : {&db, &row_db}) {
      auto result = d->Execute("SELECT COUNT(*) FROM t WHERE " + pred.sql);
      ASSERT_TRUE(result.ok()) << result.status() << "\nWHERE " << pred.sql;
      ASSERT_EQ(result.value().rows[0][0].AsInteger(), brute_count)
          << "WHERE " << pred.sql << " (vectorized="
          << d->options().enable_vectorized_executor << ")";
    }
  }
}

/// EXPLAIN text for `sql` on one database, for the failure artifact.
std::string ExplainOrError(Database* db, const std::string& sql) {
  auto result = db->Execute("EXPLAIN " + sql);
  if (!result.ok()) return "  <explain failed: " + result.status().ToString() +
                           ">\n";
  std::string plan;
  for (const Row& row : result.value().rows) {
    plan += "  " + row[0].AsText() + "\n";
  }
  return plan;
}

/// On a three-way disagreement, writes the query plus each mode's EXPLAIN
/// plan and result to plan_equivalence_failure.txt so CI can upload the
/// repro as an artifact (mirrors differential_failure.txt).
void WritePlanEquivalenceFailure(uint64_t seed, const std::string& sql,
                                 Database* none, Database* rule,
                                 Database* cost) {
  std::ofstream out("plan_equivalence_failure.txt", std::ios::trunc);
  out << "plan-equivalence disagreement (seed " << seed << ")\n"
      << sql << "\n\n";
  struct Mode {
    const char* name;
    Database* db;
  } modes[] = {{"no-planner", none}, {"rule-only", rule}, {"cost-based", cost}};
  for (const Mode& m : modes) {
    out << "[" << m.name << "] plan:\n" << ExplainOrError(m.db, sql);
    auto result = m.db->Execute(sql);
    out << "[" << m.name << "] rows:\n"
        << (result.ok() ? result.value().ToString()
                        : result.status().ToString())
        << "\n";
  }
  out << "replay: ./sqldb_random_test "
      << "--gtest_filter='*PlannerEquivalenceDifferential*'\n";
}

// Plan-equivalence differential, three ways: every generated query runs on
// a no-planner database (ground truth), a rule-only database (PR-4 rewrites,
// no statistics), and a cost-based database (statistics moderate the
// rewrites, access paths, and build order) over identical data — and all
// three must return identical rows in identical order. 90 trials x 6 seeds
// = 540 queries, clearing the >=500 bar in each mode pair. The data is
// deliberately skewed: u.k draws from a min-of-two-uniforms distribution
// and u outweighs t by an order of magnitude, so the cost model's
// EXISTS-rewrite veto and join-order choices actually fire (asserted at the
// end — a cost model that never diverged from the rules would make the
// third mode vacuous). On any disagreement the EXPLAIN plans of all three
// modes land in plan_equivalence_failure.txt for CI to upload.
TEST_P(SqldbRandomTest, PlannerEquivalenceDifferential) {
  const uint64_t seed = GetParam();
  Random rng(seed * 7919 + 1);
  Database none(Database::Options{.enable_planner = false,
                                  .enable_cost_model = false});
  Database rule(Database::Options{.enable_planner = true,
                                  .enable_cost_model = false});
  Database cost(Database::Options{.enable_planner = true,
                                  .enable_cost_model = true});
  Database* dbs[] = {&none, &rule, &cost};
  const char* schema =
      "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(4));"
      "CREATE TABLE u (k INTEGER, v INTEGER, w VARCHAR(4));"
      "CREATE TABLE s (m INTEGER, n INTEGER);"
      "CREATE INDEX u_k ON u (k);";
  for (Database* db : dbs) ASSERT_TRUE(db->ExecuteScript(schema).ok());

  static const char* texts[] = {"x", "y", "z", "w", "xz", "xyz"};
  auto insert_all = [&](const char* table, const Row& row) {
    for (Database* db : dbs) ASSERT_TRUE(db->InsertRow(table, row).ok());
  };
  auto maybe_null_int = [&](double p_null, int64_t hi) {
    return rng.Bernoulli(p_null) ? Value::Null()
                                 : Value::Integer(rng.UniformInt(0, hi));
  };
  // Skewed non-null key: min of two uniforms piles mass on the low values,
  // so per-key cardinalities differ enough for selectivity to matter.
  auto skewed_int = [&](double p_null, int hi) {
    return rng.Bernoulli(p_null)
               ? Value::Null()
               : Value::Integer(std::min(rng.UniformInt(0, hi),
                                         rng.UniformInt(0, hi)));
  };
  for (int i = 0; i < 40; ++i) {
    Row row;
    row.push_back(maybe_null_int(0.25, 5));  // t.a — probe key, NULLs matter
    row.push_back(maybe_null_int(0.25, 5));  // t.b
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Text(texts[rng.Uniform(6)]));
    insert_all("t", row);
  }
  // u dwarfs t (400 vs 40 rows): single-key EXISTS correlations cross the
  // cost model's build-side veto threshold, while composite and
  // non-equality shapes keep taking the rewrite / fallback paths.
  for (int i = 0; i < 400; ++i) {
    Row row;
    row.push_back(skewed_int(0.15, 5));      // u.k — skewed build key
    row.push_back(maybe_null_int(0.25, 5));  // u.v
    row.push_back(rng.Bernoulli(0.3) ? Value::Null()
                                     : Value::Text(texts[rng.Uniform(6)]));
    insert_all("u", row);
  }
  for (int i = 0; i < 15; ++i) {
    Row row;
    row.push_back(maybe_null_int(0.25, 5));  // s.m
    row.push_back(maybe_null_int(0.25, 3));  // s.n
    insert_all("s", row);
  }

  PredicateGen scalar(&rng);
  ExistsGen sub(&rng);
  for (int trial = 0; trial < 90; ++trial) {
    std::string where = sub.Generate();
    if (rng.Bernoulli(0.5)) {
      Predicate p = scalar.Generate(2);
      where = "(" + where + (rng.Bernoulli(0.5) ? " AND " : " OR ") + p.sql +
              ")";
    }
    if (rng.Bernoulli(0.3)) {
      where += (rng.Bernoulli(0.5) ? " AND " : " OR ") + sub.Generate();
    }
    const std::string sql = "SELECT a, b, c FROM t WHERE " + where;
    auto want = none.Execute(sql);
    auto got_rule = rule.Execute(sql);
    auto got_cost = cost.Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status() << "\n" << sql;
    ASSERT_TRUE(got_rule.ok()) << got_rule.status() << "\n" << sql;
    ASSERT_TRUE(got_cost.ok()) << got_cost.status() << "\n" << sql;
    const std::string expected = want.value().ToString();
    if (got_rule.value().ToString() != expected ||
        got_cost.value().ToString() != expected) {
      WritePlanEquivalenceFailure(seed, sql, &none, &rule, &cost);
    }
    ASSERT_EQ(got_rule.value().ToString(), expected) << "rule-only\n" << sql;
    ASSERT_EQ(got_cost.value().ToString(), expected) << "cost-based\n" << sql;
  }

  const ExecStats none_stats = none.stats();
  const ExecStats rule_stats = rule.stats();
  const ExecStats cost_stats = cost.stats();
  // The rule battery still exercises both rewrites and the hash-join path.
  EXPECT_GT(rule_stats.semi_join_rewrites, 0u);
  EXPECT_GT(rule_stats.anti_join_rewrites, 0u);
  EXPECT_GT(rule_stats.hash_join_builds, 0u);
  EXPECT_GT(rule_stats.hash_join_probes, 0u);
  EXPECT_EQ(none_stats.semi_join_rewrites, 0u);
  EXPECT_EQ(none_stats.anti_join_rewrites, 0u);
  // The cost model actually diverged from the rules: it vetoed at least one
  // EXISTS rewrite the rule planner took (build 400 rows vs outer 40, with
  // u_k covering the correlation), yet still rewrote the shapes where a
  // hash build stays cheap.
  EXPECT_GT(cost_stats.cost_exists_kept, 0u);
  EXPECT_GT(cost_stats.semi_join_rewrites + cost_stats.anti_join_rewrites, 0u);
  EXPECT_LT(cost_stats.semi_join_rewrites + cost_stats.anti_join_rewrites,
            rule_stats.semi_join_rewrites + rule_stats.anti_join_rewrites);
}

// Vectorized-executor differential, vectorization x cost model x an index
// on u(k): the same generated battery (scalar predicates, rewritable and
// non-rewritable EXISTS) runs on eight databases and all must return
// identical rows in identical order. The ground truth is row-at-a-time
// filtering over purely syntactic access paths with u unindexed; the others
// add chunked scans, selection-vector kernels and batched hash-join probes,
// cost-model access paths (index-vs-seq, EXISTS rewrite vetoes, build
// ordering), or both. Without u_k the correlated `u.k = a` subqueries that
// stay correlated are 50-row scans through the chunk kernels with
// outer-scope refs; with it, those whose rewrite the cost model vetoes
// become u_k probes. The stats assertions prove the vectorized side
// actually emitted batches (a cutoff that silently routed everything
// through the row loop would pass vacuously) and that the scalar side never
// did.
TEST_P(SqldbRandomTest, VectorizedEquivalenceDifferential) {
  Random rng(GetParam() * 104729 + 3);
  struct Mode {
    bool index_u_k;
    bool vectorized;
    bool cost_model;
  };
  std::vector<Mode> modes;
  for (bool index_u_k : {false, true}) {
    for (bool vectorized : {false, true}) {
      for (bool cost_model : {false, true}) {
        modes.push_back({index_u_k, vectorized, cost_model});
      }
    }
  }
  auto describe = [](const Mode& m) {
    return ::testing::Message() << "u_k=" << m.index_u_k
                                << " vectorized=" << m.vectorized
                                << " cost_model=" << m.cost_model;
  };
  std::vector<std::unique_ptr<Database>> dbs;
  for (const Mode& m : modes) {
    dbs.push_back(std::make_unique<Database>(
        Database::Options{.enable_planner = true,
                          .enable_cost_model = m.cost_model,
                          .enable_vectorized_executor = m.vectorized}));
    ASSERT_TRUE(dbs.back()
                    ->ExecuteScript(
                        "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(4));"
                        "CREATE TABLE u (k INTEGER, v INTEGER, w VARCHAR(4));"
                        "CREATE TABLE s (m INTEGER, n INTEGER);")
                    .ok());
    if (m.index_u_k) {
      ASSERT_TRUE(dbs.back()->ExecuteScript("CREATE INDEX u_k ON u (k);").ok());
    }
  }

  static const char* texts[] = {"x", "y", "z", "w", "xz", "xyz"};
  auto insert_all = [&](const char* table, const Row& row) {
    for (auto& db : dbs) ASSERT_TRUE(db->InsertRow(table, row).ok());
  };
  auto maybe_null_int = [&](double p_null, int64_t hi) {
    return rng.Bernoulli(p_null) ? Value::Null()
                                 : Value::Integer(rng.UniformInt(0, hi));
  };
  // 80 rows: wide enough that full scans of `t` clear the small-scan
  // cutoff and run through the chunk kernels.
  for (int i = 0; i < 80; ++i) {
    Row row;
    row.push_back(maybe_null_int(0.25, 5));
    row.push_back(maybe_null_int(0.25, 5));
    row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                     : Value::Text(texts[rng.Uniform(6)]));
    insert_all("t", row);
  }
  for (int i = 0; i < 50; ++i) {
    Row row;
    row.push_back(maybe_null_int(0.25, 5));
    row.push_back(maybe_null_int(0.25, 5));
    row.push_back(rng.Bernoulli(0.3) ? Value::Null()
                                     : Value::Text(texts[rng.Uniform(6)]));
    insert_all("u", row);
  }
  for (int i = 0; i < 15; ++i) {
    Row row;
    row.push_back(maybe_null_int(0.25, 5));
    row.push_back(maybe_null_int(0.25, 3));
    insert_all("s", row);
  }

  PredicateGen scalar_gen(&rng);
  ExistsGen sub(&rng);
  for (int trial = 0; trial < 90; ++trial) {
    std::string where;
    if (rng.Bernoulli(0.4)) {
      where = scalar_gen.Generate(3).sql;
    } else {
      where = sub.Generate();
      if (rng.Bernoulli(0.5)) {
        Predicate p = scalar_gen.Generate(2);
        where = "(" + where + (rng.Bernoulli(0.5) ? " AND " : " OR ") +
                p.sql + ")";
      }
    }
    const std::string sql = "SELECT a, b, c FROM t WHERE " + where;
    auto truth = dbs[0]->Execute(sql);
    ASSERT_TRUE(truth.ok()) << truth.status() << "\n" << sql;
    for (size_t i = 1; i < dbs.size(); ++i) {
      auto r = dbs[i]->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status() << "\n" << sql;
      ASSERT_EQ(r.value().ToString(), truth.value().ToString())
          << describe(modes[i]) << "\n"
          << sql;
    }
  }

  for (size_t i = 0; i < dbs.size(); ++i) {
    SCOPED_TRACE(describe(modes[i]));
    const ExecStats stats = dbs[i]->stats();
    if (modes[i].vectorized) {
      EXPECT_GT(stats.batches, 0u);
      EXPECT_GT(stats.batch_rows, 0u);
      EXPECT_GT(stats.vectorized_filters, 0u);
    } else {
      EXPECT_EQ(stats.batches, 0u);
      EXPECT_EQ(stats.vectorized_filters, 0u);
    }
  }
}

TEST_P(SqldbRandomTest, DistinctAndOrderByAgreeWithBruteForce) {
  Random rng(GetParam() * 1000003);
  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (a INTEGER);").ok());
  std::vector<int64_t> values;
  for (int i = 0; i < 40; ++i) {
    int64_t v = rng.UniformInt(0, 9);
    values.push_back(v);
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(v) + ")").ok());
  }
  auto result = db.Execute("SELECT DISTINCT a FROM t ORDER BY a DESC");
  ASSERT_TRUE(result.ok());
  std::set<int64_t> expected(values.begin(), values.end());
  ASSERT_EQ(result.value().rows.size(), expected.size());
  auto it = expected.rbegin();
  for (const Row& row : result.value().rows) {
    EXPECT_EQ(row[0].AsInteger(), *it);
    ++it;
  }
}

// Storage differential: one seeded DML stream (INSERT / UPDATE / DELETE with
// an interleaved SELECT battery) runs against an in-memory database and a
// disk-backed one; every query must return identical rows in identical
// order throughout. The disk database then closes (checkpointing) and
// reopens, and the recovered contents must still agree with the in-memory
// oracle — including tombstone layout, which the slot-ordered scans expose.
TEST_P(SqldbRandomTest, DiskBackedDifferentialAndReopen) {
  const uint64_t seed = GetParam();
  Random rng(seed * 104729 + 17);
  const std::string dir =
      ::testing::TempDir() + "p3pdb_random_storage_" + std::to_string(seed);
  std::filesystem::remove_all(dir);

  const char* schema =
      "CREATE TABLE t (a INTEGER, b INTEGER, c VARCHAR(4));"
      "CREATE INDEX idx_t_a ON t (a);";
  Database memory;
  ASSERT_TRUE(memory.ExecuteScript(schema).ok());

  static const char* texts[] = {"x", "y", "z", "w", "xz", "xyz"};
  auto random_value_list = [&] {
    std::string a = rng.Bernoulli(0.2)
                        ? "NULL"
                        : std::to_string(rng.UniformInt(0, 5));
    std::string b = rng.Bernoulli(0.2)
                        ? "NULL"
                        : std::to_string(rng.UniformInt(0, 5));
    std::string c = rng.Bernoulli(0.2)
                        ? "NULL"
                        : "'" + std::string(texts[rng.Uniform(6)]) + "'";
    return "(" + a + ", " + b + ", " + c + ")";
  };
  PredicateGen gen(&rng);
  auto random_dml = [&]() -> std::string {
    switch (rng.Uniform(4)) {
      case 0:
      case 1:
        return "INSERT INTO t VALUES " + random_value_list();
      case 2:
        return "UPDATE t SET b = " +
               (rng.Bernoulli(0.2) ? std::string("NULL")
                                   : std::to_string(rng.UniformInt(0, 5))) +
               " WHERE " + gen.Generate(2).sql;
      default:
        return "DELETE FROM t WHERE " + gen.Generate(2).sql;
    }
  };
  auto compare_battery = [&](Database& disk, const char* when) {
    const std::string queries[] = {
        "SELECT a, b, c FROM t",
        "SELECT COUNT(*) FROM t",
        "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY 1, 2",
        "SELECT a, b, c FROM t WHERE " + gen.Generate(3).sql,
    };
    for (const std::string& sql : queries) {
      auto want = memory.Execute(sql);
      auto got = disk.Execute(sql);
      ASSERT_TRUE(want.ok()) << want.status() << "\n" << sql;
      ASSERT_TRUE(got.ok()) << got.status() << "\n" << sql;
      ASSERT_EQ(want.value().ToString(), got.value().ToString())
          << when << " seed=" << seed << "\n"
          << sql;
    }
  };

  // Record the DML stream so the reopened database's oracle is the same
  // in-memory database (mutated once, not replayed).
  {
    Database disk(Database::Options{.storage_path = dir});
    ASSERT_TRUE(disk.storage_status().ok()) << disk.storage_status();
    ASSERT_TRUE(disk.ExecuteScript(schema).ok());
    for (int step = 0; step < 120; ++step) {
      const std::string sql = random_dml();
      auto want = memory.Execute(sql);
      auto got = disk.Execute(sql);
      ASSERT_EQ(want.ok(), got.ok()) << sql << "\n"
                                     << want.status() << "\n"
                                     << got.status();
      if (step % 10 == 0) compare_battery(disk, "live");
    }
    compare_battery(disk, "pre-close");
  }

  // Reopen: recovery (checkpoint load + WAL replay) must reproduce the
  // exact same physical state the oracle holds.
  {
    Database reopened(Database::Options{.storage_path = dir});
    ASSERT_TRUE(reopened.storage_status().ok()) << reopened.storage_status();
    compare_battery(reopened, "reopened");
    // The recovered database stays writable and durable: one more burst of
    // DML, applied to both sides, must keep them identical.
    for (int step = 0; step < 30; ++step) {
      const std::string sql = random_dml();
      auto want = memory.Execute(sql);
      auto got = reopened.Execute(sql);
      ASSERT_EQ(want.ok(), got.ok()) << sql;
    }
    compare_battery(reopened, "post-reopen-dml");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p3pdb::sqldb
