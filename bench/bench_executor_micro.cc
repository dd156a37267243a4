// Executor microbenchmarks: the vectorized batch executor against the
// scalar row-at-a-time path on the three shapes the match path exercises —
// a filtered sequential scan, a kernel-heavy predicate (LIKE / IN / OR),
// and batched hash semi-join probes. Each workload runs twice against
// identically loaded databases (vectorized on / off), so the printed
// speedup isolates the chunked filter from everything else.
//
// `--json <path>` writes one record per run. Samples are per-query
// microseconds (so p50/p99 describe query latency); `matches_per_sec`
// carries the rows-per-second throughput (rows visited by the scan, or
// probes answered, divided by query time).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/stopwatch.h"
#include "sqldb/database.h"

namespace p3pdb::bench {
namespace {

constexpr size_t kEventRows = 100000;
constexpr size_t kOuterRows = 10000;
constexpr int kWarmups = 2;
constexpr int kRepetitions = 20;

/// Builds the workload tables: `events` (the scanned fact table) and
/// `outer_t` (the probe side of the semi-join bench).
std::unique_ptr<sqldb::Database> MakeDatabase(bool vectorized) {
  sqldb::Database::Options options;
  options.enable_planner = true;
  options.enable_vectorized_executor = vectorized;
  auto db = std::make_unique<sqldb::Database>(options);

  auto check = [](const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "setup error: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  };
  check(db->ExecuteScript(
      "CREATE TABLE events (id INTEGER, k INTEGER, v INTEGER, s TEXT);"
      "CREATE TABLE outer_t (id INTEGER, k INTEGER)"));
  for (size_t i = 0; i < kEventRows; ++i) {
    sqldb::Row row;
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i)));
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 100)));
    // Every 97th v is NULL so the kernels see three-valued inputs.
    if (i % 97 == 0) {
      row.push_back(sqldb::Value::Null());
    } else {
      row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 1000)));
    }
    row.push_back(sqldb::Value::Text((i % 7 == 0 ? "ab" : "zz") +
                                     std::to_string(i)));
    check(db->InsertRow("events", std::move(row)));
  }
  for (size_t i = 0; i < kOuterRows; ++i) {
    sqldb::Row row;
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i)));
    row.push_back(sqldb::Value::Integer(static_cast<int64_t>(i % 128)));
    check(db->InsertRow("outer_t", std::move(row)));
  }
  return db;
}

struct MicroResult {
  TimingStats timings;   // per-query micros
  double rows_per_sec = 0.0;
};

/// Times `sql` against `db`: warm-ups (plan-cache fill, hash-join builds),
/// then kRepetitions timed executions. `rows_per_query` is the work notion
/// the throughput is reported in (rows scanned or probes answered).
MicroResult RunQuery(sqldb::Database* db, const std::string& sql,
                     size_t rows_per_query) {
  MicroResult out;
  for (int i = 0; i < kWarmups; ++i) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch sw;
    auto r = db->Execute(sql);
    double us = sw.ElapsedMicros();
    if (!r.ok()) {
      std::fprintf(stderr, "query error: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    out.timings.Add(us);
  }
  out.rows_per_sec =
      static_cast<double>(rows_per_query) * 1e6 / out.timings.Average();
  return out;
}

BenchJsonRecord Record(std::string name, const MicroResult& r) {
  BenchJsonRecord rec = RecordFromTimings(std::move(name), r.timings);
  rec.matches_per_sec = r.rows_per_sec;  // rows/sec for the micro benches
  return rec;
}

std::string FormatRowsPerSec(double v) {
  char buf[64];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM rows/s", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fk rows/s", v / 1e3);
  }
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv);
  std::vector<BenchJsonRecord> records;

  struct Workload {
    const char* name;
    std::string sql;
    size_t rows_per_query;
  };
  const Workload workloads[] = {
      {"scan_filter",
       "SELECT id FROM events WHERE k = 7 AND v < 200", kEventRows},
      {"expr_eval",
       "SELECT id FROM events WHERE (v < 100 OR s LIKE 'ab%') "
       "AND k IN (1, 2, 3, 5, 8, 13)",
       kEventRows},
      {"hash_probe",
       "SELECT o.id FROM outer_t o WHERE EXISTS (SELECT * FROM events e "
       "WHERE e.k = o.k AND e.v < 50)",
       kOuterRows},
  };

  std::printf("Executor microbenchmarks (%zu-row events table, "
              "%d reps per cell)\n\n",
              kEventRows, kRepetitions);
  std::vector<int> widths = {12, 16, 16, 9};
  PrintTableRule(widths);
  PrintTableRow({"workload", "vectorized", "scalar", "speedup"}, widths);
  PrintTableRule(widths);

  for (const Workload& w : workloads) {
    auto vec_db = MakeDatabase(/*vectorized=*/true);
    auto scalar_db = MakeDatabase(/*vectorized=*/false);
    MicroResult vec = RunQuery(vec_db.get(), w.sql, w.rows_per_query);
    MicroResult scalar = RunQuery(scalar_db.get(), w.sql, w.rows_per_query);
    PrintTableRow({w.name, FormatRowsPerSec(vec.rows_per_sec),
                   FormatRowsPerSec(scalar.rows_per_sec),
                   [&] {
                     char buf[32];
                     std::snprintf(buf, sizeof(buf), "%.2fx",
                                   scalar.timings.Average() /
                                       vec.timings.Average());
                     return std::string(buf);
                   }()},
                  widths);
    records.push_back(Record(std::string("micro/") + w.name, vec));
    records.push_back(Record(std::string("micro/") + w.name + "_novec",
                             scalar));
  }
  PrintTableRule(widths);

  if (!json_path.empty()) {
    auto written = WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
  return 0;
}

}  // namespace p3pdb::bench

int main(int argc, char** argv) { return p3pdb::bench::Main(argc, argv); }
