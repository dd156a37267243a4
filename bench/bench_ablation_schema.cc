// A1 — ablation of the §5.4 schema optimizations: the same preferences
// matched over the optimized (Figure 14) schema vs. the pedagogical
// one-table-per-element (Figure 8) schema.
//
// The optimized translator merges per-value subqueries (Figure 15), so its
// queries carry far fewer EXISTS evaluations; the executor statistics
// printed alongside the timings show exactly where the time goes.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/harness.h"
#include "common/string_util.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::bench {
namespace {

using server::EngineKind;
using workload::JrcPreference;
using workload::PreferenceLevel;
using workload::PreferenceLevelName;

struct SchemaRun {
  TimingStats per_match;
  sqldb::ExecStats stats;
  size_t sql_bytes = 0;
};

Result<SchemaRun> Measure(EngineKind kind, PreferenceLevel level) {
  SchemaRun out;
  P3PDB_ASSIGN_OR_RETURN(auto server, MakeBenchServer(kind));
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : workload::FortuneCorpus()) {
    P3PDB_ASSIGN_OR_RETURN(int64_t id, server->InstallPolicy(policy));
    ids.push_back(id);
  }
  P3PDB_ASSIGN_OR_RETURN(server::CompiledPreference pref,
                         server->CompilePreference(JrcPreference(level)));
  for (const std::string& q : pref.sql.rule_queries) out.sql_bytes += q.size();

  // Warm-up.
  for (int64_t id : ids) {
    auto r = server->MatchPolicyId(pref, id);
    if (!r.ok()) return r.status();
  }
  server->database()->ResetStats();
  for (int rep = 0; rep < 3; ++rep) {
    for (int64_t id : ids) {
      Stopwatch sw;
      auto r = server->MatchPolicyId(pref, id);
      double us = sw.ElapsedMicros();
      if (!r.ok()) return r.status();
      out.per_match.Add(us);
    }
  }
  out.stats = server->database()->stats();
  return out;
}

void PrintAblation() {
  std::printf(
      "Ablation A1: optimized (Figure 14) vs simple (Figure 8) schema\n");
  std::vector<int> widths = {11, 10, 12, 13, 13, 13, 10};
  PrintTableRule(widths);
  PrintTableRow({"Preference", "Schema", "Query (avg)", "SQL size",
                 "Subqueries", "Rows scanned", "Speedup"},
                widths);
  PrintTableRule(widths);
  for (PreferenceLevel level : workload::AllPreferenceLevels()) {
    auto optimized = Measure(EngineKind::kSql, level);
    auto simple = Measure(EngineKind::kSqlSimple, level);
    if (!optimized.ok() || !simple.ok()) {
      std::printf("error: %s %s\n",
                  optimized.ok() ? "" : optimized.status().ToString().c_str(),
                  simple.ok() ? "" : simple.status().ToString().c_str());
      return;
    }
    double speedup = simple.value().per_match.Average() /
                     optimized.value().per_match.Average();
    PrintTableRow(
        {PreferenceLevelName(level), "optimized",
         FormatMicros(optimized.value().per_match.Average()),
         std::to_string(optimized.value().sql_bytes) + " B",
         std::to_string(optimized.value().stats.subquery_evals),
         std::to_string(optimized.value().stats.rows_scanned), ""},
        widths);
    PrintTableRow(
        {"", "simple", FormatMicros(simple.value().per_match.Average()),
         std::to_string(simple.value().sql_bytes) + " B",
         std::to_string(simple.value().stats.subquery_evals),
         std::to_string(simple.value().stats.rows_scanned),
         FormatDouble(speedup, 2) + "x"},
        widths);
  }
  PrintTableRule(widths);
  std::printf(
      "(the §5.4 merging collapses per-value tables into value columns: "
      "fewer, flatter subqueries and less SQL text per preference)\n\n");
}

void BM_HighPreferenceOptimizedSchema(benchmark::State& state) {
  auto server = MakeBenchServer(EngineKind::kSql);
  if (!server.ok()) {
    state.SkipWithError("server");
    return;
  }
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : workload::FortuneCorpus()) {
    auto id = server.value()->InstallPolicy(policy);
    if (!id.ok()) {
      state.SkipWithError("install");
      return;
    }
    ids.push_back(id.value());
  }
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  if (!pref.ok()) {
    state.SkipWithError("compile");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = server.value()->MatchPolicyId(pref.value(),
                                           ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HighPreferenceOptimizedSchema);

void BM_HighPreferenceSimpleSchema(benchmark::State& state) {
  auto server = MakeBenchServer(EngineKind::kSqlSimple);
  if (!server.ok()) {
    state.SkipWithError("server");
    return;
  }
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : workload::FortuneCorpus()) {
    auto id = server.value()->InstallPolicy(policy);
    if (!id.ok()) {
      state.SkipWithError("install");
      return;
    }
    ids.push_back(id.value());
  }
  auto pref = server.value()->CompilePreference(
      JrcPreference(PreferenceLevel::kHigh));
  if (!pref.ok()) {
    state.SkipWithError("compile");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = server.value()->MatchPolicyId(pref.value(),
                                           ids[i++ % ids.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HighPreferenceSimpleSchema);

}  // namespace
}  // namespace p3pdb::bench

int main(int argc, char** argv) {
  p3pdb::bench::PrintAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
