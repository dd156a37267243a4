// Storage-engine benchmark: what durability costs, and what recovery costs.
//
// Three questions, each a record in the --json report:
//
//   storage/install_memory     baseline install cost, in-memory engine
//   storage/install_memory_nostats
//                              the same installs with statistics-catalog
//                              maintenance disabled (what incremental
//                              NDV/min-max upkeep costs; absent under
//                              --no-stats, which disables stats everywhere)
//   storage/install_disk       the same installs with WAL append + fsync
//                              per install transaction
//   storage/open_checkpoint    cold open of a checkpointed directory
//                              (one sequential pass over the image, no
//                              replay)
//   storage/open_wal_replay    cold open of the same corpus left entirely
//                              in the WAL (two-pass scan + redo)
//
// The checkpoint-vs-replay pair is the recovery-cost tradeoff the
// checkpoint threshold (`storage_checkpoint_wal_bytes`) tunes: a
// checkpoint is sequential page reads, replay re-executes every committed
// record. The checkpoint image's size in 8 KiB pages is printed alongside.
//
// `--group-commit` runs a different experiment: what fsync coalescing buys
// concurrent installers. Eight threads (enough in-flight committers that a
// leader sync has real followers to absorb) install disjoint slices of the
// corpus into one disk-backed server. Every commit stages its record and
// waits in the leader/follower fsync queue; the server's
// `storage_group_commit` flag chooses whether an install releases its
// exclusive lock before that wait (so concurrent installs coalesce onto one
// leader fsync) or holds it (so each install pays its own fsync). Two
// records:
//
//   storage/install_disk_concurrent_group
//   storage/install_disk_concurrent_nogroup

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/string_util.h"
#include "workload/corpus.h"

namespace p3pdb::bench {
namespace {

using server::EngineKind;
using server::PolicyServer;

constexpr size_t kPolicyCount = 500;
constexpr int kOpenRepetitions = 10;

Result<std::unique_ptr<PolicyServer>> MakeServer(const std::string& dir,
                                                 bool checkpoint_on_close,
                                                 bool enable_stats) {
  PolicyServer::Options options;
  options.engine = EngineKind::kSql;
  options.collect_metrics = false;
  options.enable_statement_stats = false;
  options.enable_cost_model = enable_stats;
  options.storage_path = dir;
  options.storage_checkpoint_on_close = checkpoint_on_close;
  // Never checkpoint mid-run: the "wal_replay" directory must keep its
  // whole history in the log, and the "checkpoint" one gets exactly one
  // checkpoint, at close.
  options.storage_checkpoint_wal_bytes = 1ull << 40;
  return PolicyServer::Create(options);
}

/// Installs the corpus, timing each install; empty dir = in-memory.
/// `enable_stats` toggles statistics-catalog maintenance on the write path
/// (the --no-stats ablation: what incremental NDV/min-max upkeep costs per
/// shredded install).
TimingStats InstallCorpus(const std::vector<p3p::Policy>& corpus,
                          const std::string& dir, bool checkpoint_on_close,
                          bool enable_stats) {
  TimingStats per_install;
  auto server =
      dir.empty()
          ? PolicyServer::Create({.engine = EngineKind::kSql,
                                  .enable_cost_model = enable_stats})
          : MakeServer(dir, checkpoint_on_close, enable_stats);
  if (!server.ok()) {
    std::printf("error: %s\n", server.status().ToString().c_str());
    return per_install;
  }
  for (const p3p::Policy& policy : corpus) {
    Stopwatch sw;
    auto id = server.value()->InstallPolicy(policy);
    double us = sw.ElapsedMicros();
    if (!id.ok()) {
      std::printf("error: %s\n", id.status().ToString().c_str());
      return per_install;
    }
    per_install.Add(us);
  }
  return per_install;
}

/// Times cold opens of an existing directory (destroying the server again
/// between repetitions). Returns per-open stats; reports the last open's
/// storage counters through *stats_out.
TimingStats TimeColdOpens(const std::string& dir,
                          sqldb::StorageStats* stats_out, bool enable_stats) {
  TimingStats per_open;
  for (int rep = 0; rep < kOpenRepetitions; ++rep) {
    Stopwatch sw;
    // Opening must not re-checkpoint, or the replay directory would
    // silently convert itself to a checkpointed one after the first rep.
    auto server = MakeServer(dir, /*checkpoint_on_close=*/false, enable_stats);
    double us = sw.ElapsedMicros();
    if (!server.ok()) {
      std::printf("error: %s\n", server.status().ToString().c_str());
      return per_open;
    }
    per_open.Add(us);
    *stats_out = server.value()->database()->storage_stats();
  }
  return per_open;
}

constexpr int kInstallerThreads = 8;

struct ConcurrentInstallResult {
  TimingStats per_install;   // per-install wall time, merged across threads
  double elapsed_us = 0.0;   // whole run, wall clock
  uint64_t installs = 0;
  uint64_t syncs = 0;        // WAL fsyncs over the run

  double InstallsPerSec() const {
    return elapsed_us <= 0.0 ? 0.0 : installs / (elapsed_us / 1e6);
  }
};

/// kInstallerThreads threads race disjoint corpus slices into one disk-backed
/// server. With `group_commit` the exclusive lock is released before the
/// fsync and concurrent committers coalesce onto one leader sync; without
/// it every install waits for its own fsync under the lock.
///
/// The server is the serving tier's durable-store shape — kNativeAppel,
/// catalog rows only — so the install cost is the durability tail itself,
/// not the kSql shred (which is CPU-bound, serialized under the exclusive
/// lock either way, and already priced by storage/install_disk).
ConcurrentInstallResult InstallCorpusConcurrently(
    const std::vector<p3p::Policy>& corpus, const std::string& dir,
    bool group_commit) {
  ConcurrentInstallResult result;
  std::filesystem::remove_all(dir);
  PolicyServer::Options options;
  options.engine = EngineKind::kNativeAppel;
  options.collect_metrics = false;
  options.enable_statement_stats = false;
  // Stats upkeep is serial CPU under the install lock, priced by the
  // install_memory/_nostats pair; here it would only dilute the fsync tail
  // this experiment isolates.
  options.enable_cost_model = false;
  options.storage_path = dir;
  options.storage_checkpoint_on_close = false;
  options.storage_checkpoint_wal_bytes = 1ull << 40;
  options.storage_group_commit = group_commit;
  auto server = PolicyServer::Create(options);
  if (!server.ok()) {
    std::printf("error: %s\n", server.status().ToString().c_str());
    return result;
  }

  std::vector<TimingStats> per_thread(kInstallerThreads);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  Stopwatch sw;
  for (int t = 0; t < kInstallerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < corpus.size(); i += kInstallerThreads) {
        Stopwatch install_sw;
        auto id = server.value()->InstallPolicy(corpus[i]);
        double us = install_sw.ElapsedMicros();
        if (!id.ok()) {
          ++errors;
          return;
        }
        per_thread[t].Add(us);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_us = sw.ElapsedMicros();
  if (errors.load() > 0) {
    std::printf("error: %d concurrent installs failed\n", errors.load());
    return result;
  }
  for (const TimingStats& stats : per_thread) {
    for (double us : stats.samples()) result.per_install.Add(us);
  }
  result.installs = corpus.size();
  result.syncs = server.value()->database()->storage_stats().wal_syncs;
  server.value().reset();  // close before removing the directory
  std::filesystem::remove_all(dir);
  return result;
}

void RunGroupCommit(const std::string& json_path) {
  std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.seed = 2003, .policy_count = kPolicyCount});
  std::printf(
      "Storage engine, group commit: %zu-policy corpus, %d installer "
      "threads\n\n",
      kPolicyCount, kInstallerThreads);

  ConcurrentInstallResult nogroup = InstallCorpusConcurrently(
      corpus, "bench_storage_nogroup.tmp", /*group_commit=*/false);
  ConcurrentInstallResult group = InstallCorpusConcurrently(
      corpus, "bench_storage_group.tmp", /*group_commit=*/true);
  if (group.installs == 0 || nogroup.installs == 0) return;

  std::printf(
      "fsync-per-install: %s installs/sec  avg %s p99 %s  "
      "(%llu fsyncs for %llu installs)\n"
      "group commit:      %s installs/sec  avg %s p99 %s  "
      "(%llu fsyncs for %llu installs)\n"
      "speedup: %sx\n\n",
      FormatDouble(nogroup.InstallsPerSec(), 0).c_str(),
      FormatMicros(nogroup.per_install.Average()).c_str(),
      FormatMicros(nogroup.per_install.Percentile(99.0)).c_str(),
      static_cast<unsigned long long>(nogroup.syncs),
      static_cast<unsigned long long>(nogroup.installs),
      FormatDouble(group.InstallsPerSec(), 0).c_str(),
      FormatMicros(group.per_install.Average()).c_str(),
      FormatMicros(group.per_install.Percentile(99.0)).c_str(),
      static_cast<unsigned long long>(group.syncs),
      static_cast<unsigned long long>(group.installs),
      FormatDouble(group.InstallsPerSec() / nogroup.InstallsPerSec(), 2)
          .c_str());

  if (!json_path.empty()) {
    std::vector<BenchJsonRecord> records;
    auto make_record = [](const char* name,
                          const ConcurrentInstallResult& run) {
      BenchJsonRecord record =
          RecordFromTimings(name, run.per_install);
      record.iters = run.installs;
      record.matches_per_sec = run.InstallsPerSec();  // installs/sec here
      record.hardware_concurrency = std::thread::hardware_concurrency();
      return record;
    };
    records.push_back(
        make_record("storage/install_disk_concurrent_group", group));
    records.push_back(
        make_record("storage/install_disk_concurrent_nogroup", nogroup));
    auto written = WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::printf("error: %s\n", written.ToString().c_str());
      return;
    }
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
}

void Run(const std::string& json_path, bool no_stats) {
  std::vector<p3p::Policy> corpus =
      workload::FortuneCorpus({.seed = 2003, .policy_count = kPolicyCount});

  // --no-stats flips statistics maintenance off for the whole run (the
  // ablation JSON); the default run additionally measures the in-memory
  // install both ways so one report shows what stats upkeep costs.
  const bool stats_on = !no_stats;
  std::printf("Storage engine: %zu-policy corpus%s\n\n", kPolicyCount,
              no_stats ? " (stats maintenance off)" : "");
  TimingStats install_memory = InstallCorpus(corpus, "", false, stats_on);
  TimingStats install_memory_nostats;
  if (stats_on) {
    install_memory_nostats =
        InstallCorpus(corpus, "", false, /*enable_stats=*/false);
  }

  const std::string ckpt_dir = "bench_storage_ckpt.tmp";
  const std::string wal_dir = "bench_storage_wal.tmp";
  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(wal_dir);
  TimingStats install_disk = InstallCorpus(corpus, ckpt_dir, true, stats_on);
  InstallCorpus(corpus, wal_dir, /*checkpoint_on_close=*/false, stats_on);

  std::printf(
      "install per policy:  memory avg %s p99 %s   disk avg %s p99 %s "
      "(WAL fsync per install)\n",
      FormatMicros(install_memory.Average()).c_str(),
      FormatMicros(install_memory.Percentile(99.0)).c_str(),
      FormatMicros(install_disk.Average()).c_str(),
      FormatMicros(install_disk.Percentile(99.0)).c_str());
  if (stats_on) {
    std::printf(
        "install per policy (stats maintenance off): memory avg %s p99 %s\n",
        FormatMicros(install_memory_nostats.Average()).c_str(),
        FormatMicros(install_memory_nostats.Percentile(99.0)).c_str());
  }

  sqldb::StorageStats ckpt_stats, wal_stats;
  TimingStats open_ckpt = TimeColdOpens(ckpt_dir, &ckpt_stats, stats_on);
  TimingStats open_wal = TimeColdOpens(wal_dir, &wal_stats, stats_on);
  std::printf(
      "cold open:  checkpoint avg %s   wal-replay avg %s "
      "(%llu records, %llu txns redone)\n",
      FormatMicros(open_ckpt.Average()).c_str(),
      FormatMicros(open_wal.Average()).c_str(),
      static_cast<unsigned long long>(wal_stats.recovered_records),
      static_cast<unsigned long long>(wal_stats.recovered_txns));
  uint64_t image_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
    if (entry.path().filename().string().starts_with("checkpoint.")) {
      image_bytes += entry.file_size();
    }
  }
  std::printf("checkpoint image: %llu bytes (%llu 8 KiB pages)\n\n",
              static_cast<unsigned long long>(image_bytes),
              static_cast<unsigned long long>((image_bytes + 8191) / 8192));

  std::filesystem::remove_all(ckpt_dir);
  std::filesystem::remove_all(wal_dir);

  if (!json_path.empty()) {
    std::vector<BenchJsonRecord> records;
    records.push_back(
        RecordFromTimings("storage/install_memory", install_memory));
    if (stats_on) {
      records.push_back(RecordFromTimings("storage/install_memory_nostats",
                                          install_memory_nostats));
    }
    records.push_back(RecordFromTimings("storage/install_disk", install_disk));
    records.push_back(
        RecordFromTimings("storage/open_checkpoint", open_ckpt));
    records.push_back(RecordFromTimings("storage/open_wal_replay", open_wal));
    auto written = WriteBenchJson(json_path, records);
    if (!written.ok()) {
      std::printf("error: %s\n", written.ToString().c_str());
      return;
    }
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
}

}  // namespace
}  // namespace p3pdb::bench

int main(int argc, char** argv) {
  if (p3pdb::bench::FlagInArgs(argc, argv, "--group-commit")) {
    p3pdb::bench::RunGroupCommit(p3pdb::bench::JsonPathFromArgs(argc, argv));
    return 0;
  }
  p3pdb::bench::Run(p3pdb::bench::JsonPathFromArgs(argc, argv),
                    p3pdb::bench::FlagInArgs(argc, argv, "--no-stats"));
  return 0;
}
