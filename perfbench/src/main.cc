// p3pdb_perfbench: the p3pdb benchmark program.
//
//   p3pdb_perfbench --workload <tier_miss|tier_hit|tier_churn|paper_fig20>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--commit <git commit>]
//
// Prints the run fingerprint, every metric the workload measured as
// `metric <name> <value> <unit>` lines, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// JSON metrics are the gated end-to-end metrics; with --trace 1 they are
// the per-layer metrics of the traced run (0 for a layer the workload does
// not exercise). Exits non-zero on a set-up error.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/util.h"
#include "src/workloads.h"

namespace p3pdb::perfbench {
namespace {

/// Peak resident set size of this process, in MiB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics in the final JSON line of an untraced run; every
/// workload measures each of them. The workload-specific ones (knee_qps,
/// install_p50_us, the per-engine Fig 20 medians, error_rate, ...) are
/// printed as metric lines.
constexpr MetricSpec kGatedEndToEnd[] = {
    {"setup_s", "s"},
    {"match_p50_us", "us"},
    {"match_p99_us", "us"},
    {"convert_p50_us", "us"},
    {"setup_install_p50_us", "us"},
    {"rss_mb", "MiB"},
};

/// The per-layer metrics of a traced run, in layer order.
constexpr MetricSpec kPerLayer[] = {
    {"bench.dispatch_lag_p50_us", "us"},
    {"bench.dispatch_lag_p99_us", "us"},
    {"bench.late_ratio", "ratio"},
    {"bench.calibration_lag_p50_us", "us"},
    {"bench.calibration_lag_p99_us", "us"},
    {"server.tier.match_us", "us"},
    {"server.replica.match_us", "us"},
    {"server.tier.overhead_us", "us"},
    {"server.replica.self_us", "us"},
    {"server.match_cache.hit_ratio", "ratio"},
    {"server.match_cache.lookup_us", "us"},
    {"server.match_cache.evictions_per_kop", "count/kop"},
    {"server.match_cache.invalidations_per_install", "count"},
    {"p3p.resolve_us", "us"},
    {"sqldb.query_us", "us"},
    {"sqldb.execute_us", "us"},
    {"sqldb.rules_per_match", "count"},
    {"sqldb.rows_scanned_per_match", "count"},
    {"sqldb.hash_join_probes_per_match", "count"},
    {"sqldb.lex_us", "us"},
    {"sqldb.parse_us", "us"},
    {"sqldb.bind_us", "us"},
    {"sqldb.plan_us", "us"},
    {"sqldb.plan_cache.hit_ratio", "ratio"},
    {"shredder.shred_us", "us"},
    {"shredder.rows_per_policy", "count"},
    {"server.tier.install_us", "us"},
    {"server.tier.catchup_publish_us", "us"},
    {"sqldb.wal.commit_us", "us"},
    {"sqldb.wal.fsync_us", "us"},
    {"sqldb.wal.fsyncs_per_install", "count"},
    {"sqldb.wal.bytes_per_install", "B"},
    {"sqldb.wal.group_size", "count"},
    {"sqldb.checkpoints", "count"},
    {"translator.translate_us", "us"},
    {"appel.parse_us", "us"},
    {"xml.parse_us", "us"},
    {"appel.eval_us", "us"},
    {"xquery.translate_us", "us"},
    {"xquery.eval_us", "us"},
    {"trace.unattributed_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// Seed, CPUs, compiler, build type and commit: what another machine needs
/// to know before comparing numbers. The commit is the one run.py reads at
/// run time (--commit), so a reused build tree never reports a stale one.
void PrintFingerprint(const RunOptions& options, const std::string& commit) {
  const std::string build_type = P3PDB_BUILD_TYPE;
  const bool comparable = build_type == "Release";
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%d,\"hardware_concurrency\":%u,"
      "\"cpu_model\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_commit\":\"%s\",\"comparable\":%s}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, AffinityCpus(),
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(__VERSION__).c_str(), build_type.c_str(),
      JsonEscape(commit.empty() ? "unknown" : commit).c_str(),
      comparable ? "true" : "false");
  if (!comparable) {
    std::printf("warning: %s build; numbers are not comparable with "
                "Release runs\n",
                build_type.c_str());
  }
}

std::string FlagValue(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return "";
}

bool HasFlag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: p3pdb_perfbench --workload "
               "<tier_miss|tier_hit|tier_churn|paper_fig20> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--commit <sha>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace p3pdb::perfbench

int main(int argc, char** argv) {
  using namespace p3pdb::perfbench;
  RunOptions options;
  options.workload = FlagValue(argc, argv, "--workload");
  const std::string seed = FlagValue(argc, argv, "--seed");
  const std::string seconds = FlagValue(argc, argv, "--seconds");
  const std::string trace = FlagValue(argc, argv, "--trace");
  if (options.workload != "tier_miss" && options.workload != "tier_hit" &&
      options.workload != "tier_churn" && options.workload != "paper_fig20") {
    return Usage("unknown --workload");
  }
  if (seed.empty() || seconds.empty()) return Usage("--seed and --seconds");
  options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  options.seconds = std::atof(seconds.c_str());
  if (!(options.seconds > 0.0)) return Usage("--seconds must be > 0");
  options.trace = trace == "1";
  options.smoke = HasFlag(argc, argv, "--smoke");
  options.threads = AffinityCpus();
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create the work directory");

  PrintFingerprint(options, FlagValue(argc, argv, "--commit"));
  RunReport report;
  p3pdb::Status status = options.workload == "paper_fig20"
                             ? RunFig20Workload(options, &report)
                             : RunTierWorkload(options, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  const uint64_t attempted = report.outcomes.attempted();
  const uint64_t failed = report.outcomes.failed();
  for (const std::string& message : report.outcomes.messages()) {
    std::printf("failure: %s\n", message.c_str());
  }
  report.end_to_end.Set("rss_mb", PeakRssMb(), "MiB");
  report.end_to_end.Set(
      "error_rate",
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
      "ratio");
  for (const MetricSpec& spec : kPerLayer) {
    if (report.per_layer.Find(spec.name) == nullptr) {
      report.per_layer.Set(spec.name, 0.0, spec.unit);
    }
  }
  const MetricSet& shown = options.trace ? report.per_layer
                                         : report.end_to_end;
  for (const auto& [name, metric] : shown.all()) {
    std::printf("metric %s %s %s\n", name.c_str(),
                FormatValue(metric.value).c_str(), metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, const Metric& metric) {
    json += first ? "" : ", ";
    first = false;
    json += '"';
    json += name;
    json += "\": {\"value\": ";
    json += FormatValue(metric.value);
    json += ", \"unit\": \"";
    json += metric.unit;
    json += "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec.name, *report.per_layer.Find(spec.name));
    }
  } else {
    for (const MetricSpec& spec : kGatedEndToEnd) {
      const Metric* metric = report.end_to_end.Find(spec.name);
      if (metric == nullptr) {
        std::fprintf(stderr, "error: metric %s not measured\n", spec.name);
        return 1;
      }
      emit(spec.name, *metric);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
