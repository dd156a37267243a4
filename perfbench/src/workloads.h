// The benchmark's workloads. Each builds its inputs from the seed, sets up
// (several times, for a median set-up time), measures for the requested
// time, checks every answer, and fills a report.

#ifndef P3PDB_PERFBENCH_WORKLOADS_H_
#define P3PDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "src/util.h"

namespace p3pdb::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and phases, for the benchmark's own smoke test.
  bool smoke = false;
  /// Threads the run may use in total, load generators and installers
  /// included.
  int threads = 1;
  /// Directory for durable stores and span files, relative to the
  /// checkout root (the working directory).
  std::string work_dir = ".bench_work";
};

struct RunReport {
  /// Every end-to-end metric the workload measured (untraced run).
  MetricSet end_to_end;
  /// Every per-layer metric (traced run).
  MetricSet per_layer;
  Outcomes outcomes;
};

/// tier_miss, tier_hit and tier_churn.
Status RunTierWorkload(const RunOptions& options, RunReport* report);

/// paper_fig20.
Status RunFig20Workload(const RunOptions& options, RunReport* report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

}  // namespace p3pdb::perfbench

#endif  // P3PDB_PERFBENCH_WORKLOADS_H_
