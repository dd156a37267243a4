// Open-loop request generator.
//
// Request i of a phase is due at t0 + i / qps, whatever happened to request
// i-1. Workers share only the index of the next request. A worker reads it,
// sleeps until shortly before that request is due, spins the final stretch
// (so the core is awake when the request starts), and claims the request
// with a compare-and-swap only once it is due. No worker holds a ticket
// while it sleeps, so one descheduled worker cannot strand a request that
// another worker could serve.
//
// Every request records three instants: scheduled (due), start (claimed
// and issued) and completion. Dispatch lag = start - scheduled is the
// generator's own lateness; service = completion - start is the system's
// time. The two are reported apart, so a late generator never reads as a
// slow tier.

#ifndef P3PDB_PERFBENCH_OPEN_LOOP_H_
#define P3PDB_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util.h"

namespace p3pdb::perfbench {

struct RequestRecord {
  int64_t scheduled_ns = 0;
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  uint64_t index = 0;
};

/// Runs one request. Gets the worker number and the request index, issues
/// the request, and returns the completion instant (NowNs() taken as soon
/// as the call returns; checking the answer happens after it).
using RequestFn = std::function<int64_t(int worker, uint64_t index)>;

struct PhaseConfig {
  double qps = 1000.0;
  double seconds = 1.0;
  int threads = 1;
  /// Requests are numbered index_base + i, so phases can offer disjoint
  /// request streams.
  uint64_t index_base = 0;
};

/// What one phase did: service time, dispatch lag, and whether the offered
/// rate was sustained.
struct PhaseSummary {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  size_t completed = 0;
  Samples service_us;
  Samples lag_us;
  /// Share of requests that started more than kLateUs after they were due.
  double late_ratio = 0.0;
  /// Median dispatch lag of the last quarter of the phase minus that of
  /// the first quarter: a growing backlog shows as a rising lag.
  double lag_rise_us = 0.0;

  static constexpr double kLateUs = 100.0;
};

/// Runs the phase on `config.threads` threads (the calling thread is
/// worker 0) and returns every request's record.
std::vector<RequestRecord> RunPhase(const PhaseConfig& config,
                                    const RequestFn& op);

/// Service time, dispatch lag and sustained-rate verdict of a phase's
/// records (sorted by scheduled time, as RunPhase returns them).
PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       double offered_qps);

/// Whether a phase sustained its offered rate: service p99 at or under
/// `p99_limit_us` and no growing backlog (achieved >= 0.99 x offered and
/// dispatch lag not rising).
bool Sustained(const PhaseSummary& summary, double p99_limit_us);

/// Knee search: the highest offered rate a phase sustains. Starts at
/// `start_qps`, doubles until a rate fails, then bisects geometrically
/// until the bracket is within `resolution` (e.g. 0.04 = 4%). A failing
/// rate is run once more before it counts as failed, so one preemption
/// stall does not set the knee. One phase per Record(), so callers can
/// interleave the search with other measurement.
class KneeSearch {
 public:
  KneeSearch(double start_qps, double resolution)
      : rate_(start_qps), resolution_(resolution) {}

  bool done() const;
  /// The offered rate of the next phase.
  double next_qps() const { return rate_; }
  /// Feeds the verdict of a phase run at next_qps().
  void Record(bool sustained);
  /// Highest rate sustained so far; never 0 (a tier that sustains nothing
  /// reports the search floor).
  double knee_qps() const { return lo_ > 0.0 ? lo_ : kFloorQps; }
  int phases() const { return phases_; }

 private:
  static constexpr double kFloorQps = 50.0;
  double rate_;
  double resolution_;
  double lo_ = 0.0;  // highest rate seen sustained
  double hi_ = 0.0;  // lowest rate seen failing (0 = none yet)
  bool retrying_ = false;
  bool floor_failed_ = false;
  int phases_ = 0;
};

}  // namespace p3pdb::perfbench

#endif  // P3PDB_PERFBENCH_OPEN_LOOP_H_
