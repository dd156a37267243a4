#include "src/open_loop.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace p3pdb::perfbench {
namespace {

/// A worker sleeps until this long before a request is due, then spins.
constexpr int64_t kSpinNs = 200'000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

bool Sustained(const PhaseSummary& s, double p99_limit_us) {
  return s.completed > 0 && s.service_us.Percentile(99.0) <= p99_limit_us &&
         s.achieved_qps >= 0.99 * s.offered_qps && s.lag_rise_us <= 250.0;
}

std::vector<RequestRecord> RunPhase(const PhaseConfig& config,
                                    const RequestFn& op) {
  const uint64_t total =
      static_cast<uint64_t>(std::llround(config.seconds * config.qps));
  const double period_ns = 1e9 / config.qps;
  const int threads = std::max(1, config.threads);
  std::vector<std::vector<RequestRecord>> per_worker(threads);
  std::atomic<uint64_t> next{0};
  // A short lead so every worker is running before request 0 is due.
  const int64_t t0 = NowNs() + 2'000'000;

  auto worker = [&](int w) {
    std::vector<RequestRecord>& out = per_worker[w];
    out.reserve(total / threads + 64);
    for (;;) {
      uint64_t i = next.load(std::memory_order_acquire);
      if (i >= total) return;
      const int64_t due = t0 + static_cast<int64_t>(i * period_ns);
      int64_t now = NowNs();
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - kSpinNs));
        continue;  // re-read: another worker may have taken request i
      }
      while (now < due) {
        CpuRelax();
        now = NowNs();
      }
      if (!next.compare_exchange_strong(i, i + 1,
                                        std::memory_order_acq_rel)) {
        continue;
      }
      const int64_t start = NowNs();
      const uint64_t index = config.index_base + i;
      const int64_t done = op(w, index);
      out.push_back({due, start, done, index});
    }
  };

  std::vector<std::thread> helpers;
  for (int w = 1; w < threads; ++w) helpers.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : helpers) t.join();

  std::vector<RequestRecord> all;
  all.reserve(total);
  for (const auto& part : per_worker) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.scheduled_ns < b.scheduled_ns;
            });
  return all;
}

PhaseSummary Summarize(const std::vector<RequestRecord>& records,
                       double offered_qps) {
  PhaseSummary s;
  s.offered_qps = offered_qps;
  s.completed = records.size();
  if (records.empty()) return s;
  const int64_t first_due = records.front().scheduled_ns;
  int64_t last_done = first_due;
  size_t late = 0;
  for (const RequestRecord& r : records) {
    const double lag = NsToUs(r.start_ns - r.scheduled_ns);
    s.service_us.Add(NsToUs(r.done_ns - r.start_ns));
    s.lag_us.Add(lag);
    if (lag > PhaseSummary::kLateUs) ++late;
    last_done = std::max(last_done, r.done_ns);
  }
  s.late_ratio = static_cast<double>(late) / records.size();
  // The phase offers records.size() requests over the span of the grid;
  // finishing them takes longer when a backlog builds.
  const double grid_s = records.size() / offered_qps;
  const double span_s =
      std::max(grid_s, static_cast<double>(last_done - first_due) / 1e9);
  s.achieved_qps = records.size() / span_s;
  const size_t quarter = records.size() / 4;
  if (quarter > 0) {
    Samples head, tail;
    for (size_t i = 0; i < quarter; ++i) {
      head.Add(NsToUs(records[i].start_ns - records[i].scheduled_ns));
      const RequestRecord& r = records[records.size() - 1 - i];
      tail.Add(NsToUs(r.start_ns - r.scheduled_ns));
    }
    s.lag_rise_us = tail.Median() - head.Median();
  }
  return s;
}

bool KneeSearch::done() const {
  return floor_failed_ ||
         (lo_ > 0.0 && hi_ > 0.0 && hi_ / lo_ <= 1.0 + resolution_);
}

void KneeSearch::Record(bool sustained) {
  ++phases_;
  if (!sustained && !retrying_) {
    retrying_ = true;  // run the same rate once more
    return;
  }
  retrying_ = false;
  if (sustained) {
    lo_ = rate_;
    rate_ = hi_ > 0.0 ? std::sqrt(lo_ * hi_) : rate_ * 2.0;
    return;
  }
  hi_ = rate_;
  if (lo_ > 0.0) {
    rate_ = std::sqrt(lo_ * hi_);
  } else if (rate_ / 2.0 >= kFloorQps) {
    rate_ /= 2.0;
  } else {
    floor_failed_ = true;
  }
}

}  // namespace p3pdb::perfbench
