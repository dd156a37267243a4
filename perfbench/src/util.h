// Shared helpers of the p3pdb benchmark: clock, sample sets, deterministic
// randomness, the metric sink, and failure accounting.

#ifndef P3PDB_PERFBENCH_UTIL_H_
#define P3PDB_PERFBENCH_UTIL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace p3pdb::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Times one call; returns microseconds.
template <typename F>
double TimeUs(F&& f) {
  const int64_t start = NowNs();
  f();
  return NsToUs(NowNs() - start);
}

/// splitmix64: request i's randomness depends only on (seed, i), so every
/// run with one seed offers the same request stream.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A set of measurements with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double rank = std::ceil(p / 100.0 * sorted.size());
    size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
  }
  double Median() const { return Percentile(50.0); }
  double Mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / values_.size();
  }

 private:
  std::vector<double> values_;
};

/// Zipf(s) sampler over ranks [0, n) by inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(uint64_t r) const {
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Operations attempted and failed (errors, wrong answers, lost writes),
/// across every op type; error_rate = failed / attempted. Thread-safe.
class Outcomes {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a failure and keeps the first few messages for the report.
  void Fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(what);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run, in insertion order for printing.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = order_.size();
      order_.push_back({name, Metric{value, unit}});
    } else {
      order_[it->second].second = Metric{value, unit};
    }
  }
  const Metric* Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &order_[it->second].second;
  }
  const std::vector<std::pair<std::string, Metric>>& all() const {
    return order_;
  }

 private:
  std::map<std::string, size_t> index_;
  std::vector<std::pair<std::string, Metric>> order_;
};

/// Shortest exact-enough decimal for a metric value (all measured digits).
inline std::string FormatValue(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace p3pdb::perfbench

#endif  // P3PDB_PERFBENCH_UTIL_H_
