// Shared plumbing of the benchmark: clock, sample statistics and the report
// that becomes the run's final JSON line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank quantile of an unsorted sample (p in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto i = std::min(values.size() - 1,
                          static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[i];
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// What one run measured and what went wrong in it. `failed` counts
/// operations (a request without a decision, a shed request, a protocol
/// error or timeout, a decision or plan a check refused); every failure also
/// leaves a human-readable problem line.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// One failed operation, with the reason.
  void fail(std::string what) {
    ++failed;
    problems.push_back(std::move(what));
  }

  bool correct() const { return problems.empty(); }
};

}  // namespace perfbench
