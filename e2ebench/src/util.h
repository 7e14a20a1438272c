// Shared plumbing of the end-to-end benchmark: the clock, sample sets,
// process-resource readings and the result report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace e2e {

/// (metric name, unit) pairs in print order.
using MetricList = std::vector<std::pair<std::string, std::string>>;

/// Milliseconds on the monotonic clock since the first call.
inline double now_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

/// Sleeps until `deadline_ms` on the now_ms() clock (no-op when past).
void sleep_until_ms(double deadline_ms);

/// Builds per untraced run: set-up time is the median over them. Fast
/// set-ups get up to kSetups builds, slow ones stop after kMinSetups once
/// kSetupBudgetMs has passed.
constexpr int kSetups = 11;
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetMs = 2500.0;
inline bool more_setups(int done, int wanted, double spent_ms) {
  if (done >= wanted) return false;
  return done < std::min(wanted, kMinSetups) || spent_ms < kSetupBudgetMs;
}

/// Nearest-rank percentile (the smallest sample with at least p% of the
/// samples at or below it); 0 for an empty set. Sorts `v` in place.
double percentile(std::vector<double>& v, double p);
double mean(const std::vector<double>& v);

/// Latencies of a timed phase, split into fixed windows by completion
/// time. The reported statistic is the median over the full windows, so a
/// burst of host contention (a shared machine's steal time) moves a few
/// windows and not the result. Percentiles are exact (nearest rank).
class WindowedLatency {
 public:
  /// Starts the phase (before any add): `windows` windows of `window_ms`.
  void start(double start_ms, double window_ms, std::size_t windows);
  void add(double done_ms, double latency_ms);
  void merge(const WindowedLatency& other);

  /// Every sample of the phase, windowed or not.
  [[nodiscard]] std::size_t count() const { return all_.size(); }
  [[nodiscard]] double mean() const { return e2e::mean(all_); }
  [[nodiscard]] double percentile_all(double p) const;
  /// Median over the windows up to `end_ms` of each window's percentile.
  [[nodiscard]] double percentile(double p, double end_ms) const;
  /// Median over the windows up to `end_ms` of completions per second.
  [[nodiscard]] double rate(double end_ms) const;

 private:
  [[nodiscard]] std::size_t full_windows(double end_ms) const;

  double start_ms_ = 0.0;
  double window_ms_ = 1000.0;
  std::vector<std::vector<double>> windows_;
  std::vector<double> all_;
};

/// A sample set filled from several threads.
class SharedSamples {
 public:
  void add(double x) {
    zdc::common::MutexLock lock(mu_);
    v_.push_back(x);
  }
  [[nodiscard]] std::vector<double> take() {
    zdc::common::MutexLock lock(mu_);
    return std::move(v_);
  }

 private:
  zdc::common::Mutex mu_;
  std::vector<double> v_ ZDC_GUARDED_BY(mu_);
};

/// Process CPU time (user + system) in milliseconds.
double cpu_ms();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// Sum of every point of a counter family (0 when never registered).
std::uint64_t counter_total(const zdc::obs::MetricsRegistry& reg,
                            const std::string& family);

/// The run's outcome: metrics by name (value, unit), operation counts and
/// the result of every output check.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// A number printed for the reader but kept out of the JSON result.
  void info(const std::string& name, double value, const std::string& unit) {
    std::printf("info %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void note(const std::string& line) { std::printf("note %s\n", line.c_str()); }
  /// Records an output check; a failed one fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return checks_failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Prints one "metric" line per entry of `list` (in that order) and then
  /// the single-line JSON result holding exactly those metrics; a metric the
  /// run did not set (a layer the workload bypasses) reads 0.
  void print(const MetricList& list) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int checks_failed_ = 0;
};

}  // namespace e2e
