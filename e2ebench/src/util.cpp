#include "util.h"

#include <sys/resource.h>

#include <cmath>
#include <numeric>
#include <thread>

namespace e2e {

void sleep_until_ms(double deadline_ms) {
  const double wait = deadline_ms - now_ms();
  if (wait > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait));
  }
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void WindowedLatency::start(double start_ms, double window_ms,
                            std::size_t windows) {
  start_ms_ = start_ms;
  window_ms_ = window_ms;
  windows_.assign(windows, {});
}

void WindowedLatency::add(double done_ms, double latency_ms) {
  all_.push_back(latency_ms);
  const double at = (done_ms - start_ms_) / window_ms_;
  if (at < 0.0) return;
  const auto i = static_cast<std::size_t>(at);
  if (i < windows_.size()) windows_[i].push_back(latency_ms);
}

void WindowedLatency::merge(const WindowedLatency& other) {
  if (windows_.size() < other.windows_.size()) {
    start_ms_ = other.start_ms_;
    window_ms_ = other.window_ms_;
    windows_.resize(other.windows_.size());
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    windows_[i].insert(windows_[i].end(), other.windows_[i].begin(),
                       other.windows_[i].end());
  }
  all_.insert(all_.end(), other.all_.begin(), other.all_.end());
}

double WindowedLatency::percentile_all(double p) const {
  std::vector<double> v = all_;
  return e2e::percentile(v, p);
}

std::size_t WindowedLatency::full_windows(double end_ms) const {
  if (end_ms <= start_ms_) return 0;
  return std::min(windows_.size(),
                  static_cast<std::size_t>((end_ms - start_ms_) / window_ms_));
}

double WindowedLatency::percentile(double p, double end_ms) const {
  std::vector<double> per_window;
  for (std::size_t i = 0; i < full_windows(end_ms); ++i) {
    std::vector<double> w = windows_[i];
    if (!w.empty()) per_window.push_back(e2e::percentile(w, p));
  }
  return e2e::percentile(per_window, 50);
}

double WindowedLatency::rate(double end_ms) const {
  std::vector<double> per_window;
  for (std::size_t i = 0; i < full_windows(end_ms); ++i) {
    per_window.push_back(static_cast<double>(windows_[i].size()) /
                         (window_ms_ / 1e3));
  }
  return e2e::percentile(per_window, 50);
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t counter_total(const zdc::obs::MetricsRegistry& reg,
                            const std::string& family) {
  std::uint64_t total = 0;
  for (const auto& fam : reg.snapshot()) {
    if (fam.name != family) continue;
    for (const auto& point : fam.points) total += point.counter;
  }
  return total;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("check %-32s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : " ", detail.c_str());
  if (!ok) {
    // A failed output check fails the run and counts as a failed operation.
    ++checks_failed_;
    ++attempted_;
    ++failed_;
  }
}

void Report::print(const MetricList& list) const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : list) {
    const auto it = metrics_.find(name);
    const double v = it == metrics_.end() ? 0.0 : it->second.first;
    std::printf("metric %-34s %.6g %s\n", name.c_str(), v, unit.c_str());
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace e2e
