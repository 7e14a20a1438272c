#include "runtime/workload.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace zdc::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration to_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

RuntimeWorkloadResult run_runtime_workload(const RuntimeWorkloadConfig& cfg) {
  const std::uint32_t n = cfg.cluster.group.n;

  struct Shared {
    common::Mutex mu;
    /// key -> due time (each latency is timed from it)
    std::map<std::string, Clock::time_point> sent ZDC_GUARDED_BY(mu);
    /// key -> first delivery anywhere
    std::map<std::string, Clock::time_point> first_seen ZDC_GUARDED_BY(mu);
    std::vector<std::vector<std::string>> histories ZDC_GUARDED_BY(mu);
    std::vector<std::uint32_t> counts ZDC_GUARDED_BY(mu);
    /// One accumulator per replica: each is only ever written by that
    /// replica's worker thread, then combined after the join with merge().
    std::vector<common::OnlineStats> per_replica ZDC_GUARDED_BY(mu);
  };
  Shared shared;
  {
    common::MutexLock lock(shared.mu);
    shared.histories.resize(n);
    shared.counts.assign(n, 0);
    shared.per_replica.resize(n);
  }

  obs::MetricsRegistry* metrics = cfg.cluster.metrics;
  // Two histograms instead of the old single zdc_workload_latency_ms:
  // `adeliver` is due → a-deliver at each replica (ordering latency),
  // `reply` is due → the submitting node's own delivery — the moment a
  // client of that node would see its reply. The split keeps the exported
  // numbers honest next to service paths that never a-deliver at all
  // (read-index reads report under zdc_service_client_latency_ms instead).
  obs::Histogram* adeliver_hist =
      metrics != nullptr
          ? &metrics->histogram("zdc_workload_adeliver_latency_ms", {})
          : nullptr;
  obs::Histogram* reply_hist =
      metrics != nullptr
          ? &metrics->histogram("zdc_workload_reply_latency_ms", {})
          : nullptr;

  RuntimeCluster cluster(
      cfg.cluster,
      [&shared, adeliver_hist, reply_hist](ProcessId p,
                                           const abcast::AppMessage& m) {
        const auto now = Clock::now();
        common::MutexLock lock(shared.mu);
        shared.first_seen.emplace(m.payload, now);  // first delivery wins
        shared.histories[p].push_back(m.payload);
        ++shared.counts[p];
        const auto sent_it = shared.sent.find(m.payload);
        if (sent_it != shared.sent.end()) {
          const double lat = ms_between(sent_it->second, now);
          shared.per_replica[p].add(lat);
          if (adeliver_hist != nullptr) adeliver_hist->observe(lat);
          if (reply_hist != nullptr && p == m.id.sender) {
            reply_hist->observe(lat);
          }
        }
      });
  cluster.start();
  const auto start = Clock::now();

  // Periodic metrics snapshots: a thread exports the registry as JSON every
  // snapshot_period_ms, sleeping on a condition variable that teardown
  // signals, so it neither polls nor delays the join.
  common::Mutex snapshot_mu;
  std::condition_variable snapshot_cv;
  bool snapshots_done = false;
  std::thread snapshot_thread;
  const bool snapshots_on = cfg.snapshot_period_ms > 0.0 &&
                            cfg.on_snapshot != nullptr && metrics != nullptr;
  if (snapshots_on) {
    snapshot_thread = std::thread([&] {
      const auto period = to_duration(cfg.snapshot_period_ms);
      for (auto next = Clock::now() + period;; next += period) {
        {
          common::MutexLock lock(snapshot_mu);
          if (snapshot_cv.wait_until(lock.inner(), next,
                                     [&] { return snapshots_done; })) {
            return;
          }
        }
        cfg.on_snapshot(obs::to_json(metrics->snapshot()));
      }
    });
  }

  // Open-loop Poisson arrivals from this thread, each scheduled by its
  // absolute due time and timed from it: a late send (a slow a_broadcast,
  // a descheduled generator) shows up as latency of the messages behind it
  // rather than silently lowering the offered rate. Sender chosen uniformly.
  common::Rng rng(cfg.seed);
  const double mean_gap_ms = 1000.0 / cfg.throughput_per_s;
  const std::string filler(cfg.payload_bytes, 'x');
  common::Sampler lateness_ms;
  Clock::time_point due = start;
  for (std::uint32_t i = 0; i < cfg.message_count; ++i) {
    due += to_duration(rng.exponential(mean_gap_ms));
    std::this_thread::sleep_until(due);
    const auto sender = static_cast<ProcessId>(rng.next_below(n));
    const std::string key =
        "w:" + std::to_string(sender) + ":" + std::to_string(i) + ":" + filler;
    {
      common::MutexLock lock(shared.mu);
      shared.sent.emplace(key, due);
    }
    lateness_ms.add(ms_between(due, Clock::now()));
    cluster.node(sender).a_broadcast(key);
  }

  // Wait until every replica delivered everything (or timeout).
  const bool complete = RuntimeCluster::wait_until(
      [&] {
        common::MutexLock lock(shared.mu);
        for (std::uint32_t p = 0; p < n; ++p) {
          if (shared.counts[p] < cfg.message_count) return false;
        }
        return true;
      },
      cfg.timeout_ms);
  const auto end = Clock::now();
  cluster.shutdown();
  if (snapshots_on) {
    {
      common::MutexLock lock(snapshot_mu);
      snapshots_done = true;
    }
    snapshot_cv.notify_one();
    snapshot_thread.join();
    // One final snapshot so short runs always produce at least one export.
    cfg.on_snapshot(obs::to_json(metrics->snapshot()));
  }
  // Workers are joined, but keep the post-processing reads under the lock
  // anyway: it is uncontended now, and the guarded-by discipline stays
  // checkable instead of relying on the join for the happens-before edge.
  common::MutexLock lock(shared.mu);

  RuntimeWorkloadResult result;
  result.complete = complete;
  result.duration_ms = ms_between(start, end);
  result.gen_lateness_ms_p99 =
      lateness_ms.count() > 0 ? lateness_ms.percentile(99) : 0.0;
  for (const auto& history : shared.histories) {
    result.delivered_total += history.size();
  }
  // Parallel-Welford combine of the per-worker accumulators.
  for (const auto& stats : shared.per_replica) {
    result.replica_latency_ms.merge(stats);
  }

  const auto warmup_cutoff = static_cast<std::uint32_t>(
      cfg.warmup_fraction * static_cast<double>(cfg.message_count));
  std::uint32_t index = 0;
  for (const auto& [key, sent_at] : shared.sent) {
    (void)index;
    const auto it = shared.first_seen.find(key);
    if (it == shared.first_seen.end()) continue;
    // Parse the submission index back out of the key for warmup filtering.
    const auto first_colon = key.find(':', 2);
    const auto second_colon = key.find(':', first_colon + 1);
    const auto msg_index = static_cast<std::uint32_t>(std::atoi(
        key.substr(first_colon + 1, second_colon - first_colon - 1).c_str()));
    if (msg_index < warmup_cutoff) continue;
    result.latency_ms.add(ms_between(sent_at, it->second));
  }

  // Total order: pairwise prefix consistency.
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      const auto& ha = shared.histories[a];
      const auto& hb = shared.histories[b];
      const std::size_t len = std::min(ha.size(), hb.size());
      for (std::size_t i = 0; i < len; ++i) {
        if (ha[i] != hb[i]) {
          result.total_order_ok = false;
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace zdc::runtime
