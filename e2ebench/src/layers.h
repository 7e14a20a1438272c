// Per-layer readings shared by the workloads: the runtime sampler and the
// protocol counters, plus the metric catalogue the report prints.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime_node.h"
#include "util.h"

namespace e2e {

/// The end-to-end metrics every workload reports from untraced stacks.
const MetricList& end_to_end_metrics();
/// The per-layer metrics every workload reports from its traced stack; a
/// layer the workload bypasses reads 0.
const MetricList& per_layer_metrics();

/// Traced-mode sampler: every 2 ms it reads the queue-depth gauges (if any)
/// and schedules a no-delay callback on the next node, timing how long that
/// callback waits for the node's worker (mailbox wait on inproc, the poll
/// slice on UDP).
class RuntimeProbe {
 public:
  RuntimeProbe(zdc::runtime::Transport& net,
               std::vector<zdc::obs::Gauge*> depth);
  ~RuntimeProbe() { stop(); }
  RuntimeProbe(const RuntimeProbe&) = delete;
  RuntimeProbe& operator=(const RuntimeProbe&) = delete;

  void stop();
  [[nodiscard]] double depth_max() const { return depth_max_; }
  [[nodiscard]] std::vector<double> delays() { return delays_->take(); }

 private:
  void loop();

  zdc::runtime::Transport& net_;
  std::vector<zdc::obs::Gauge*> depth_;
  /// Shared with the scheduled callbacks, which may run after stop().
  std::shared_ptr<SharedSamples> delays_;
  double depth_max_ = 0.0;  ///< probe thread until joined
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last: started after the members it uses
};

/// Reports the schedule-delay percentiles a probe collected.
void report_schedule_delay(RuntimeProbe& probe, Report& report);

/// Abcast, consensus and WAB counters summed over every node, per
/// a-broadcast. Call once the cluster has shut down (the counters belong to
/// the worker threads).
void report_protocol(zdc::runtime::RuntimeCluster& cluster, Report& report);

/// False suspicions summed over every node's heartbeat failure detector.
void report_false_suspicions(zdc::runtime::RuntimeCluster& cluster,
                             Report& report);

/// The process CPU used over a timed phase, per completed operation and as
/// cores busy.
void report_cpu(double cpu_ms, double elapsed_ms, double ops, Report& report);

/// Reports the layer budget of one traced phase: the mean of each component
/// interval, their sum against the end-to-end mean, and the check that the
/// sum is within `tolerance` of it. The components partition each
/// operation's latency, so a gap means operations without a full set of
/// stamps.
struct Budget {
  std::vector<double> gen, order, storage, apply, reply;
};
void report_budget(const Budget& b, double e2e_mean, std::uint64_t e2e_count,
                   double tolerance, Report& report);

}  // namespace e2e
