// Workload driver for the threaded runtime: the real-concurrency counterpart
// of sim::run_abcast. An open-loop Poisson generator a-broadcasts keyed
// payloads through a RuntimeCluster (in-process mailboxes or real UDP
// sockets), each at its absolute due time; deliveries are timed from that
// due time and checked for total order — used by
// bench_runtime_validation to confirm that the protocol ordering the
// simulator predicts also holds under genuine thread/socket timing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "runtime/runtime_node.h"

namespace zdc::runtime {

struct RuntimeWorkloadConfig {
  RuntimeCluster::Config cluster;
  double throughput_per_s = 500.0;
  std::uint32_t message_count = 200;
  std::uint32_t payload_bytes = 32;
  /// Fraction of earliest messages excluded from latency statistics.
  double warmup_fraction = 0.1;
  double timeout_ms = 60'000.0;
  std::uint64_t seed = 1;
  /// When > 0 and `cluster.metrics` is set, a snapshot thread invokes
  /// `on_snapshot` with the registry's JSON export every period (plus one
  /// final snapshot before run_runtime_workload returns).
  double snapshot_period_ms = 0.0;
  std::function<void(const std::string& json)> on_snapshot;
};

struct RuntimeWorkloadResult {
  /// Wall-clock latency from a message's due time to its first a-delivery
  /// anywhere.
  common::Sampler latency_ms;
  /// Per-delivery latency across ALL replicas: accumulated as one OnlineStats
  /// per replica worker thread and combined after the join with
  /// OnlineStats::merge (parallel Welford).
  common::OnlineStats replica_latency_ms;
  bool total_order_ok = true;
  bool complete = false;  ///< every replica delivered every message
  std::uint64_t delivered_total = 0;
  double duration_ms = 0.0;
  /// p99 of how late the generator sent past each due time: the offered
  /// load is the asked-for one only while this stays small.
  double gen_lateness_ms_p99 = 0.0;
};

RuntimeWorkloadResult run_runtime_workload(const RuntimeWorkloadConfig& cfg);

}  // namespace zdc::runtime
