// Tests for the runtime workload driver (the harness behind
// bench_runtime_validation).
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "runtime/workload.h"

namespace zdc::runtime {
namespace {

TEST(RuntimeWorkload, DeliversEverythingInTotalOrder) {
  RuntimeWorkloadConfig cfg;
  cfg.cluster.group = GroupParams{4, 1};
  cfg.cluster.kind = ProtocolKind::kCAbcastP;
  cfg.cluster.net.seed = 21;
  cfg.throughput_per_s = 800.0;
  cfg.message_count = 120;
  cfg.seed = 21;
  auto r = run_runtime_workload(cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.total_order_ok);
  EXPECT_EQ(r.delivered_total, 120u * 4);
  EXPECT_GT(r.latency_ms.count(), 0u);
  EXPECT_GT(r.latency_ms.mean(), 0.0);
  // Open loop: every send happens at or after its due time.
  EXPECT_GE(r.gen_lateness_ms_p99, 0.0);
  EXPECT_LT(r.gen_lateness_ms_p99, r.duration_ms);
}

TEST(RuntimeWorkload, SnapshotsFollowTheirPeriod) {
  obs::MetricsRegistry metrics;
  RuntimeWorkloadConfig cfg;
  cfg.cluster.group = GroupParams{4, 1};
  cfg.cluster.kind = ProtocolKind::kCAbcastL;
  cfg.cluster.metrics = &metrics;
  cfg.throughput_per_s = 1000.0;
  cfg.message_count = 200;  // about 200 ms of arrivals
  cfg.snapshot_period_ms = 40.0;
  int snapshots = 0;
  cfg.on_snapshot = [&](const std::string& json) {
    EXPECT_FALSE(json.empty());
    ++snapshots;
  };
  auto r = run_runtime_workload(cfg);
  ASSERT_TRUE(r.complete);
  // One per period while it ran, plus the final one.
  const int periods = static_cast<int>(r.duration_ms / 40.0);
  EXPECT_GE(snapshots, periods / 2 + 1) << r.duration_ms << " ms";
  EXPECT_LE(snapshots, periods + 2) << r.duration_ms << " ms";
}

TEST(RuntimeWorkload, PaxosGroupOfThree) {
  RuntimeWorkloadConfig cfg;
  cfg.cluster.group = GroupParams{3, 1};
  cfg.cluster.kind = ProtocolKind::kPaxos;
  cfg.cluster.net.seed = 22;
  cfg.throughput_per_s = 500.0;
  cfg.message_count = 80;
  cfg.seed = 22;
  auto r = run_runtime_workload(cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.total_order_ok);
  EXPECT_EQ(r.delivered_total, 80u * 3);
}

TEST(RuntimeWorkload, OverUdpSockets) {
  RuntimeWorkloadConfig cfg;
  cfg.cluster.group = GroupParams{4, 1};
  cfg.cluster.kind = ProtocolKind::kCAbcastL;
  cfg.cluster.transport = RuntimeCluster::TransportKind::kUdp;
  cfg.cluster.udp.retransmit_interval_ms = 8.0;
  cfg.cluster.fd.initial_timeout_ms = 150.0;
  cfg.throughput_per_s = 400.0;
  cfg.message_count = 60;
  cfg.seed = 23;
  auto r = run_runtime_workload(cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.total_order_ok);
  EXPECT_EQ(r.delivered_total, 60u * 4);
}

TEST(RuntimeWorkload, WarmupFractionShrinksSampleCount) {
  RuntimeWorkloadConfig cfg;
  cfg.cluster.group = GroupParams{4, 1};
  cfg.cluster.kind = ProtocolKind::kCAbcastL;
  cfg.throughput_per_s = 1000.0;
  cfg.message_count = 50;
  cfg.warmup_fraction = 0.5;
  auto r = run_runtime_workload(cfg);
  ASSERT_TRUE(r.complete);
  EXPECT_LE(r.latency_ms.count(), 25u);
  EXPECT_GE(r.latency_ms.count(), 20u);  // allow rounding at the boundary
}

}  // namespace
}  // namespace zdc::runtime
