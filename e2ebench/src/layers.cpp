#include "layers.h"

#include <chrono>
#include <cmath>
#include <string>

namespace e2e {

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"}, {"write_p50_ms", "ms"}, {"op_p50_ms", "ms"}};
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      {"abcast.order_ms_p50", "ms"},
      {"abcast.order_ms_p99", "ms"},
      {"abcast.cmds_per_instance", "count"},
      {"abcast.msgs_per_op", "count"},
      {"abcast.bytes_per_op", "B"},
      {"consensus.rounds_per_decision", "count"},
      {"consensus.wasted_round_ratio", "ratio"},
      {"wab.datagrams_per_op", "count"},
      {"wab.hop_ms_p50", "ms"},
      {"wab.hop_ms_p99", "ms"},
      {"storage.syncs_per_write", "count"},
      {"storage.sync_ms_p50", "ms"},
      {"storage.sync_ms_p99", "ms"},
      {"storage.busy_share", "ratio"},
      {"storage.bytes_per_write", "B"},
      {"storage.checkpoint_byte_share", "ratio"},
      {"recovery.restart_ms", "ms"},
      {"recovery.catchup_ms", "ms"},
      {"recovery.catchup_entries", "count"},
      {"recovery.snapshots_installed", "count"},
      {"recovery.failover_ms", "ms"},
      {"service.reply_ms_p50", "ms"},
      {"service.read_p50_ms", "ms"},
      {"service.read_p99_ms", "ms"},
      {"service.fast_read_ratio", "ratio"},
      {"service.retries_per_op", "count"},
      {"core.apply_us_p50", "us"},
      {"runtime.udp_retransmit_ratio", "ratio"},
      {"runtime.udp_hop_ms_p50", "ms"},
      {"runtime.udp_hop_ms_p99", "ms"},
      {"runtime.schedule_delay_ms_p50", "ms"},
      {"runtime.schedule_delay_ms_p99", "ms"},
      {"runtime.inproc_queue_depth_max", "count"},
      {"runtime.fd_false_suspicions", "count"},
      {"runtime.fd_detect_ms", "ms"},
      {"runtime.cpu_ms_per_op", "ms"},
      {"runtime.cpu_util", "cores"},
      {"gen.lateness_ms_p99", "ms"},
      {"budget.gen_ms_mean", "ms"},
      {"budget.order_ms_mean", "ms"},
      {"budget.storage_ms_mean", "ms"},
      {"budget.apply_ms_mean", "ms"},
      {"budget.reply_ms_mean", "ms"},
      {"budget.sum_ms", "ms"},
      {"budget.e2e_mean_ms", "ms"},
      {"budget.gap_share", "ratio"},
      {"budget.coverage", "ratio"},
      {"trace.overhead_write_p50_ms", "ms"},
      {"trace.overhead_ops_share", "ratio"},
  };
  return list;
}

RuntimeProbe::RuntimeProbe(zdc::runtime::Transport& net,
                           std::vector<zdc::obs::Gauge*> depth)
    : net_(net), depth_(std::move(depth)),
      delays_(std::make_shared<SharedSamples>()) {
  thread_ = std::thread([this] { loop(); });
}

void RuntimeProbe::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void RuntimeProbe::loop() {
  std::uint32_t next = 0;
  while (!stop_.load()) {
    for (const zdc::obs::Gauge* g : depth_) {
      depth_max_ = std::max(depth_max_, g->value());
    }
    const double t = now_ms();
    std::shared_ptr<SharedSamples> sink = delays_;
    net_.schedule(next++ % net_.size(), 0.0,
                  [sink, t] { sink->add(now_ms() - t); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void report_schedule_delay(RuntimeProbe& probe, Report& report) {
  std::vector<double> d = probe.delays();
  report.metric("runtime.schedule_delay_ms_p50", percentile(d, 50), "ms");
  report.metric("runtime.schedule_delay_ms_p99", percentile(d, 99), "ms");
}

void report_protocol(zdc::runtime::RuntimeCluster& cluster, Report& report) {
  std::uint64_t a_broadcasts = 0, a_deliveries = 0, instances = 0,
                w_broadcasts = 0, msgs = 0, bytes = 0, rounds = 0,
                decisions = 0, wasted = 0;
  const std::uint32_t n = cluster.size();
  for (zdc::ProcessId p = 0; p < n; ++p) {
    const auto& m = cluster.node(p).metrics();
    a_broadcasts += m.a_broadcasts;
    a_deliveries += m.a_deliveries;
    instances += m.consensus_instances;
    w_broadcasts += m.w_broadcasts;
    msgs += m.transport.messages_sent;
    bytes += m.transport.bytes_sent;
    rounds += m.transport.rounds_started;
    decisions += m.transport.decisions;
    wasted += m.transport.wasted_rounds;
  }
  const double ops = std::max<double>(1.0, static_cast<double>(a_broadcasts));
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  report.metric("abcast.cmds_per_instance", ratio(a_deliveries, instances),
                "count");
  report.metric("abcast.msgs_per_op", static_cast<double>(msgs) / ops, "count");
  report.metric("abcast.bytes_per_op", static_cast<double>(bytes) / ops, "B");
  // Each w-broadcast is one datagram to every node.
  report.metric("wab.datagrams_per_op",
                static_cast<double>(w_broadcasts) * n / ops, "count");
  if (decisions == 0) {
    report.note("consensus counters are unfilled: no decision was folded "
                "into the nodes' protocol metrics");
  }
  report.metric("consensus.rounds_per_decision", ratio(rounds, decisions),
                "count");
  report.metric("consensus.wasted_round_ratio", ratio(wasted, rounds), "ratio");
}

void report_false_suspicions(zdc::runtime::RuntimeCluster& cluster,
                             Report& report) {
  std::uint64_t total = 0;
  for (zdc::ProcessId p = 0; p < cluster.size(); ++p) {
    total += cluster.node(p).failure_detector().false_suspicions();
  }
  report.metric("runtime.fd_false_suspicions", static_cast<double>(total),
                "count");
}

void report_cpu(double cpu, double elapsed_ms, double ops, Report& report) {
  report.metric("runtime.cpu_ms_per_op", cpu / std::max(1.0, ops), "ms");
  report.metric("runtime.cpu_util", cpu / elapsed_ms, "cores");
}

void report_budget(const Budget& b, double e2e_mean, std::uint64_t e2e_count,
                   double tolerance, Report& report) {
  const double sum =
      mean(b.gen) + mean(b.order) + mean(b.storage) + mean(b.apply) +
      mean(b.reply);
  const double gap =
      e2e_mean > 0.0 ? std::abs(sum - e2e_mean) / e2e_mean : 1.0;
  report.metric("budget.gen_ms_mean", mean(b.gen), "ms");
  report.metric("budget.order_ms_mean", mean(b.order), "ms");
  report.metric("budget.storage_ms_mean", mean(b.storage), "ms");
  report.metric("budget.apply_ms_mean", mean(b.apply), "ms");
  report.metric("budget.reply_ms_mean", mean(b.reply), "ms");
  report.metric("budget.sum_ms", sum, "ms");
  report.metric("budget.e2e_mean_ms", e2e_mean, "ms");
  report.metric("budget.gap_share", gap, "ratio");
  report.metric("budget.coverage",
                e2e_count == 0 ? 0.0
                               : static_cast<double>(b.order.size()) /
                                     static_cast<double>(e2e_count),
                "ratio");
  report.check("layer_budget_adds_up", gap <= tolerance,
               "sum " + std::to_string(sum) + " ms vs mean " +
                   std::to_string(e2e_mean) + " ms, tolerance " +
                   std::to_string(tolerance));
}

}  // namespace e2e
