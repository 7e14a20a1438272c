// abcast-udp: C-Abcast over L-Consensus (n=4, f=1) on runtime::RuntimeCluster
// over loopback UdpNetwork, driven open-loop by the benchmark's own
// generator: Poisson arrivals scheduled by absolute due time, senders
// uniform over the nodes, 32-byte generated payloads. Every message is
// timed from its due time, so a generator or stack stall shows up as
// latency of the messages queued behind it.
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "obs/runtime_trace.h"
#include "runtime/runtime_node.h"
#include "runtime/udp_net.h"
#include "layers.h"
#include "util.h"
#include "workloads.h"

namespace e2e {
namespace {

using zdc::ProcessId;
using zdc::runtime::RuntimeCluster;

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kPayloadBytes = 32;
/// Base rate of the deliver_* measurements (msg/s).
constexpr double kBaseRate = 2000.0;
/// Offered-rate ladder (msg/s): from the paper's 500 msg/s past the ~6k
/// msg/s knee that run_runtime_workload showed.
constexpr std::array<double, 5> kLadder = {500, 1000, 2000, 4000, 8000};
/// A rung is met when its deliver p99 stays within this limit (ms) and no
/// backlog is left beyond what that latency allows.
constexpr double kP99LimitMs = 25.0;
/// The generator is valid only while its lateness p99 stays within this
/// bound (ms); beyond it the offered rate is not what was asked for.
constexpr double kLatenessBoundMs = 20.0;
/// Smallest rung sample: p99 then has at least ten samples beyond it.
constexpr double kMinRungMessages = 1200.0;
/// The stated tolerance of the layer budget (share of the deliver mean).
constexpr double kBudgetTolerance = 0.05;

/// How long a ladder rung offers its rate: enough messages for a p99 with
/// ten samples beyond it.
double rung_duration_ms(double rate, double seconds_ms) {
  return std::max(kMinRungMessages / rate * 1e3, 0.05 * seconds_ms);
}

/// Message number carried in the first 8 payload bytes.
std::uint64_t number_of(const std::string& payload) {
  std::uint64_t id = 0;
  if (payload.size() >= sizeof id) std::memcpy(&id, payload.data(), sizeof id);
  return id;
}

/// Per-node a-delivery log (message number, time), in delivery order.
class DeliveryLog {
 public:
  void add(std::uint64_t id, double t) {
    zdc::common::MutexLock lock(mu_);
    log_.emplace_back(id, t);
    count_.store(log_.size(), std::memory_order_release);
  }
  [[nodiscard]] std::size_t count() const {
    return count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> copy() {
    zdc::common::MutexLock lock(mu_);
    return log_;
  }

 private:
  zdc::common::Mutex mu_;
  std::vector<std::pair<std::uint64_t, double>> log_ ZDC_GUARDED_BY(mu_);
  std::atomic<std::size_t> count_{0};
};

struct Sent {
  double due = 0.0;
  double sent = 0.0;
  ProcessId sender = 0;
};

class UdpStack {
 public:
  UdpStack(std::uint64_t seed, zdc::obs::MetricsRegistry* metrics,
           zdc::obs::RuntimeTraceRecorder* trace) {
    RuntimeCluster::Config cfg;
    cfg.group = {kNodes, 1};
    cfg.transport = RuntimeCluster::TransportKind::kUdp;
    cfg.udp.seed = seed;
    cfg.kind = zdc::runtime::ProtocolKind::kCAbcastL;
    cfg.metrics = metrics;
    cfg.trace = trace;
    for (auto& log : logs_) log = std::make_unique<DeliveryLog>();
    cluster_ = std::make_unique<RuntimeCluster>(
        cfg, [this](ProcessId p, const zdc::abcast::AppMessage& m) {
          logs_[p]->add(number_of(m.payload), now_ms());
        });
  }
  ~UdpStack() { cluster_->shutdown(); }
  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  RuntimeCluster& cluster() { return *cluster_; }
  DeliveryLog& log(ProcessId p) { return *logs_[p]; }

  /// Waits until every node has a-delivered `count` messages.
  bool wait_all(std::size_t count, double timeout_ms) {
    const double deadline = now_ms() + timeout_ms;
    while (now_ms() < deadline) {
      bool all = true;
      for (auto& log : logs_) all = all && log->count() >= count;
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

 private:
  std::array<std::unique_ptr<DeliveryLog>, kNodes> logs_;
  std::unique_ptr<RuntimeCluster> cluster_;  // last: its threads use logs_
};

std::string payload_for(std::uint64_t id, zdc::common::Rng& rng) {
  std::string p(kPayloadBytes, '\0');
  std::memcpy(p.data(), &id, sizeof id);
  for (std::size_t i = sizeof id; i < kPayloadBytes; ++i) {
    p[i] = static_cast<char>('a' + rng.next_below(26));
  }
  return p;
}

/// Open-loop generator state: messages are numbered in send order.
class Generator {
 public:
  Generator(UdpStack& stack, std::uint64_t seed) : stack_(stack), rng_(seed) {}

  /// Offers `rate` msg/s (Poisson) for `duration_ms`; returns the index
  /// range [first, end) of the messages it sent.
  std::pair<std::size_t, std::size_t> offer(double rate, double duration_ms) {
    const std::size_t first = sent_.size();
    const double start = now_ms();
    double due = start;
    for (;;) {
      due += -std::log(1.0 - rng_.next_double()) * 1e3 / rate;
      if (due > start + duration_ms) break;
      // Sleeping, not spinning: a spinning generator would take a core
      // from the stack's own threads on a small host.
      sleep_until_ms(due);
      Sent s;
      s.due = due;
      s.sender = static_cast<ProcessId>(rng_.next_below(kNodes));
      const std::uint64_t id = sent_.size();
      std::string payload = payload_for(id, rng_);
      s.sent = now_ms();
      sent_.push_back(s);
      stack_.cluster().node(s.sender).a_broadcast(std::move(payload));
    }
    return {first, sent_.size()};
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

 private:
  UdpStack& stack_;
  zdc::common::Rng rng_;
  std::vector<Sent> sent_;
};

/// Everything one stack lifetime measured.
struct UdpPhase {
  double setup_ms = 0.0;
  double elapsed_ms = 0.0;
  double cpu_ms = 0.0;
  double base_start = 0.0;  ///< base-rate window
  double base_ms = 0.0;
  WindowedLatency base;  ///< base rate: a-delivery at the sender, from due
  std::vector<double> lateness_ms;  ///< base rate: due -> a_broadcast call
  std::vector<double> order_ms;     ///< base rate: call -> first a-deliver
  std::vector<double> local_ms;     ///< first a-deliver -> at the sender
  double max_rate = 0.0;  ///< highest rung met with every lower one
  std::uint64_t delivered = 0;
};

/// Builds a cluster and times it to the first a-delivery.
std::unique_ptr<UdpStack> build(std::uint64_t seed,
                                zdc::obs::MetricsRegistry* metrics,
                                zdc::obs::RuntimeTraceRecorder* trace,
                                Report& report, double* setup_ms) {
  const double t0 = now_ms();
  auto stack = std::make_unique<UdpStack>(seed, metrics, trace);
  stack->cluster().start();
  zdc::common::Rng rng(seed);
  stack->cluster().node(0).a_broadcast(payload_for(~std::uint64_t{0}, rng));
  const double deadline = t0 + 30'000.0;
  while (stack->log(0).count() == 0 && now_ms() < deadline) {
    std::this_thread::yield();
  }
  *setup_ms = now_ms() - t0;
  const bool ok = stack->log(0).count() > 0;
  report.ops(1, ok ? 0 : 1);
  if (!ok) report.check("setup_message_delivered", false);
  return stack;
}

/// The observability sinks of the traced stack.
struct Traced {
  zdc::obs::MetricsRegistry registry;
  zdc::obs::RuntimeTraceRecorder recorder;
};

/// One cluster lifetime: build (`setups` times, keeping the last), offer
/// the base rate (and the ladder), drain, check. With `traced`, also the
/// per-layer metrics that need the live or quiesced cluster.
UdpPhase run_phase(const Args& args, bool ladder, int setups, Traced* traced,
                   Report& report) {
  zdc::obs::MetricsRegistry* metrics =
      traced != nullptr ? &traced->registry : nullptr;
  zdc::obs::RuntimeTraceRecorder* trace =
      traced != nullptr ? &traced->recorder : nullptr;
  UdpPhase phase;
  std::vector<double> setup_ms;
  std::unique_ptr<UdpStack> stack;
  const double t_builds = now_ms();
  for (int i = 0; more_setups(i, setups, now_ms() - t_builds); ++i) {
    stack.reset();
    double ms = 0.0;
    stack = build(args.seed * 1000 + static_cast<std::uint64_t>(i), metrics,
                  trace, report, &ms);
    setup_ms.push_back(ms);
  }
  phase.setup_ms = percentile(setup_ms, 50);
  report.check("setup_messages_delivered", report.correct(),
               std::to_string(setup_ms.size()) + " builds");
  // Every node must have delivered the setup message before numbering
  // starts (offset 1 in every log).
  report.check("setup_delivered_everywhere", stack->wait_all(1, 10'000.0));

  Generator gen(*stack, args.seed);
  std::unique_ptr<RuntimeProbe> probe;
  if (traced != nullptr) {
    probe = std::make_unique<RuntimeProbe>(stack->cluster().network(),
                                           std::vector<zdc::obs::Gauge*>{});
  }
  const double seconds_ms = args.seconds * 1e3;
  const double t_start = now_ms();
  const double cpu0 = cpu_ms();
  // The base rate is the ladder's 2000 msg/s rung, measured longest: the
  // other rungs take about kMinRungMessages each, the base rate the rest of
  // the run and at least half of it.
  double ladder_ms = 0.0;
  for (const double rate : kLadder) {
    if (rate != kBaseRate) ladder_ms += rung_duration_ms(rate, seconds_ms);
  }
  const double base_ms =
      ladder ? std::max(0.5 * seconds_ms, seconds_ms - ladder_ms) : seconds_ms;
  phase.base_start = now_ms();
  phase.base_ms = base_ms;
  phase.base.start(phase.base_start, 1000.0,
                   static_cast<std::size_t>(base_ms / 1000.0) + 1);
  std::vector<std::pair<std::size_t, std::size_t>> rungs(kLadder.size());
  constexpr std::size_t base_rung = 2;
  static_assert(kLadder[base_rung] == kBaseRate);
  const auto drain = [&] {
    return stack->wait_all(gen.sent().size() + 1, 10'000.0);
  };
  rungs[base_rung] = gen.offer(kBaseRate, base_ms);
  bool drained = drain();
  if (ladder) {
    for (std::size_t r = 0; r < kLadder.size() && drained; ++r) {
      if (r == base_rung) continue;
      const double ms = rung_duration_ms(kLadder[r], seconds_ms);
      rungs[r] = gen.offer(kLadder[r], ms);
      drained = drain();
    }
  }
  phase.elapsed_ms = now_ms() - t_start;
  phase.cpu_ms = cpu_ms() - cpu0;
  report.check("all_messages_delivered_everywhere", drained);
  if (traced != nullptr) {
    probe->stop();
    report_schedule_delay(*probe, report);
    report_false_suspicions(stack->cluster(), report);
  }

  // Output checks: one total order, every message exactly once everywhere.
  const std::vector<Sent>& sent = gen.sent();
  std::vector<std::vector<std::pair<std::uint64_t, double>>> logs;
  for (ProcessId p = 0; p < kNodes; ++p) logs.push_back(stack->log(p).copy());
  bool same_order = true;
  bool exactly_once = true;
  for (ProcessId p = 0; p < kNodes; ++p) {
    same_order = same_order && logs[p].size() == logs[0].size();
    std::vector<int> seen(sent.size(), 0);
    for (std::size_t i = 0; i < logs[p].size(); ++i) {
      if (i < logs[0].size() && logs[p][i].first != logs[0][i].first) {
        same_order = false;
      }
      const std::uint64_t id = logs[p][i].first;
      if (id == ~std::uint64_t{0}) continue;  // the setup message
      if (id >= sent.size() || ++seen[id] != 1) exactly_once = false;
    }
    for (int s : seen) exactly_once = exactly_once && s == 1;
  }
  report.check("total_order_identical_on_every_node", same_order);
  report.check("every_message_delivered_exactly_once", exactly_once);

  // Per-message times: first a-delivery anywhere and at the sender.
  std::vector<double> first(sent.size(), -1.0);
  std::vector<double> at_sender(sent.size(), -1.0);
  for (ProcessId p = 0; p < kNodes; ++p) {
    for (const auto& [id, t] : logs[p]) {
      if (id >= sent.size()) continue;
      if (first[id] < 0.0 || t < first[id]) first[id] = t;
      if (sent[id].sender == p) at_sender[id] = t;
    }
  }
  std::uint64_t missing = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (at_sender[i] < 0.0) ++missing;
  }
  report.ops(sent.size(), missing);
  phase.delivered = sent.size() - missing;

  std::array<bool, kLadder.size()> rung_met{};
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    const auto [lo, hi] = rungs[r];
    if (hi == lo) continue;
    std::vector<double> lat;
    std::vector<double> late;
    for (std::size_t i = lo; i < hi; ++i) {
      // An undelivered message counts as missing any limit.
      lat.push_back(at_sender[i] < 0.0 ? 1e9 : at_sender[i] - sent[i].due);
      late.push_back(sent[i].sent - sent[i].due);
      if (r == base_rung && at_sender[i] >= 0.0) {
        phase.base.add(at_sender[i], at_sender[i] - sent[i].due);
        phase.lateness_ms.push_back(sent[i].sent - sent[i].due);
        phase.order_ms.push_back(first[i] - sent[i].sent);
        phase.local_ms.push_back(at_sender[i] - first[i]);
      }
    }
    // Backlog: messages still undelivered at the sender when the rung's
    // offer window closed, against what the latency limit allows.
    const double window_end = sent[hi - 1].due;
    std::size_t backlog = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (at_sender[i] < 0.0 || at_sender[i] > window_end) ++backlog;
    }
    const double p99 = percentile(lat, 99);
    const double late99 = percentile(late, 99);
    const bool met = p99 <= kP99LimitMs && late99 <= kLatenessBoundMs &&
                     static_cast<double>(backlog) <=
                         kLadder[r] * kP99LimitMs / 1e3;
    std::printf("rung %6.0f msg/s: %6zu msgs  p50 %7.3f ms  p99 %8.3f ms  "
                "late p99 %6.3f ms  backlog %5zu  %s\n",
                kLadder[r], hi - lo, percentile(lat, 50), p99, late99, backlog,
                met ? "met" : "MISSED");
    rung_met[r] = met;
  }
  // The highest rung met with every rung below it met too.
  for (std::size_t r = 0; ladder && r < kLadder.size() && rung_met[r]; ++r) {
    phase.max_rate = kLadder[r];
  }
  std::vector<double> late = phase.lateness_ms;
  const double late99 = percentile(late, 99);
  report.check("generator_on_schedule", late99 <= kLatenessBoundMs,
               "lateness p99 " + std::to_string(late99) + " ms, bound " +
                   std::to_string(kLatenessBoundMs) + " ms");
  if (traced != nullptr) {
    stack->cluster().shutdown();
    report_protocol(stack->cluster(), report);
  }
  return phase;
}

/// Per-link hop delays from the trace: the k-th send from a to b is matched
/// with the k-th delivery at b from a (reliable channel), and each oracle
/// datagram exactly by (sender, instance).
void trace_hops(const zdc::sim::TraceRecorder& trace, std::vector<double>* hop,
                std::vector<double>* wab_hop) {
  std::map<std::pair<ProcessId, ProcessId>, std::vector<double>> sends;
  std::map<std::pair<ProcessId, ProcessId>, std::size_t> next;
  std::map<std::pair<ProcessId, std::string>, double> wab_sends;
  for (const auto& e : trace.events()) {
    switch (e.kind) {
      case zdc::sim::TraceKind::kSend:
        sends[{e.subject, e.peer}].push_back(e.time);
        break;
      case zdc::sim::TraceKind::kDeliver: {
        const auto key = std::make_pair(e.peer, e.subject);
        const auto& s = sends[key];
        std::size_t& k = next[key];
        if (k < s.size()) hop->push_back(e.time - s[k++]);
        break;
      }
      case zdc::sim::TraceKind::kWabSend:
        wab_sends[{e.subject, e.detail}] = e.time;
        break;
      case zdc::sim::TraceKind::kWabDeliver: {
        const auto it = wab_sends.find({e.peer, e.detail});
        if (it != wab_sends.end()) wab_hop->push_back(e.time - it->second);
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

void run_udp(const Args& args, Report& report) {
  const UdpPhase plain =
      run_phase(args, true, args.trace ? 1 : kSetups, nullptr, report);
  report.info("base_rate_messages", static_cast<double>(plain.base.count()),
              "count");
  report.info("deliver_p50_ms_whole_run", plain.base.percentile_all(50), "ms");
  report.info("deliver_p95_ms_whole_run", plain.base.percentile_all(95), "ms");
  report.info("deliver_p99_ms_whole_run", plain.base.percentile_all(99), "ms");
  report.info("max_rate_per_s", plain.max_rate, "1/s");
  // End-to-end: medians over the base rate's 1 s windows (by a-delivery
  // at the sender).
  const double end = plain.base_start + plain.base_ms;
  const double p50 = plain.base.percentile(50, end);
  report.metric("setup_s", plain.setup_ms / 1e3, "s");
  report.metric("write_p50_ms", p50, "ms");
  report.metric("op_p50_ms", p50, "ms");
  report.info("ops_per_s", plain.base.rate(end), "1/s");
  report.info("write_p99_ms", plain.base.percentile(99, end), "ms");
  if (!args.trace) return;

  // Traced: the base rate only, for half the run, with the metrics registry
  // and the trace recorder on.
  Traced traced;
  Args half = args;
  half.seconds = args.seconds / 2;
  const UdpPhase t = run_phase(half, false, 1, &traced, report);
  Budget b;
  b.gen = t.lateness_ms;
  b.order = t.order_ms;
  b.reply = t.local_ms;
  report_budget(b, t.base.mean(), t.base.count(), kBudgetTolerance, report);
  report.metric("abcast.order_ms_p50", percentile(b.order, 50), "ms");
  report.metric("abcast.order_ms_p99", percentile(b.order, 99), "ms");
  report.metric("gen.lateness_ms_p99", percentile(b.gen, 99), "ms");
  report_cpu(t.cpu_ms, t.elapsed_ms, static_cast<double>(t.delivered), report);
  std::vector<double> hop, wab_hop;
  trace_hops(traced.recorder.freeze(), &hop, &wab_hop);
  report.metric("runtime.udp_hop_ms_p50", percentile(hop, 50), "ms");
  report.metric("runtime.udp_hop_ms_p99", percentile(hop, 99), "ms");
  report.metric("wab.hop_ms_p50", percentile(wab_hop, 50), "ms");
  report.metric("wab.hop_ms_p99", percentile(wab_hop, 99), "ms");
  const auto sent = static_cast<double>(
      counter_total(traced.registry, "zdc_udp_datagrams_sent_total"));
  const auto resent = static_cast<double>(
      counter_total(traced.registry, "zdc_udp_retransmissions_total"));
  report.metric("runtime.udp_retransmit_ratio",
                sent > 0.0 ? resent / sent : 0.0, "ratio");
  report.metric("trace.overhead_write_p50_ms",
                t.base.percentile(50, t.base_start + t.base_ms) - p50,
                "ms");
}

}  // namespace e2e
