// Calibrated LAN timing model (the testbed substitution, DESIGN.md §2).
//
// The paper's cluster is 4 workstations on a switched 100 Mbit LAN running a
// Java middleware. Three resources dominate latency there and are modelled
// here explicitly:
//
//   1. per-process CPU: every send and every receive occupies the host CPU
//      for a fixed cost (protocol stack + middleware), serializing a
//      process's message handling — the main queueing effect at high
//      throughput;
//   2. the shared medium: each unicast transmission occupies the network for
//      size/bandwidth (broadcast-capable UDP used by the WAB oracle occupies
//      it once per broadcast);
//   3. propagation/OS jitter: a base delay plus exponential per-receiver
//      jitter. Jitter is what occasionally *reorders* two nearly-simultaneous
//      broadcasts at different receivers — i.e. it produces the WAB oracle's
//      collisions, whose rate grows with load exactly as in Pedone &
//      Schiper's observations.
//
// The model computes, for each message, its delivery time at each receiver;
// sim::Fabric (sim/fabric.h) schedules the delivery events of every sim world
// accordingly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/link_policy.h"

namespace zdc::sim {

struct NetworkConfig {
  double base_delay_ms = 0.08;       ///< propagation + kernel/network stack
  double jitter_mean_ms = 0.03;      ///< exponential per-receiver jitter
  double bandwidth_mbps = 100.0;     ///< shared-medium capacity
  std::uint32_t framing_bytes = 66;  ///< Ethernet/IP/TCP framing overhead
  double cpu_send_ms = 0.020;        ///< per-message middleware cost, sender
  double cpu_recv_ms = 0.020;        ///< per-message middleware cost, receiver
  double local_delivery_ms = 0.005;  ///< loopback self-delivery
  double wab_loss_prob = 0.0;        ///< per-receiver loss of oracle datagrams
  /// Extra per-receiver delay, uniform in [0, x], on oracle datagrams only:
  /// unacknowledged UDP multicast rides NIC/driver queues that TCP's paced
  /// streams do not, so two bursts sent close together may be seen in
  /// different orders by different hosts. This is the collision source whose
  /// rate grows with broadcast concurrency (Pedone & Schiper's observation);
  /// TCP protocol hops keep the tight `jitter_mean_ms` only.
  double wab_extra_jitter_ms = 0.0;
  /// Modeled retransmission quantum for the reliable (TCP-like) channels
  /// under nemesis-injected link loss: each lost attempt costs one RTO before
  /// the next try, so a link with drop probability d adds a geometric number
  /// of these quanta to the delivery time (the message is never lost — the
  /// stack keeps retrying, matching real TCP under moderate loss).
  double reliable_retransmit_ms = 2.0;
};

/// The constants used by all paper-reproduction benches, in one place:
/// loosely calibrated to the paper's testbed (2.8 GHz workstations running a
/// Java middleware on a 100 Mbit switched LAN; Sec. 8.1) so that absolute
/// latencies land in the same 1–5 ms band and the collision rate grows with
/// throughput the way Figure 2 implies.
inline NetworkConfig calibrated_lan_2006() {
  NetworkConfig net;
  net.base_delay_ms = 0.45;
  net.jitter_mean_ms = 0.03;
  net.bandwidth_mbps = 100.0;
  net.framing_bytes = 66;
  net.cpu_send_ms = 0.030;
  net.cpu_recv_ms = 0.030;
  // Messages to self traverse the same middleware/stack path as remote ones
  // (the Neko model): no self-delivery shortcut, so Paxos really pays its 3δ
  // and the lower-bound step counts translate 1:1 into wall-clock δs.
  net.local_delivery_ms = 0.4;
  // UDP oracle datagrams ride unpaced NIC/driver queues: extra uniform
  // disorder that flips the relative order of near-simultaneous broadcasts —
  // spontaneous order holds at low load and decays with concurrency.
  net.wab_extra_jitter_ms = 0.6;
  return net;
}

/// A wide-area profile (not in the paper — an extension experiment): 20 ms
/// propagation with millisecond jitter. Propagation dwarfs CPU and
/// serialization, so protocol *step counts* translate almost directly into
/// latency — the regime where saving one communication step matters most,
/// and where spontaneous order is essentially gone (jitter >> send gaps).
inline NetworkConfig synthetic_wan() {
  NetworkConfig net;
  net.base_delay_ms = 20.0;
  net.jitter_mean_ms = 1.5;
  net.bandwidth_mbps = 1000.0;
  net.framing_bytes = 66;
  net.cpu_send_ms = 0.02;
  net.cpu_recv_ms = 0.02;
  net.local_delivery_ms = 0.05;
  net.wab_extra_jitter_ms = 8.0;  // WAN reordering: collisions are the norm
  return net;
}

/// Tracks medium and CPU occupancy and samples delivery times.
class LanModel {
 public:
  LanModel(NetworkConfig cfg, std::uint32_t n, common::Rng rng)
      : cfg_(cfg), cpu_free_(n, 0.0), rng_(rng) {}

  /// Sender-side cost of putting one message on the wire at time `now`:
  /// returns the time the message has fully left the process.
  TimePoint occupy_sender_cpu(ProcessId from, TimePoint now);

  /// Occupies the shared medium for one frame of `payload_bytes`; returns the
  /// transmission end time.
  TimePoint occupy_medium(TimePoint ready, std::size_t payload_bytes);

  /// Arrival time at one receiver given the transmission end time.
  TimePoint arrival_time(TimePoint tx_end);

  /// Arrival time for an oracle datagram (adds the UDP disorder jitter).
  TimePoint wab_arrival_time(TimePoint tx_end);

  /// Receiver-side processing: returns the time the protocol handler runs for
  /// a message that arrived at `arrival`.
  TimePoint occupy_receiver_cpu(ProcessId to, TimePoint arrival);

  /// Self-delivery (no medium).
  TimePoint local_delivery(TimePoint sent) const {
    return sent + cfg_.local_delivery_ms;
  }

  [[nodiscard]] bool drop_wab_datagram() {
    return cfg_.wab_loss_prob > 0.0 && rng_.chance(cfg_.wab_loss_prob);
  }

  /// Attaches the nemesis link table (not owned; may be null = no faults).
  /// The link verdicts below consult it; cut links and corruption budgets
  /// are the fabric's business (sim/fabric.h).
  void set_link_policy(const fault::LinkPolicy* policy) { policy_ = policy; }

  /// Extra delivery delay on a reliable channel from injected degradation:
  /// the scripted delay spike plus a geometric retransmission penalty for
  /// drop_prob (TCP retries; the message still arrives). Consumes randomness
  /// only when the link actually carries a fault, preserving byte-identical
  /// schedules for fault-free runs of the same seed.
  [[nodiscard]] TimePoint reliable_link_penalty_ms(ProcessId from,
                                                   ProcessId to);

  /// Best-effort verdicts for oracle datagrams on a degraded link: loss is
  /// real loss (no retransmission), delay spikes apply as-is.
  [[nodiscard]] bool drop_best_effort(ProcessId from, ProcessId to);
  [[nodiscard]] TimePoint best_effort_extra_delay_ms(ProcessId from,
                                                     ProcessId to) const;

  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

 private:
  NetworkConfig cfg_;
  TimePoint medium_free_ = 0.0;
  std::vector<TimePoint> cpu_free_;
  common::Rng rng_;
  const fault::LinkPolicy* policy_ = nullptr;
};

}  // namespace zdc::sim
