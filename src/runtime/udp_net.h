// Real-socket transport: every process owns a loopback UDP socket and a
// receive thread. The reliable kProtocol channel is built from raw datagrams
// with a sequence/ack/retransmit ARQ (this is the hand-rolled equivalent of
// the asio/TCP boilerplate the paper's middleware used); kHeartbeat and kWab
// ride raw datagrams — genuinely best-effort, just like the paper's UDP
// oracle.
//
// Design:
//   * one socket + one Executor lane per process; handlers, timers, datagram
//     handling (acks included) and ARQ scans all run on the lane thread
//     (single-writer protocols). A small receive thread per process only
//     reads the socket and posts each datagram to its lane, so a paused
//     process sends no acks and its backlog waits in the lane;
//   * wire format: [type u8] then
//       data: [channel u8][from u32][seq u64][wab u64][payload...]
//       ack:  [from u32][seq u64]
//   * reliable sends carry a per-(sender, receiver) sequence number, are
//     acked by the receiver and retransmitted until acked; receivers dedupe
//     with a watermark + out-of-order set, delivering in arrival order
//     (reliable ≠ FIFO — matching the system model's channels);
//   * an optional artificial drop probability exercises the ARQ in tests;
//   * crash(p) closes the lane: p stops sending/receiving and peers purge
//     their retransmission state towards p.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/transport.h"

namespace zdc::runtime {

class UdpNetwork final : public Transport {
 public:
  struct Config {
    std::uint32_t n = 0;
    std::uint64_t seed = 1;
    /// Initial ARQ retransmission period for unacked reliable datagrams;
    /// doubles per retry (exponential backoff) up to retransmit_cap_ms, so a
    /// long partition does not keep hammering a dead link at full rate.
    double retransmit_interval_ms = 15.0;
    double retransmit_cap_ms = 240.0;
    /// Artificial inbound drop probability on every datagram (ARQ stress).
    double drop_prob = 0.0;
    /// Optional metrics sink (datagrams sent, retransmissions, drops,
    /// unacked-queue depth, labeled by process). nullptr = metrics off.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit UdpNetwork(Config cfg);
  ~UdpNetwork() override;

  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  // Transport:
  void set_handler(ProcessId p, Handler handler) override;
  void start() override;
  void shutdown() override;
  void send(Channel channel, ProcessId from, ProcessId to, std::string bytes,
            InstanceId wab_instance = 0) override;
  void broadcast(Channel channel, ProcessId from, std::string bytes,
                 InstanceId wab_instance = 0) override;
  void schedule(ProcessId p, double delay_ms,
                std::function<void()> fn) override {
    executor_.schedule(p, delay_ms, std::move(fn));
  }
  void crash(ProcessId p) override;
  [[nodiscard]] bool crashed(ProcessId p) const override {
    return executor_.crashed(p);
  }
  void restart(ProcessId p) override;
  [[nodiscard]] fault::LinkPolicy& links() override { return links_; }
  [[nodiscard]] std::uint32_t size() const override { return cfg_.n; }

  /// The UDP port process p is bound to (tests / diagnostics).
  [[nodiscard]] std::uint16_t port(ProcessId p) const;
  /// Total reliable-channel retransmissions (diagnostics).
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_.load(std::memory_order_relaxed);
  }

 private:
  struct Endpoint;

  /// Receive thread: reads p's socket and posts each datagram to p's lane.
  void read_socket(ProcessId p);
  void raw_send(ProcessId from, ProcessId to, const std::string& datagram);
  void raw_send_now(ProcessId from, ProcessId to, const std::string& datagram);
  void handle_datagram(ProcessId p, const std::string& datagram);
  /// Lane timer: retransmits p's due unacked datagrams, then re-arms itself
  /// every retransmit_interval_ms / 2 while the incarnation `epoch` lives.
  void arq_tick(ProcessId p, std::uint64_t epoch);

  Config cfg_;
  fault::LinkPolicy links_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::thread> readers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> retransmissions_{0};
  Executor executor_;  // last: hooks into links_; its lanes use all above
};

}  // namespace zdc::runtime
