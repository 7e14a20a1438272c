// Threaded in-process message bus — the real-concurrency counterpart of the
// discrete-event simulator (testbed substitution, DESIGN.md §2).
//
// Each process owns one Executor lane: all protocol handlers,
// failure-detector ticks and timer callbacks of a process run on its lane
// thread, so protocol objects need no internal locking (the same
// single-writer discipline a Neko-style middleware provides). Senders may
// run on any thread: they sample an injected network delay and post the
// delivery to the destination lane as a closure due at that time.
//
// Three traffic classes share the bus:
//   kProtocol  — reliable, per-link FIFO-by-due-time unicast/broadcast (TCP)
//   kHeartbeat — failure-detector heartbeats
//   kWab       — the ordering oracle's best-effort datagrams: per-receiver
//                jitter plus optional loss, so receivers can observe
//                different firsts (collisions) exactly as on a real LAN
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/transport.h"

namespace zdc::runtime {

class InprocNetwork final : public Transport {
 public:
  struct Config {
    std::uint32_t n = 0;
    std::uint64_t seed = 1;
    /// Uniform per-message delay injected on reliable channels.
    double min_delay_ms = 0.05;
    double max_delay_ms = 0.40;
    /// Extra exponential jitter on oracle datagrams (collision source).
    double wab_jitter_mean_ms = 0.15;
    /// Per-receiver loss probability of oracle datagrams.
    double wab_loss_prob = 0.0;
    /// Optional metrics sink (enqueues, drops, queue depth, labeled by the
    /// receiving process). nullptr = metrics off.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit InprocNetwork(Config cfg);
  ~InprocNetwork() override;

  InprocNetwork(const InprocNetwork&) = delete;
  InprocNetwork& operator=(const InprocNetwork&) = delete;

  // Transport:
  void set_handler(ProcessId p, Handler handler) override;
  void start() override { executor_.start(); }
  void shutdown() override { executor_.shutdown(); }
  void send(Channel channel, ProcessId from, ProcessId to, std::string bytes,
            InstanceId wab_instance = 0) override;
  void broadcast(Channel channel, ProcessId from, std::string bytes,
                 InstanceId wab_instance = 0) override;
  void schedule(ProcessId p, double delay_ms,
                std::function<void()> fn) override {
    executor_.schedule(p, delay_ms, std::move(fn));
  }
  void crash(ProcessId p) override { executor_.crash(p); }
  [[nodiscard]] bool crashed(ProcessId p) const override {
    return executor_.crashed(p);
  }
  void restart(ProcessId p) override { executor_.restart(p); }
  [[nodiscard]] fault::LinkPolicy& links() override { return links_; }
  [[nodiscard]] std::uint32_t size() const override { return cfg_.n; }

 private:
  struct Inbox;

  /// Samples the injected delay and link faults of one delivery to `to`
  /// and posts it to to's lane (or drops it, for lost best-effort traffic).
  void push(ProcessId to, Delivery delivery);
  /// Runs on to's lane once the delivery is due.
  void deliver(ProcessId to, Delivery& delivery);

  Config cfg_;
  fault::LinkPolicy links_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<Handler> handlers_;
  Executor executor_;  // last: hooks into links_; its lanes use all above
};

}  // namespace zdc::runtime
