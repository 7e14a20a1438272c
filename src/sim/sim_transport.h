// runtime::Transport over sim::Fabric: the unchanged runtime stack
// (RuntimeCluster, ReplicaGroup, CatchupService, ServiceGroup) run
// single-threaded in virtual time; one seed reproduces a run byte for byte.
//
// Every lane is the fabric's event queue: p's handlers and timers run
// through Fabric::run_on_node(p), so a crashed p runs nothing and a paused
// p's work waits for resume, as in the sim worlds. kProtocol/kCatchup ride
// the fabric's reliable unicast (parked on a cut link, never lost). The
// best-effort channels (kWab, kHeartbeat) ride its oracle w-broadcast: one
// UDP broadcast per call, with per-receiver disorder (the collisions that
// cost C-Abcast its one-step path) and loss on a cut or lossy link; a
// best-effort send is that datagram for one receiver. A reliable self-send
// is a local delivery due at once. Frames carry their
// channel, a global sequence number (timers take one too) and the WAB
// instance, so restart(p) can drop every frame and timer queued for the
// dead incarnation.
//
// The harness drives the run (run_until / after) from the one thread that
// also calls into the stack.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "runtime/transport.h"
#include "sim/fabric.h"

namespace zdc::sim {

class SimTransport final : public runtime::Transport, private FabricClient {
 public:
  struct Config {
    std::uint32_t n = 4;
    NetworkConfig lan;  ///< the timing of every hop (RunOptions::net)
    std::uint64_t seed = 1;
    /// The fabric's per-process zdc_sim_* counters; may be null.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit SimTransport(const Config& cfg);

  void set_handler(ProcessId p, Handler handler) override;
  void start() override {}
  /// Discards everything still queued; later calls do nothing.
  void shutdown() override { stopped_ = true; }
  void send(runtime::Channel channel, ProcessId from, ProcessId to,
            std::string bytes, InstanceId wab_instance = 0) override;
  void broadcast(runtime::Channel channel, ProcessId from, std::string bytes,
                 InstanceId wab_instance = 0) override;
  void schedule(ProcessId p, double delay_ms,
                std::function<void()> fn) override;
  void crash(ProcessId p) override;
  [[nodiscard]] bool crashed(ProcessId p) const override;
  void restart(ProcessId p) override;
  [[nodiscard]] fault::LinkPolicy& links() override { return fabric_.links(); }
  [[nodiscard]] std::uint32_t size() const override { return n_; }
  [[nodiscard]] double now_ms() const override { return fabric_.now(); }

  /// Runs `fn` `delay_ms` from now outside every process: a client's retry
  /// timer or a nemesis step. Survives crashes and is never paused.
  void after(double delay_ms, std::function<void()> fn);

  /// Runs events in due order until `done()` holds after one, the next
  /// event is due after `until_ms` (absolute virtual time), the queue
  /// drains or shutdown() was called. Returns whether `done()` held.
  bool run_until(const std::function<bool()>& done, double until_ms);

 private:
  // FabricClient: every frame comes back here. on_message decodes the
  // header and runs the receiver's handler, unless the frame was sent
  // before the receiver's latest restart.
  void on_message(ProcessId from, ProcessId to,
                  const std::string& framed) override;
  void on_w_deliver(ProcessId from, ProcessId to, std::uint64_t /*stage*/,
                    const std::string& framed) override {
    on_message(from, to, framed);
  }
  void on_fd_change(ProcessId /*p*/) override {}
  void on_restart(ProcessId /*p*/) override {}

  /// Prefixes the frame header (channel, send sequence, WAB instance).
  std::string frame(runtime::Channel channel, InstanceId wab_instance,
                    const std::string& bytes);

  const std::uint32_t n_;
  RunOptions opts_;  ///< the fabric keeps a reference: declared first
  Fabric fabric_;
  std::vector<Handler> handlers_;
  /// Frames and timers numbered below this (from next_seq_) were queued
  /// for a dead incarnation of p.
  std::vector<std::uint64_t> wiped_below_;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace zdc::sim
