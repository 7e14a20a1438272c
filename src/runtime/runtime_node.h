// Assembly of a full replica on the threaded runtime: transport demux +
// heartbeat failure detector + a pluggable atomic-broadcast protocol.
//
// RuntimeCluster builds n such replicas over one transport — by default an
// InprocNetwork, the in-process stand-in for the paper's 4-workstation
// cluster — and is what the examples and the integration tests run against.
// On sim::SimTransport the same cluster runs single-threaded in virtual time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abcast/abcast.h"
#include "abcast/batching.h"
#include "common/stable_storage.h"
#include "obs/run_options.h"
#include "obs/runtime_trace.h"
#include "runtime/heartbeat_fd.h"
#include "runtime/inproc_net.h"
#include "runtime/udp_net.h"
#include "sim/sim_transport.h"

namespace zdc::runtime {

enum class ProtocolKind : std::uint8_t {
  kCAbcastL,  ///< C-Abcast over L-Consensus (the paper's Ω stack)
  kCAbcastP,  ///< C-Abcast over P-Consensus (the paper's ◇P stack)
  kWabcast,   ///< WABCast baseline
  kPaxos,     ///< Multi-Paxos sequencer baseline
};

class RuntimeNode {
 public:
  /// Invoked on the node's worker thread for every a-delivered message, in
  /// the total order.
  using DeliverFn = std::function<void(const abcast::AppMessage&)>;

  /// `batching` is applied to the protocol when it supports it (see
  /// abcast::configure_batching). `metrics` registers per-node counters
  /// (a-broadcasts, a-deliveries); `trace` records the node's message events
  /// in the sim trace schema with wall-clock timestamps. Both may be null.
  RuntimeNode(ProcessId self, GroupParams group, Transport& net,
              ProtocolKind kind, HeartbeatFd::Config fd_cfg,
              DeliverFn on_deliver,
              const abcast::BatchingOptions& batching = {},
              obs::MetricsRegistry* metrics = nullptr,
              obs::RuntimeTraceRecorder* trace = nullptr);
  ~RuntimeNode();

  RuntimeNode(const RuntimeNode&) = delete;
  RuntimeNode& operator=(const RuntimeNode&) = delete;

  /// Arms the failure detector. Call after InprocNetwork::start().
  void start();

  /// Thread-safe: marshals the a-broadcast onto the node's worker thread.
  void a_broadcast(std::string payload);

  /// Installs the Channel::kCatchup dispatch hook (recovery state transfer,
  /// see recovery::CatchupService). Like Transport::set_handler, must be
  /// called before the transport starts; the hook then runs on this node's
  /// worker thread. Without a hook, catch-up traffic is dropped.
  void set_catchup_handler(std::function<void(const Delivery&)> fn) {
    on_catchup_ = std::move(fn);
  }

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] const HeartbeatFd& failure_detector() const { return *fd_; }
  /// Only read after the cluster quiesced (worker-thread data).
  [[nodiscard]] const abcast::AbcastMetrics& metrics() const {
    return protocol_->metrics();
  }

 private:
  class Host;

  void handle(const Delivery& d);

  const ProcessId self_;
  Transport& net_;
  DeliverFn on_deliver_;
  std::function<void(const Delivery&)> on_catchup_;
  obs::RuntimeTraceRecorder* trace_;
  std::unique_ptr<Host> host_;
  std::unique_ptr<HeartbeatFd> fd_;
  std::unique_ptr<abcast::AtomicBroadcast> protocol_;
  // Pre-registered handles (null when metrics are off).
  obs::Counter* a_broadcasts_ctr_ = nullptr;
  obs::Counter* a_deliveries_ctr_ = nullptr;
};

/// n replicas over one transport (in-process mailboxes by default, real
/// loopback UDP sockets with kUdp, the simulated LAN in virtual time with
/// kSim).
class RuntimeCluster {
 public:
  enum class TransportKind : std::uint8_t { kInproc, kUdp, kSim };

  struct Config {
    GroupParams group{4, 1};
    TransportKind transport = TransportKind::kInproc;
    InprocNetwork::Config net;  ///< kInproc; .n is overwritten with group.n
    UdpNetwork::Config udp;     ///< kUdp; .n is overwritten with group.n
    sim::NetworkConfig lan;     ///< kSim: hop timing; seeded with net.seed
    ProtocolKind kind = ProtocolKind::kCAbcastL;
    HeartbeatFd::Config fd;
    abcast::BatchingOptions batching;
    /// Optional observability sinks; when set they are propagated into the
    /// transport, failure-detector and node configs. Both must outlive the
    /// cluster.
    obs::MetricsRegistry* metrics = nullptr;
    obs::RuntimeTraceRecorder* trace = nullptr;
    /// Optional per-process stable-storage factory
    /// (RunOptions::storage_factory maps here). When set, the cluster
    /// instantiates one storage per process at construction and keeps it
    /// across crash()/restart — see storage(p)/reopen_storage(p).
    common::StorageFactory storage_factory;

    /// Maps the shared run-options bundle onto a cluster config: group, seed,
    /// batching, metrics and storage_factory carry over, and `opts.net`
    /// times the hops of a kSim cluster. `opts.fd`/`opts.trace` are
    /// sim-world knobs (FdSim, single-threaded TraceRecorder) and are
    /// deliberately ignored — every transport runs the real heartbeat
    /// detector, and the runtime has its own thread-safe
    /// RuntimeTraceRecorder. The mapping is exhaustive by
    /// construction (structured binding over RunOptions): adding a RunOptions
    /// field without deciding its fate here fails to compile.
    static Config from_options(const zdc::RunOptions& opts);
  };

  /// `on_deliver(p, m)` runs on replica p's worker thread.
  RuntimeCluster(Config cfg,
                 std::function<void(ProcessId, const abcast::AppMessage&)>
                     on_deliver);
  ~RuntimeCluster();

  void start();
  void shutdown();

  RuntimeNode& node(ProcessId p) { return *nodes_[p]; }
  Transport& network() { return *net_; }
  /// The simulated transport of a kSim cluster (its clock and run loop);
  /// null on threads.
  [[nodiscard]] sim::SimTransport* sim() { return sim_; }
  void crash(ProcessId p) { net_->crash(p); }

  /// Per-process stable storage, built from Config::storage_factory at
  /// construction (null when no factory is configured). The object survives
  /// crash(p) — stable storage is exactly what a reboot keeps.
  [[nodiscard]] common::StableStorage* storage(ProcessId p) {
    return p < storages_.size() ? storages_[p].get() : nullptr;
  }
  /// Models the kill-9 reboot of p's disk stack: re-invokes the factory for
  /// p (a DurableStableStorage factory over a persistent Env replays its WAL
  /// here) and swaps the slot. The old storage handle is destroyed — callers
  /// must drop references first. Returns the fresh storage (null when no
  /// factory is configured).
  common::StableStorage* reopen_storage(ProcessId p);
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Polls `done` every millisecond until it returns true or `timeout_ms`
  /// elapses (periodic heartbeats keep mailboxes busy forever, so completion
  /// has to be an application-level condition). Returns whether `done` held.
  static bool wait_until(const std::function<bool()>& done, double timeout_ms);

 private:
  std::unique_ptr<Transport> net_;
  sim::SimTransport* sim_ = nullptr;  ///< net_ when kSim
  std::vector<std::unique_ptr<RuntimeNode>> nodes_;
  common::StorageFactory storage_factory_;
  std::vector<std::unique_ptr<common::StableStorage>> storages_;
};

}  // namespace zdc::runtime
