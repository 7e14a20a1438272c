#include "runtime/runtime_node.h"

#include <chrono>
#include <thread>
#include <utility>

#include "abcast/c_abcast.h"
#include "abcast/paxos_abcast.h"
#include "common/assert.h"
#include "common/codec.h"
#include "runtime/executor.h"
#include "sim/trace.h"

namespace zdc::runtime {

class RuntimeNode::Host final : public abcast::AbcastHost {
 public:
  Host(RuntimeNode& node) : node_(node) {}

  // Trace events for sends are recorded BEFORE the transport push: the
  // recorder's wall-clock stamp then happens-before the matching delivery
  // stamp, which keeps the recorded trace causally consistent.
  void send(ProcessId to, std::string bytes) override {
    if (node_.trace_ != nullptr) {
      node_.trace_->record(sim::TraceKind::kSend, node_.self_, to);
    }
    node_.net_.send(Channel::kProtocol, node_.self_, to, std::move(bytes));
  }
  void broadcast(std::string bytes) override {
    if (node_.trace_ != nullptr) {
      for (ProcessId to = 0; to < node_.net_.size(); ++to) {
        node_.trace_->record(sim::TraceKind::kSend, node_.self_, to);
      }
    }
    node_.net_.broadcast(Channel::kProtocol, node_.self_, std::move(bytes));
  }
  void w_broadcast(InstanceId k, std::string payload) override {
    if (node_.trace_ != nullptr) {
      node_.trace_->record(sim::TraceKind::kWabSend, node_.self_, kNoProcess,
                           "k=" + std::to_string(k));
    }
    node_.net_.broadcast(Channel::kWab, node_.self_, std::move(payload), k);
  }
  void a_deliver(const abcast::AppMessage& m) override {
    if (node_.a_deliveries_ctr_ != nullptr) node_.a_deliveries_ctr_->inc();
    if (node_.trace_ != nullptr) {
      node_.trace_->record(sim::TraceKind::kDecide, node_.self_, m.id.sender);
    }
    if (node_.on_deliver_) node_.on_deliver_(m);
  }

 private:
  RuntimeNode& node_;
};

RuntimeNode::RuntimeNode(ProcessId self, GroupParams group, Transport& net,
                         ProtocolKind kind, HeartbeatFd::Config fd_cfg,
                         DeliverFn on_deliver,
                         const abcast::BatchingOptions& batching,
                         obs::MetricsRegistry* metrics,
                         obs::RuntimeTraceRecorder* trace)
    : self_(self), net_(net), on_deliver_(std::move(on_deliver)),
      trace_(trace) {
  if (metrics != nullptr) {
    a_broadcasts_ctr_ = &metrics->counter("zdc_node_a_broadcasts_total",
                                          obs::process_label(self));
    a_deliveries_ctr_ = &metrics->counter("zdc_node_a_deliveries_total",
                                          obs::process_label(self));
  }
  host_ = std::make_unique<Host>(*this);
  fd_ = std::make_unique<HeartbeatFd>(self, net, fd_cfg, [this] {
    if (protocol_ != nullptr) protocol_->on_fd_change();
  });

  switch (kind) {
    case ProtocolKind::kCAbcastL:
      protocol_ = abcast::make_c_abcast_l(self, group, *host_, fd_->omega());
      break;
    case ProtocolKind::kCAbcastP:
      protocol_ = abcast::make_c_abcast_p(self, group, *host_, *fd_);
      break;
    case ProtocolKind::kWabcast:
      protocol_ = abcast::make_wabcast(self, group, *host_);
      break;
    case ProtocolKind::kPaxos:
      protocol_ = std::make_unique<abcast::PaxosAbcast>(self, group, *host_,
                                                        fd_->omega());
      break;
  }
  abcast::configure_batching(*protocol_, batching);

  net_.set_handler(self, [this](const Delivery& d) { handle(d); });
}

RuntimeNode::~RuntimeNode() = default;

void RuntimeNode::start() { fd_->start(); }

void RuntimeNode::a_broadcast(std::string payload) {
  if (a_broadcasts_ctr_ != nullptr) a_broadcasts_ctr_->inc();
  if (trace_ != nullptr) {
    trace_->record(sim::TraceKind::kPropose, self_);
  }
  // Marshal onto the worker thread: protocol objects are single-threaded.
  net_.schedule(self_, 0.0, [this, payload = std::move(payload)]() mutable {
    protocol_->a_broadcast(std::move(payload));
  });
}

void RuntimeNode::handle(const Delivery& d) {
  switch (d.channel) {
    case Channel::kProtocol:
      if (trace_ != nullptr) {
        trace_->record(sim::TraceKind::kDeliver, self_, d.from);
      }
      protocol_->on_message(d.from, d.bytes);
      break;
    case Channel::kHeartbeat: {
      // Heartbeats are untraced: they would dwarf protocol traffic in any
      // spacetime rendering without adding causal information. The payload
      // is the sender's Ω estimate (lease endorsement); an empty or
      // malformed payload still counts for liveness, never for leases.
      common::Decoder dec(d.bytes);
      const ProcessId endorsed = dec.get_u32();
      fd_->on_heartbeat(d.from, dec.done() ? endorsed : kNoProcess);
      break;
    }
    case Channel::kWab:
      if (trace_ != nullptr) {
        trace_->record(sim::TraceKind::kWabDeliver, self_, d.from,
                       "k=" + std::to_string(d.wab_instance));
      }
      protocol_->on_w_deliver(d.wab_instance, d.from, d.bytes);
      break;
    case Channel::kCatchup:
      // Recovery traffic bypasses the protocol: the recovery layer (e.g.
      // recovery::ReplicaGroup) installs this hook per node. Untraced, like
      // heartbeats: state transfer adds no causal information to the
      // protocol's spacetime rendering.
      if (on_catchup_) on_catchup_(d);
      break;
  }
}

RuntimeCluster::Config RuntimeCluster::Config::from_options(
    const zdc::RunOptions& opts) {
  // Structured binding = compile-time exhaustive mapping: every RunOptions
  // field must be named here, so adding one without deciding its runtime
  // fate is a build error instead of a silent drop (which is exactly how
  // storage_factory got lost by the old field-by-field copy).
  const auto& [group, net, fd, seed, batching, metrics, trace,
               storage_factory, service] = opts;
  Config cfg;
  cfg.group = group;
  cfg.net.seed = seed;
  cfg.udp.seed = seed;
  cfg.batching = batching;
  cfg.metrics = metrics;
  cfg.storage_factory = storage_factory;
  cfg.lan = net;
  // Sim-world knobs with no runtime counterpart (see the header comment).
  static_cast<void>(fd);
  static_cast<void>(trace);
  // Service-layer knobs are mostly consumed one level up (rsm::ServiceGroup
  // wraps the cluster), but the lease length must reach the failure
  // detector: endorsement freshness/streaks are measured against the SAME
  // bound the service serves reads under.
  cfg.fd.endorsement_stale_ms = service.lease_ms;
  return cfg;
}

RuntimeCluster::RuntimeCluster(
    Config cfg,
    std::function<void(ProcessId, const abcast::AppMessage&)> on_deliver) {
  cfg.fd.metrics = cfg.metrics;  // one sink feeds every layer
  if (cfg.transport == TransportKind::kUdp) {
    UdpNetwork::Config udp_cfg = cfg.udp;
    udp_cfg.n = cfg.group.n;
    udp_cfg.metrics = cfg.metrics;
    net_ = std::make_unique<UdpNetwork>(udp_cfg);
  } else if (cfg.transport == TransportKind::kSim) {
    auto sim = std::make_unique<sim::SimTransport>(sim::SimTransport::Config{
        cfg.group.n, cfg.lan, cfg.net.seed, cfg.metrics});
    sim_ = sim.get();
    net_ = std::move(sim);
  } else {
    InprocNetwork::Config net_cfg = cfg.net;
    net_cfg.n = cfg.group.n;
    net_cfg.metrics = cfg.metrics;
    net_ = std::make_unique<InprocNetwork>(net_cfg);
  }
  storage_factory_ = cfg.storage_factory;
  if (storage_factory_) {
    storages_.reserve(cfg.group.n);
    for (ProcessId p = 0; p < cfg.group.n; ++p) {
      storages_.push_back(storage_factory_(p));
    }
  }
  nodes_.reserve(cfg.group.n);
  for (ProcessId p = 0; p < cfg.group.n; ++p) {
    nodes_.push_back(std::make_unique<RuntimeNode>(
        p, cfg.group, *net_, cfg.kind, cfg.fd,
        [on_deliver, p](const abcast::AppMessage& m) {
          if (on_deliver) on_deliver(p, m);
        },
        cfg.batching, cfg.metrics, cfg.trace));
  }
}

common::StableStorage* RuntimeCluster::reopen_storage(ProcessId p) {
  if (!storage_factory_ || p >= storages_.size()) return nullptr;
  storages_[p] = storage_factory_(p);
  return storages_[p].get();
}

RuntimeCluster::~RuntimeCluster() { shutdown(); }

void RuntimeCluster::start() {
  net_->start();
  for (auto& node : nodes_) node->start();
}

void RuntimeCluster::shutdown() {
  if (net_ != nullptr) net_->shutdown();
}

bool RuntimeCluster::wait_until(const std::function<bool()>& done,
                                double timeout_ms) {
  const auto deadline = Executor::after_ms(timeout_ms);
  while (Executor::Clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

}  // namespace zdc::runtime
