#include "runtime/consensus_runner.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "consensus/recovering_paxos.h"
#include "runtime/runtime_node.h"

namespace zdc::runtime {

/// Maps the sans-io protocol outputs onto the transport channels. Lives as
/// long as the runner; protocol instances behind it come and go on restart.
class ConsensusRunner::Host final : public consensus::ConsensusHost {
 public:
  Host(ConsensusRunner& runner, ProcessId self)
      : runner_(runner), self_(self) {}

  void send(ProcessId to, std::string bytes) override {
    runner_.net_.send(Channel::kProtocol, self_, to, std::move(bytes));
  }
  void broadcast(std::string bytes) override {
    runner_.net_.broadcast(Channel::kProtocol, self_, std::move(bytes));
  }
  void deliver_decision(const Value& v) override {
    runner_.record_decision(self_, v);
  }
  void w_broadcast(std::uint64_t stage, std::string payload) override {
    runner_.net_.broadcast(Channel::kWab, self_, std::move(payload), stage);
  }

 private:
  ConsensusRunner& runner_;
  const ProcessId self_;
};

struct ConsensusRunner::Node {
  std::unique_ptr<Host> host;
  std::unique_ptr<HeartbeatFd> fd;
  std::unique_ptr<common::StableStorage> storage;  ///< survives crash/restart
  std::unique_ptr<consensus::Consensus> protocol;
  /// False between crash(p) and restart(p). The handler reads with acquire;
  /// restart() publishes the rebuilt protocol with the matching release while
  /// the transport still has p crashed, so the worker can never observe a
  /// half-built instance.
  std::atomic<bool> up{true};
  std::atomic<bool> decided{false};
  std::atomic<bool> has_proposal{false};
  mutable common::Mutex mu;  ///< guards decision + proposal (cross-thread reads)
  Value decision ZDC_GUARDED_BY(mu);
  Value proposal ZDC_GUARDED_BY(mu);
  // Pre-registered handles (null when fd_cfg.metrics is null).
  obs::Counter* proposals_ctr = nullptr;
  obs::Counter* decisions_ctr = nullptr;
  obs::Counter* restarts_ctr = nullptr;
};

ConsensusRunner::ConsensusRunner(GroupParams group, Transport& net,
                                 HeartbeatFd::Config fd_cfg,
                                 common::StorageFactory storage_factory)
    : group_(group), net_(net) {
  ZDC_ASSERT(net.size() == group.n);
  nodes_.reserve(group.n);
  for (ProcessId p = 0; p < group.n; ++p) {
    auto node = std::make_unique<Node>();
    node->host = std::make_unique<Host>(*this, p);
    node->storage = storage_factory
                        ? storage_factory(p)
                        : std::make_unique<common::InMemoryStableStorage>();
    ZDC_ASSERT(node->storage != nullptr);
    node->fd = std::make_unique<HeartbeatFd>(p, net_, fd_cfg, [this, p] {
      Node& n = *nodes_[p];
      if (n.up.load(std::memory_order_acquire)) n.protocol->on_fd_change();
    });
    if (fd_cfg.metrics != nullptr) {
      node->proposals_ctr = &fd_cfg.metrics->counter(
          "zdc_runner_proposals_total", obs::process_label(p));
      node->decisions_ctr = &fd_cfg.metrics->counter(
          "zdc_runner_decisions_total", obs::process_label(p));
      node->restarts_ctr = &fd_cfg.metrics->counter(
          "zdc_runner_restarts_total", obs::process_label(p));
    }
    nodes_.push_back(std::move(node));
  }
  // Protocols after all fds exist: build_protocol dereferences node->fd.
  for (ProcessId p = 0; p < group.n; ++p) {
    nodes_[p]->protocol = build_protocol(p);
    net_.set_handler(p, [this, p](const Delivery& d) { handle(p, d); });
  }
}

ConsensusRunner::~ConsensusRunner() { net_.shutdown(); }

std::unique_ptr<consensus::Consensus> ConsensusRunner::build_protocol(
    ProcessId p) {
  Node& node = *nodes_[p];
  return std::make_unique<consensus::RecoveringPaxosConsensus>(
      p, group_, *node.host, node.fd->omega(), *node.storage);
}

void ConsensusRunner::start() {
  net_.start();
  for (auto& node : nodes_) node->fd->start();
}

void ConsensusRunner::handle(ProcessId p, const Delivery& d) {
  Node& node = *nodes_[p];
  if (!node.up.load(std::memory_order_acquire)) return;
  switch (d.channel) {
    case Channel::kProtocol:
      node.protocol->on_message(d.from, d.bytes);
      break;
    case Channel::kHeartbeat:
      node.fd->on_heartbeat(d.from);
      break;
    case Channel::kWab:
      node.protocol->on_w_deliver(d.wab_instance, d.from, d.bytes);
      break;
    case Channel::kCatchup:
      // Single-shot consensus has no recovery service; nothing to feed.
      break;
  }
}

void ConsensusRunner::propose(ProcessId p, const Value& v) {
  Node& node = *nodes_[p];
  {
    common::MutexLock lock(node.mu);
    node.proposal = v;
  }
  node.has_proposal.store(true, std::memory_order_release);
  if (node.proposals_ctr != nullptr) node.proposals_ctr->inc();
  net_.schedule(p, 0.0, [this, p] {
    Node& n = *nodes_[p];
    if (!n.up.load(std::memory_order_acquire)) return;
    Value value;
    {
      common::MutexLock lock(n.mu);
      value = n.proposal;
    }
    n.protocol->propose(value);
  });
}

void ConsensusRunner::crash(ProcessId p) {
  nodes_[p]->up.store(false, std::memory_order_release);
  net_.crash(p);
}

void ConsensusRunner::restart(ProcessId p) {
  if (!net_.crashed(p)) return;
  net_.restart(p);
  // The rebuild must run on p's own worker: a handler that slipped past the
  // `up` gate just before crash() may still be mid-execution on the old
  // protocol object, and the worker thread is the only place serialized with
  // it. Until the timer fires, `up` stays false and fresh deliveries are
  // dropped — indistinguishable from arriving during the reboot itself.
  net_.schedule(p, 0.0, [this, p] {
    Node& n = *nodes_[p];
    n.protocol = build_protocol(p);  // reloads write-ahead acceptor state
    if (n.restarts_ctr != nullptr) n.restarts_ctr->inc();
    n.up.store(true, std::memory_order_release);
    n.fd->restart_on_worker();
    ZDC_LOG(kDebug, "consensus-runner")
        << "p" << p << " rebuilt; re-proposing="
        << n.has_proposal.load(std::memory_order_acquire);
    if (n.has_proposal.load(std::memory_order_acquire)) {
      Value value;
      {
        common::MutexLock lock(n.mu);
        value = n.proposal;
      }
      n.protocol->propose(value);
    }
  });
}

void ConsensusRunner::record_decision(ProcessId p, const Value& v) {
  Node& node = *nodes_[p];
  {
    common::MutexLock lock(node.mu);
    node.decision = v;
  }
  node.decided.store(true, std::memory_order_release);
  if (node.decisions_ctr != nullptr) node.decisions_ctr->inc();
  // Agreement check across processes (and across incarnations: a process that
  // decided, crashed, restarted and decided again goes through here twice).
  Value first;
  bool have = false;
  for (const auto& other : nodes_) {
    if (!other->decided.load(std::memory_order_acquire)) continue;
    common::MutexLock lock(other->mu);
    if (!have) {
      first = other->decision;
      have = true;
    } else if (other->decision != first) {
      conflict_.store(true, std::memory_order_release);
      ZDC_LOG(kError, "consensus-runner")
          << "agreement violation: '" << first << "' vs '" << other->decision
          << "'";
    }
  }
}

bool ConsensusRunner::decided(ProcessId p) const {
  return nodes_[p]->decided.load(std::memory_order_acquire);
}

Value ConsensusRunner::decision(ProcessId p) const {
  const Node& node = *nodes_[p];
  ZDC_ASSERT(node.decided.load(std::memory_order_acquire));
  common::MutexLock lock(node.mu);
  return node.decision;
}

bool ConsensusRunner::agreement_violated() const {
  return conflict_.load(std::memory_order_acquire);
}

bool ConsensusRunner::wait_decided(const std::vector<ProcessId>& procs,
                                   double timeout_ms) const {
  return RuntimeCluster::wait_until(
      [&] {
        return std::all_of(procs.begin(), procs.end(),
                           [this](ProcessId p) { return decided(p); });
      },
      timeout_ms);
}

common::StableStorage& ConsensusRunner::storage(ProcessId p) {
  return *nodes_[p]->storage;
}

NemesisDriver::NemesisDriver(Transport& net, fault::FaultPlan plan,
                             std::function<void(ProcessId)> crash_hook,
                             std::function<void(ProcessId)> restart_hook)
    : net_(net),
      plan_(std::move(plan)),
      crash_hook_(std::move(crash_hook)),
      restart_hook_(std::move(restart_hook)) {
  plan_.normalize();
}

void NemesisDriver::run() {
  const auto t0 = std::chrono::steady_clock::now();
  for (const fault::FaultAction& a : plan_.actions) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(a.time)));
    ZDC_LOG(kDebug, "nemesis") << fault::to_string(a);
    switch (a.kind) {
      case fault::FaultKind::kCrash:
        if (crash_hook_) {
          crash_hook_(a.p);
        } else {
          net_.crash(a.p);
        }
        break;
      case fault::FaultKind::kRestart:
        if (restart_hook_) {
          restart_hook_(a.p);
        } else {
          net_.restart(a.p);
        }
        break;
      default:
        fault::apply_to_policy(a, net_.links());
        break;
    }
  }
}

}  // namespace zdc::runtime
