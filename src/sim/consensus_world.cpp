#include "sim/consensus_world.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/stable_storage.h"
#include "consensus/brasileiro.h"
#include "consensus/chandra_toueg.h"
#include "consensus/ef_consensus.h"
#include "consensus/fast_paxos.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"
#include "consensus/paxos.h"
#include "consensus/recovering_paxos.h"
#include "consensus/wab_consensus.h"

namespace zdc::sim {

namespace {

/// The whole simulated deployment for one consensus instance.
class ConsensusWorld final : public FabricClient {
 public:
  ConsensusWorld(const ConsensusRunConfig& cfg, const SimConsensusFactory& factory)
      : cfg_(cfg),
        factory_(factory),
        rng_(cfg.seed),
        fabric_(cfg, rng_.fork(0x11), cfg.fault_plan, *this) {
    build_nodes();
  }

  ConsensusRunResult run();

 private:
  /// ConsensusHost implementation routing into the fabric.
  struct Host final : consensus::ConsensusHost {
    Host(ConsensusWorld& world, ProcessId self) : world_(world), self_(self) {}
    void send(ProcessId to, std::string bytes) override {
      world_.fabric_.unicast(self_, to, std::move(bytes));
    }
    void broadcast(std::string bytes) override {
      world_.fabric_.broadcast(self_, std::move(bytes));
    }
    void deliver_decision(const Value& v) override {
      world_.record_decision(self_, v);
    }
    void w_broadcast(std::uint64_t stage, std::string payload) override {
      world_.fabric_.w_broadcast(self_, stage, std::move(payload));
    }
    ConsensusWorld& world_;
    ProcessId self_;
  };

  struct Node {
    std::unique_ptr<Host> host;
    std::unique_ptr<consensus::Consensus> protocol;
    ProcessOutcome outcome;
  };

  void on_message(ProcessId from, ProcessId to,
                  const std::string& bytes) override {
    nodes_[to].protocol->on_message(from, bytes);
  }
  void on_w_deliver(ProcessId from, ProcessId to, std::uint64_t stage,
                    const std::string& body) override {
    nodes_[to].protocol->on_w_deliver(stage, from, body);
  }
  void on_fd_change(ProcessId p) override {
    fabric_.trace(TraceKind::kFdChange, p);
    nodes_[p].protocol->on_fd_change();
  }
  void on_crash(ProcessId p) override;
  void on_restart(ProcessId p) override;

  void build_nodes();
  void record_decision(ProcessId p, const Value& v);

  const ConsensusRunConfig& cfg_;
  const SimConsensusFactory& factory_;
  common::Rng rng_;
  Fabric fabric_;
  std::vector<Node> nodes_;
  std::size_t undecided_correct_ = 0;
  bool reincarnation_conflict_ = false;
};

void ConsensusWorld::build_nodes() {
  const std::uint32_t n = cfg_.group.n;
  ZDC_ASSERT_MSG(cfg_.proposals.size() == n, "need one proposal per process");
  nodes_.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    Node& node = nodes_[p];
    node.host = std::make_unique<Host>(*this, p);
    node.protocol = factory_(p, cfg_.group, *node.host,
                             fabric_.fd().omega_view(p),
                             fabric_.fd().suspect_view(p));
  }
  // Every process that crashes at some point (at the start, at a time or
  // halfway through a broadcast) is not owed a decision.
  for (const CrashSpec& c : cfg_.crashes) {
    ZDC_ASSERT(c.p < n);
    nodes_[c.p].outcome.correct = false;
  }
  fabric_.start(cfg_.crashes);
  fabric_.schedule_crashes(cfg_.crashes);

  // Schedule proposals.
  for (ProcessId p = 0; p < n; ++p) {
    if (fabric_.crashed(p)) continue;
    const TimePoint when =
        p < cfg_.propose_times.size() ? cfg_.propose_times[p] : 0.0;
    fabric_.events().at(when, [this, p] {
      fabric_.run_on_node(p, [this, p] {
        fabric_.trace(TraceKind::kPropose, p, kNoProcess, cfg_.proposals[p]);
        nodes_[p].protocol->propose(cfg_.proposals[p]);
      });
    });
  }
  fabric_.schedule_plan();

  for (const Node& node : nodes_) {
    if (node.outcome.correct) ++undecided_correct_;
  }
}

void ConsensusWorld::on_crash(ProcessId p) {
  ProcessOutcome& o = nodes_[p].outcome;
  if (o.correct) {
    o.correct = false;
    if (!o.decided) --undecided_correct_;
  }
}

void ConsensusWorld::record_decision(ProcessId p, const Value& v) {
  Node& node = nodes_[p];
  if (node.outcome.decided) {
    // A restarted incarnation deciding differently from its pre-crash self
    // is an agreement violation across incarnations.
    if (node.outcome.decision != v) reincarnation_conflict_ = true;
    return;
  }
  node.outcome.decided = true;
  node.outcome.decision = v;
  fabric_.trace(TraceKind::kDecide, p, kNoProcess, v);
  node.outcome.steps = node.protocol->decision_steps();
  node.outcome.path = node.protocol->decision_path();
  node.outcome.decide_time = fabric_.now();
  if (cfg_.metrics != nullptr) {
    // Decisions are rare; registering through the registry here (instead of
    // pre-registered handles) keeps the hot paths untouched.
    const char* path =
        node.outcome.path == consensus::DecisionPath::kRound ? "round"
        : node.outcome.path == consensus::DecisionPath::kForwarded
            ? "forwarded"
            : "none";
    cfg_.metrics
        ->counter("zdc_sim_decisions_path_total",
                  {{"process", std::to_string(p)}, {"path", path}})
        .inc();
    cfg_.metrics->counter("zdc_sim_decision_steps_total",
                          obs::process_label(p))
        .inc(node.outcome.steps);
    cfg_.metrics->histogram("zdc_sim_decision_latency_ms", {})
        .observe(node.outcome.decide_time);
  }
  if (node.outcome.correct) {
    ZDC_ASSERT(undecided_correct_ > 0);
    --undecided_correct_;
  }
}

void ConsensusWorld::on_restart(ProcessId p) {
  Node& node = nodes_[p];
  fabric_.trace(TraceKind::kPropose, p, kNoProcess, "restart");
  // A fresh incarnation: new protocol object (the factory re-injects any
  // durable state), original proposal re-proposed.
  node.protocol = factory_(p, cfg_.group, *node.host,
                           fabric_.fd().omega_view(p),
                           fabric_.fd().suspect_view(p));
  node.protocol->propose(cfg_.proposals[p]);
}

ConsensusRunResult ConsensusWorld::run() {
  ConsensusRunResult result;
  result.events_executed =
      fabric_.run(cfg_.time_limit_ms, cfg_.event_limit,
                  [this] { return undecided_correct_ == 0; });

  static_cast<CorruptionLedger&>(result) = fabric_.ledger();
  result.outcomes.reserve(nodes_.size());
  // Agreement is checked over every process that decided, crashed ones
  // included.
  const Value* seen = nullptr;
  for (ProcessId p = 0; p < nodes_.size(); ++p) {
    const consensus::Consensus& protocol = *nodes_[p].protocol;
    result.totals += protocol.metrics();
    result.corrupt_frames_dropped += protocol.corrupt_frames_dropped();
    if (cfg_.metrics != nullptr) {
      cfg_.metrics->counter("zdc_sim_rounds_total", obs::process_label(p))
          .inc(protocol.metrics().rounds_started);
    }
    const ProcessOutcome& o = nodes_[p].outcome;
    result.outcomes.push_back(o);
    if (!o.decided) continue;
    if (seen == nullptr || o.decide_time < result.first_decision_time) {
      result.first_decision_time = o.decide_time;
    }
    result.last_decision_time =
        std::max(result.last_decision_time, o.decide_time);
    if (std::find(cfg_.proposals.begin(), cfg_.proposals.end(), o.decision) ==
        cfg_.proposals.end()) {
      result.validity_ok = false;
    }
    if (seen != nullptr && *seen != o.decision) result.agreement_ok = false;
    if (seen == nullptr) seen = &o.decision;
  }
  if (reincarnation_conflict_) result.agreement_ok = false;
  result.all_correct_decided = undecided_correct_ == 0;
  return result;
}

}  // namespace

SimConsensusFactory l_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::LConsensus>(self, group, host, omega);
  };
}

SimConsensusFactory p_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView& suspects) {
    return std::make_unique<consensus::PConsensus>(self, group, host, suspects);
  };
}

SimConsensusFactory paxos_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::PaxosConsensus>(self, group, host, omega);
  };
}

namespace {

/// The module a one-step wrapper (Brasileiro, EfConsensus) tunnels: "paxos"
/// or L-Consensus. The views are owned by the world and outlive the
/// protocol, so the factory captures a pointer to Ω (capturing the reference
/// parameter would dangle once the outer factory call returns).
consensus::ConsensusFactory underlying_factory(const std::string& underlying,
                                               const fd::OmegaView& omega) {
  const fd::OmegaView* omega_ptr = &omega;
  if (underlying == "paxos") {
    return [omega_ptr](ProcessId s, GroupParams g, consensus::ConsensusHost& h) {
      return std::make_unique<consensus::PaxosConsensus>(s, g, h, *omega_ptr);
    };
  }
  return [omega_ptr](ProcessId s, GroupParams g, consensus::ConsensusHost& h) {
    return std::make_unique<consensus::LConsensus>(s, g, h, *omega_ptr);
  };
}

}  // namespace

SimConsensusFactory brasileiro_factory(const std::string& underlying) {
  return [underlying](ProcessId self, GroupParams group,
                      consensus::ConsensusHost& host, const fd::OmegaView& omega,
                      const fd::SuspectView&) {
    return std::make_unique<consensus::BrasileiroConsensus>(
        self, group, host, underlying_factory(underlying, omega));
  };
}

SimConsensusFactory ef_consensus_factory(std::uint32_t e,
                                         const std::string& underlying) {
  return [e, underlying](ProcessId self, GroupParams group,
                         consensus::ConsensusHost& host,
                         const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::EfConsensus>(
        self, group, e, host, underlying_factory(underlying, omega));
  };
}

SimConsensusFactory ct_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView& suspects) {
    return std::make_unique<consensus::CtConsensus>(self, group, host,
                                                    suspects);
  };
}

SimConsensusFactory recovering_paxos_factory() {
  // Each process gets its own stable storage, shared by reference into the
  // protocol. For restart scenarios build the factory by hand around
  // externally owned storage (tests/recovery_test.cpp); this canned variant
  // is for no-restart runs (CLI, sweeps), where the storage's lifetime can
  // ride along in the closure.
  auto storages = std::make_shared<
      std::map<ProcessId, std::shared_ptr<common::InMemoryStableStorage>>>();
  return [storages](ProcessId self, GroupParams group,
                    consensus::ConsensusHost& host, const fd::OmegaView& omega,
                    const fd::SuspectView&) {
    auto& slot = (*storages)[self];
    if (slot == nullptr) slot = std::make_shared<common::InMemoryStableStorage>();
    return std::make_unique<consensus::RecoveringPaxosConsensus>(
        self, group, host, omega, *slot);
  };
}

SimConsensusFactory recovering_paxos_factory(StorageFactory make_storage) {
  if (!make_storage) return recovering_paxos_factory();
  // Storage is built once per process and cached: a restart rebuilds the
  // protocol object but reads back the same (surviving) storage, which is
  // the whole crash-recovery contract.
  auto storages = std::make_shared<
      std::map<ProcessId, std::shared_ptr<common::StableStorage>>>();
  return [storages, make_storage](ProcessId self, GroupParams group,
                                  consensus::ConsensusHost& host,
                                  const fd::OmegaView& omega,
                                  const fd::SuspectView&) {
    auto& slot = (*storages)[self];
    if (slot == nullptr) slot = make_storage(self);
    ZDC_ASSERT_MSG(slot != nullptr, "storage factory returned null");
    return std::make_unique<consensus::RecoveringPaxosConsensus>(
        self, group, host, omega, *slot);
  };
}

SimConsensusFactory fast_paxos_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return std::make_unique<consensus::FastPaxosConsensus>(self, group, host,
                                                           omega);
  };
}

SimConsensusFactory wab_consensus_factory() {
  return [](ProcessId self, GroupParams group, consensus::ConsensusHost& host,
            const fd::OmegaView&, const fd::SuspectView&) {
    return std::make_unique<consensus::WabConsensus>(self, group, host);
  };
}

SimConsensusFactory consensus_factory_by_name(const std::string& name) {
  if (name == "l") return l_consensus_factory();
  if (name == "p") return p_consensus_factory();
  if (name == "paxos") return paxos_factory();
  if (name == "brasileiro-l") return brasileiro_factory("l");
  if (name == "brasileiro-paxos") return brasileiro_factory("paxos");
  if (name == "wab") return wab_consensus_factory();
  if (name == "ct") return ct_consensus_factory();
  if (name == "fast-paxos") return fast_paxos_factory();
  if (name == "rec-paxos") return recovering_paxos_factory();
  ZDC_ASSERT_MSG(false, "unknown consensus protocol name");
  return {};
}

SimConsensusFactory consensus_factory_by_name(const std::string& name,
                                              const RunOptions& opts) {
  if (name == "rec-paxos") {
    return recovering_paxos_factory(opts.storage_factory);
  }
  return consensus_factory_by_name(name);
}

ConsensusRunResult run_consensus(const ConsensusRunConfig& cfg,
                                 const SimConsensusFactory& factory) {
  ConsensusWorld world(cfg, factory);
  return world.run();
}

}  // namespace zdc::sim
