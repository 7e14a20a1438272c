#include "sim/sequence_world.h"

#include <map>
#include <memory>
#include <utility>

#include "common/assert.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/fabric.h"

namespace zdc::sim {

namespace {

/// Like ConsensusWorld, but instances are created in sequence and their
/// traffic is wrapped in an instance-id envelope.
class SequenceWorld final : public FabricClient {
 public:
  SequenceWorld(const SequenceConfig& cfg, const SimConsensusFactory& factory)
      : cfg_(cfg),
        factory_(factory),
        rng_(cfg.seed),
        fabric_(cfg, rng_.fork(0x44), fault::FaultPlan{}, *this),
        proposal_rng_(rng_.fork(0x55)) {
    fabric_.start({});
    if (cfg_.metrics != nullptr) {
      decision_latency_ =
          &cfg_.metrics->histogram("zdc_sim_decision_latency_ms", {});
    }
  }

  SequenceResult run();

 private:
  struct Host final : consensus::ConsensusHost {
    Host(SequenceWorld& world, ProcessId self, std::uint32_t instance)
        : world_(world), self_(self), instance_(instance) {}
    void send(ProcessId to, std::string bytes) override {
      world_.fabric_.unicast(self_, to, wrap(std::move(bytes)));
    }
    void broadcast(std::string bytes) override {
      world_.fabric_.broadcast(self_, wrap(std::move(bytes)));
    }
    void deliver_decision(const Value& v) override {
      world_.record_decision(instance_, self_, v);
    }
    [[nodiscard]] std::string wrap(std::string bytes) const {
      common::Encoder enc;
      enc.put_u64(instance_);
      enc.put_raw(bytes);
      return enc.take();
    }
    SequenceWorld& world_;
    ProcessId self_;
    std::uint32_t instance_;
  };

  struct ProcessInstance {
    std::unique_ptr<Host> host;
    std::unique_ptr<consensus::Consensus> protocol;
    bool decided = false;
    Value decision;
  };

  struct Instance {
    std::vector<ProcessInstance> procs;
    InstanceStats stats;
    std::uint32_t undecided_correct = 0;
    common::OnlineStats steps;
    bool started = false;
  };

  void on_message(ProcessId from, ProcessId to,
                  const std::string& framed) override;
  void on_fd_change(ProcessId p) override;
  void on_crash(ProcessId p) override;

  void start_instance(std::uint32_t index);
  void record_decision(std::uint32_t instance, ProcessId p, const Value& v);
  void maybe_complete(std::uint32_t instance);

  const SequenceConfig& cfg_;
  const SimConsensusFactory& factory_;
  common::Rng rng_;
  Fabric fabric_;
  common::Rng proposal_rng_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::uint32_t current_ = 0;
  bool finished_ = false;
  obs::Histogram* decision_latency_ = nullptr;  ///< null when metrics are off
};

void SequenceWorld::start_instance(std::uint32_t index) {
  if (index >= cfg_.instances) {
    finished_ = true;
    return;
  }
  // Injected crash at this boundary.
  if (cfg_.crash_process != kNoProcess && index == cfg_.crash_before_instance) {
    fabric_.crash(cfg_.crash_process);
  }

  current_ = index;
  while (instances_.size() <= index) {
    instances_.push_back(std::make_unique<Instance>());
  }
  Instance& inst = *instances_[index];
  inst.started = true;
  inst.stats.start_time = fabric_.now();
  inst.procs.resize(cfg_.group.n);

  for (ProcessId p = 0; p < cfg_.group.n; ++p) {
    ProcessInstance& pi = inst.procs[p];
    pi.host = std::make_unique<Host>(*this, p, index);
    pi.protocol = factory_(p, cfg_.group, *pi.host, fabric_.fd().omega_view(p),
                           fabric_.fd().suspect_view(p));
    if (!fabric_.crashed(p)) ++inst.undecided_correct;
  }
  for (ProcessId p = 0; p < cfg_.group.n; ++p) {
    if (fabric_.crashed(p)) continue;
    const Value proposal =
        cfg_.divergent_proposals
            ? "v" + std::to_string(proposal_rng_.next_below(cfg_.group.n)) +
                  "-p" + std::to_string(p)
            : "agreed";
    // Propose via an event so instance construction never recurses into
    // message delivery.
    fabric_.events().after(0.0, [this, index, p, proposal] {
      fabric_.run_on_node(p, [this, index, p, proposal] {
        fabric_.trace(TraceKind::kPropose, p, kNoProcess, proposal);
        instances_[index]->procs[p].protocol->propose(proposal);
      });
    });
  }
}

void SequenceWorld::on_message(ProcessId from, ProcessId to,
                               const std::string& framed) {
  common::Decoder dec(framed);
  const std::uint64_t instance = dec.get_u64();
  if (!dec.ok() || instance >= instances_.size()) return;
  Instance& inst = *instances_[instance];
  if (inst.procs.empty()) return;
  auto& pi = inst.procs[to];
  if (pi.protocol != nullptr && !pi.decided) {
    pi.protocol->on_message(from, dec.get_rest());
  }
}

void SequenceWorld::record_decision(std::uint32_t instance, ProcessId p,
                                    const Value& v) {
  Instance& inst = *instances_[instance];
  ProcessInstance& pi = inst.procs[p];
  if (pi.decided) return;
  pi.decided = true;
  pi.decision = v;
  fabric_.trace(TraceKind::kDecide, p, kNoProcess, v);

  const TimePoint rel = fabric_.now() - inst.stats.start_time;
  if (decision_latency_ != nullptr) decision_latency_->observe(rel);
  if (inst.stats.first_decision == 0.0 || rel < inst.stats.first_decision) {
    inst.stats.first_decision = rel;
  }
  inst.stats.last_decision = std::max(inst.stats.last_decision, rel);
  if (pi.protocol->decision_path() == consensus::DecisionPath::kRound) {
    inst.steps.add(pi.protocol->decision_steps());
  }

  // Agreement across deciders of this instance.
  for (const auto& other : inst.procs) {
    if (other.decided && other.decision != v) inst.stats.safe = false;
  }

  if (!fabric_.crashed(p) && inst.undecided_correct > 0) {
    --inst.undecided_correct;
    maybe_complete(instance);
  }
}

void SequenceWorld::maybe_complete(std::uint32_t instance) {
  Instance& inst = *instances_[instance];
  if (inst.stats.complete || !inst.started || inst.undecided_correct != 0 ||
      instance != current_) {
    return;
  }
  inst.stats.complete = true;
  inst.stats.mean_steps = inst.steps.mean();
  // Barrier: the next instance starts now.
  fabric_.events().after(0.0,
                         [this, next = instance + 1] { start_instance(next); });
}

void SequenceWorld::on_fd_change(ProcessId p) {
  for (auto& inst : instances_) {
    if (!inst->procs.empty() && inst->procs[p].protocol != nullptr &&
        !inst->procs[p].decided) {
      inst->procs[p].protocol->on_fd_change();
    }
  }
}

void SequenceWorld::on_crash(ProcessId p) {
  // Undecided-correct bookkeeping for the in-flight instance.
  for (std::uint32_t i = 0; i < instances_.size(); ++i) {
    auto& inst = *instances_[i];
    if (inst.started && !inst.stats.complete && !inst.procs.empty() &&
        !inst.procs[p].decided && inst.undecided_correct > 0) {
      --inst.undecided_correct;
      maybe_complete(i);
    }
  }
}

SequenceResult SequenceWorld::run() {
  fabric_.events().after(0.0, [this] { start_instance(0); });
  fabric_.run(cfg_.time_limit_ms, cfg_.event_limit,
              [this] { return finished_; });

  SequenceResult result;
  for (const auto& inst : instances_) {
    result.instances.push_back(inst->stats);
    result.all_complete = result.all_complete && inst->stats.complete;
    result.all_safe = result.all_safe && inst->stats.safe;
  }
  result.all_complete =
      result.all_complete && result.instances.size() == cfg_.instances;
  return result;
}

}  // namespace

SequenceResult run_consensus_sequence(const SequenceConfig& cfg,
                                      const SimConsensusFactory& factory) {
  SequenceWorld world(cfg, factory);
  return world.run();
}

}  // namespace zdc::sim
