// Deterministic single-instance consensus harness.
//
// Builds n protocol instances over the LAN model and a simulated failure
// detector, injects proposals and crashes, runs the event queue to quiescence
// and checks the consensus properties. Used by the protocol test-suites
// (hundreds of randomized schedules per protocol) and by the step-count
// benches (one-step / zero-degradation experiments).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "consensus/consensus.h"
#include "fault/fault_plan.h"
#include "fd/failure_detector.h"
#include "obs/run_options.h"
#include "sim/fabric.h"
#include "sim/fd_sim.h"
#include "sim/lan_model.h"
#include "sim/trace.h"

namespace zdc::sim {

/// Inherits the shared group/net/fd/seed block plus the observability hooks
/// (metrics registry, trace recorder) from zdc::RunOptions — see
/// obs/run_options.h for the fluent builder.
struct ConsensusRunConfig : RunOptions {
  std::vector<Value> proposals;          ///< size n (entries of crashed procs unused)
  std::vector<TimePoint> propose_times;  ///< empty = all propose at t=0
  std::vector<CrashSpec> crashes;
  TimePoint time_limit_ms = 60'000.0;
  std::uint64_t event_limit = 10'000'000;
  /// Scripted nemesis actions, applied at their timestamps (src/fault/).
  /// Partitions park reliable traffic until a heal (TCP semantics: connections
  /// stall, they do not lose data); best-effort oracle datagrams on a cut link
  /// are lost. pause/resume freeze a process's event handling without killing
  /// it — under FdMode::kCrashTracking this manufactures *false* suspicions.
  /// crash/restart route through the same paths as CrashSpec-driven ones.
  fault::FaultPlan fault_plan;
};

struct ProcessOutcome {
  bool correct = true;
  bool decided = false;
  Value decision;
  std::uint32_t steps = 0;
  consensus::DecisionPath path = consensus::DecisionPath::kNone;
  TimePoint decide_time = 0.0;
};

/// The corruption ledger (sim/fabric.h) is part of the result: with frame
/// checksums on, corrupt_frames_dropped <= frames_corrupted + equivocations.
struct ConsensusRunResult : CorruptionLedger {
  std::vector<ProcessOutcome> outcomes;
  common::ProtocolMetrics totals;
  bool all_correct_decided = false;
  bool agreement_ok = true;  ///< over every process that decided
  bool validity_ok = true;   ///< decisions are among the proposals
  TimePoint first_decision_time = 0.0;
  TimePoint last_decision_time = 0.0;
  std::uint64_t events_executed = 0;

  [[nodiscard]] bool safe() const { return agreement_ok && validity_ok; }
};

/// Builds a protocol instance for one process. The views outlive the protocol.
using SimConsensusFactory = std::function<std::unique_ptr<consensus::Consensus>(
    ProcessId self, GroupParams group, consensus::ConsensusHost& host,
    const fd::OmegaView& omega, const fd::SuspectView& suspects)>;

/// Canned factories for the four protocol families.
SimConsensusFactory l_consensus_factory();
SimConsensusFactory p_consensus_factory();
SimConsensusFactory paxos_factory();
/// Brasileiro's one-step voting over an underlying module ("l" or "paxos").
SimConsensusFactory brasileiro_factory(const std::string& underlying);
SimConsensusFactory wab_consensus_factory();
/// Chandra-Toueg ◇S rotating-coordinator consensus (classic baseline).
SimConsensusFactory ct_consensus_factory();
/// Fast Paxos (one-step fast round + Ω-coordinated recovery), f < n/3.
SimConsensusFactory fast_paxos_factory();
/// Crash-recovery Paxos with per-process in-memory stable storage owned by
/// the factory closure (no-restart runs; restart tests inject storage).
SimConsensusFactory recovering_paxos_factory();
/// Same protocol, storage built through `make_storage` (RunOptions'
/// storage_factory — e.g. the WAL-backed durable store). Each process's
/// storage is built once and cached in the closure, so restart scenarios
/// rebuild the protocol over the surviving storage object.
SimConsensusFactory recovering_paxos_factory(StorageFactory make_storage);
/// Lamport's generalized (e, f) fast consensus over an underlying module
/// ("l" or "paxos"); requires n > max(2f, 2e+f).
SimConsensusFactory ef_consensus_factory(std::uint32_t e,
                                         const std::string& underlying);
/// Resolves a factory by protocol name: "l", "p", "paxos", "brasileiro-l",
/// "brasileiro-paxos", "wab", "ct", "fast-paxos", "rec-paxos". Aborts on
/// unknown names.
SimConsensusFactory consensus_factory_by_name(const std::string& name);
/// Same, honouring `opts.storage_factory` for storage-backed protocols
/// (currently rec-paxos); other names ignore it.
SimConsensusFactory consensus_factory_by_name(const std::string& name,
                                              const RunOptions& opts);

/// Runs one consensus instance to quiescence.
ConsensusRunResult run_consensus(const ConsensusRunConfig& cfg,
                                 const SimConsensusFactory& factory);

}  // namespace zdc::sim
