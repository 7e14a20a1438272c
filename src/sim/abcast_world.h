// Atomic-broadcast workload harness: the simulated counterpart of the paper's
// cluster experiment (Sec. 8.1).
//
// A Poisson arrival process a-broadcasts fixed-size messages from uniformly
// random correct processes at a configured aggregate throughput; the harness
// measures the per-message latency ("the shortest delay between
// a-broadcasting m and a-delivering m" — i.e. until the first delivery at any
// process, plus the sender-local variant), checks the four atomic-broadcast
// properties over the complete delivery histories and accounts messages and
// bytes. Figures 2 and 3 are throughput sweeps over this harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "abcast/abcast.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fd/failure_detector.h"
#include "sim/fabric.h"
#include "sim/fd_sim.h"
#include "sim/lan_model.h"
#include "sim/trace.h"

namespace zdc::sim {

/// Inherits the shared group/net/fd/seed block, the consolidated batching
/// knobs and the observability hooks from zdc::RunOptions — see
/// obs/run_options.h for the fluent builder.
struct AbcastRunConfig : RunOptions {
  double throughput_per_s = 100.0;  ///< aggregate a-broadcast rate
  std::uint32_t message_count = 400;
  std::uint32_t payload_bytes = 64;
  /// Processes that originate a-broadcasts (empty = all alive processes).
  /// The paper's Paxos experiment keeps clients off the leader: its n=3
  /// group serves a workload generated elsewhere, so every message pays the
  /// client→leader hop (Table 1's 3δ).
  std::vector<ProcessId> workload_senders;
  /// Fraction of earliest messages excluded from the latency statistics.
  double warmup_fraction = 0.1;

  std::vector<CrashSpec> crashes;
  /// Scripted nemesis actions (src/fault/): partitions/link faults/pauses,
  /// corruption and crashes, injected by the shared fabric exactly as in
  /// ConsensusWorld. Restart actions are rejected — this world is crash-stop
  /// (the crash-recovery abcast path lives in the threaded runtime).
  fault::FaultPlan fault_plan;
  TimePoint time_limit_ms = 300'000.0;
  std::uint64_t event_limit = 100'000'000;
};

/// The corruption ledger (sim/fabric.h) counts frames the fabric corrupted
/// and the CRC drops the protocols reported. PaxosAbcast frames carry no
/// seal, so against it a flip reaches the decoder and only the oracles below
/// can catch it.
struct AbcastRunResult : CorruptionLedger {
  /// Latency to the first a-delivery anywhere (the paper's metric).
  common::Sampler latency_ms;
  /// Latency to the a-delivery at the broadcasting process.
  common::Sampler sender_latency_ms;

  bool total_order_ok = true;  ///< pairwise prefix-consistent histories
  bool agreement_ok = true;    ///< every correct process delivered everything
  /// No duplicate or spurious delivery, and every a-delivered payload is
  /// byte-identical to what was a-broadcast.
  bool integrity_ok = true;
  std::uint64_t undelivered = 0;  ///< expected messages still missing somewhere

  abcast::AbcastMetrics totals;
  std::uint64_t delivered_unique = 0;
  TimePoint duration_ms = 0.0;
  std::uint64_t events_executed = 0;

  /// Per-process a-delivery order (index = ProcessId) — lets property tests
  /// assert per-sender FIFO and other order invariants beyond the built-in
  /// pairwise prefix check.
  std::vector<std::vector<abcast::MsgId>> histories;

  [[nodiscard]] bool safe() const { return total_order_ok && integrity_ok; }
  /// Transport unicasts per unique a-delivered message (Table 1 column).
  [[nodiscard]] double messages_per_abcast() const {
    return delivered_unique == 0
               ? 0.0
               : static_cast<double>(totals.transport.messages_sent +
                                     totals.w_broadcasts) /
                     static_cast<double>(delivered_unique);
  }
};

using SimAbcastFactory = std::function<std::unique_ptr<abcast::AtomicBroadcast>(
    ProcessId self, GroupParams group, abcast::AbcastHost& host,
    const fd::OmegaView& omega, const fd::SuspectView& suspects)>;

/// "c-l" (C-Abcast over L-Consensus), "c-p", "wabcast", "paxos".
SimAbcastFactory abcast_factory_by_name(const std::string& name);

AbcastRunResult run_abcast(const AbcastRunConfig& cfg,
                           const SimAbcastFactory& factory);

}  // namespace zdc::sim
