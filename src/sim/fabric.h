// The simulated LAN every sim world runs on (the testbed substitution,
// DESIGN.md §2).
//
// A Fabric owns everything between two protocol objects: the event queue,
// the LAN timing model, the simulated failure detectors and the nemesis link
// table. It carries unicasts, broadcasts (including a crash halfway through
// one) and oracle w-broadcasts; it parks reliable traffic on a cut link and
// re-injects it on heal, freezes a paused process's work until resume, owns
// the crash flags, and injects the corruption faults (surface the corrupted
// copy, then retransmit the clean one) with their ledger. Every entry into
// protocol code goes through run_on_node, and every structured event through
// trace(). A fault plan therefore means the same thing in every world built
// on it.
//
// A world keeps only its protocol wiring: it implements FabricClient (how a
// delivery, an FD change, a crash or a restart reaches its protocols), its
// Host adapters call unicast/broadcast/w_broadcast, and it owns its workload,
// result collection and oracles.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fault/link_policy.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "sim/event_queue.h"
#include "sim/fd_sim.h"
#include "sim/lan_model.h"
#include "sim/trace.h"

namespace zdc::sim {

/// Crash injection for one process.
struct CrashSpec {
  ProcessId p = 0;
  /// Crash instant; 0 with initial=true means dead before the run starts.
  TimePoint time = 0.0;
  bool initial = false;
  /// If nonzero, instead of crashing at `time`, the process executes until its
  /// k-th broadcast (1-based), which is delivered only to `partial_targets`,
  /// and crashes immediately afterwards — the adversarial mid-broadcast crash
  /// the agreement proofs must survive.
  std::uint32_t truncate_broadcast_index = 0;
  std::vector<ProcessId> partial_targets;
  /// Crash-recovery model: if >= 0, the process restarts at this time — a
  /// fresh protocol instance is built through the factory (same host, same
  /// FD views, and crucially the same StableStorage if the factory injects
  /// one) and re-proposes. Crash-stop worlds reject it.
  double restart_time = -1.0;
};

/// Corruption-fault accounting (FaultPlan flip/scorrupt/equivocate): frames
/// the fabric corrupted, divergent duplicates it delivered, and frames the
/// protocols' CRC seal rejected. Every corrupted frame that *arrives* is a
/// detectable drop, so corrupt_frames_dropped <= frames_corrupted +
/// equivocations — with equality once every injected copy has landed (a run
/// ends when its workload is done, so the tail of the ledger may still be in
/// flight; the model checker asserts exact equality at true quiescence).
struct CorruptionLedger {
  std::uint64_t frames_corrupted = 0;
  std::uint64_t equivocations = 0;
  std::uint64_t corrupt_frames_dropped = 0;
};

/// How the fabric reaches a world's protocols. Every call runs as the named
/// node (inside run_on_node), except on_crash and on_restart.
class FabricClient {
 public:
  virtual ~FabricClient() = default;
  /// A transport message from `from` reached `to`.
  virtual void on_message(ProcessId from, ProcessId to,
                          const std::string& bytes) = 0;
  /// An oracle datagram of `stage` from `from` reached `to`. The default
  /// rejects it: worlds without oracle protocols carry no such traffic.
  virtual void on_w_deliver(ProcessId from, ProcessId to, std::uint64_t stage,
                            const std::string& body);
  /// p's failure-detector output changed.
  virtual void on_fd_change(ProcessId p) = 0;
  /// p just crashed (its flag is set; the detector is told afterwards).
  virtual void on_crash(ProcessId /*p*/) {}
  /// p is alive again (flag cleared, detector told): build its new
  /// incarnation. The default rejects it: crash-stop worlds.
  virtual void on_restart(ProcessId p);
};

class Fabric {
 public:
  /// `lan_rng` is the world's fork for LAN jitter (each world keeps its own
  /// fork salt). Asserts that `plan` names only processes < opts.group.n.
  Fabric(const RunOptions& opts, common::Rng lan_rng, fault::FaultPlan plan,
         FabricClient& client);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Marks the CrashSpecs' initially-dead processes crashed and installs the
  /// detectors' t=0 output (which notifies the client synchronously).
  void start(const std::vector<CrashSpec>& crashes);
  /// Schedules the timed crashes and restarts and arms broadcast truncations.
  void schedule_crashes(const std::vector<CrashSpec>& crashes);
  /// Schedules every action of the plan given at construction.
  void schedule_plan();

  /// Runs events until `done()` holds after an event, the queue drains, the
  /// time limit passes or `event_limit` events ran. Returns the events run.
  std::uint64_t run(TimePoint time_limit, std::uint64_t event_limit,
                    const std::function<bool()>& done);

  // --- Host side: what a protocol's host adapter calls. ---
  void unicast(ProcessId from, ProcessId to, std::string bytes);
  /// To every process including the sender.
  void broadcast(ProcessId from, std::string bytes);
  /// UDP-style oracle broadcast: one transmission, per-receiver jitter.
  /// With `only` set, the one datagram reaches that receiver alone (a
  /// best-effort unicast on the same wire).
  void w_broadcast(ProcessId from, std::uint64_t stage, std::string payload,
                   ProcessId only = kNoProcess);

  /// Runs `fn` as node p now — unless p is crashed (dropped) or paused
  /// (parked until resume). Every entry into protocol code goes through here.
  void run_on_node(ProcessId p, std::function<void()> fn);

  void crash(ProcessId p);
  /// Clears p's crash flag, tells the detector, then FabricClient::on_restart.
  void restart(ProcessId p);

  /// The nemesis link table. Worlds edit it through their plan only; an
  /// owner that edits it directly hooks the two releases below to it.
  fault::LinkPolicy& links() { return policy_; }
  /// Re-injects reliable traffic parked on links that are open again.
  void release_unblocked();
  /// Runs the work frozen while p was paused (p must be resumed).
  void release_paused(ProcessId p);

  /// Records one structured event and bumps its (kind, subject) counter.
  void trace(TraceKind kind, ProcessId subject, ProcessId peer = kNoProcess,
             std::string detail = {}) {
    if (opts_.trace != nullptr) {
      opts_.trace->record(events_.now(), kind, subject, peer,
                          std::move(detail));
    }
    const auto k = static_cast<std::size_t>(kind);
    if (subject < kind_counters_[k].size()) kind_counters_[k][subject]->inc();
  }

  [[nodiscard]] bool crashed(ProcessId p) const { return crashed_[p] != 0; }
  [[nodiscard]] bool paused(ProcessId p) const { return policy_.paused(p); }
  [[nodiscard]] TimePoint now() const { return events_.now(); }
  EventQueue& events() { return events_; }
  FdSim& fd() { return fd_; }
  /// Frames corrupted and duplicates injected so far; the world adds the
  /// protocols' drop count.
  [[nodiscard]] const CorruptionLedger& ledger() const { return ledger_; }

 private:
  using Bytes = std::shared_ptr<const std::string>;

  void apply_fault(const fault::FaultAction& a);
  /// Loopback self-delivery: sender CPU only, no medium, no receiver CPU.
  void send_to_self(ProcessId p, const Bytes& bytes);
  /// Sender CPU plus one medium occupancy, then transmit(); returns the
  /// transmission end.
  TimePoint send_remote(ProcessId from, ProcessId to, const Bytes& bytes);
  /// The reliable channel after the medium: park on a cut link, inject a
  /// due corruption, else schedule the arrival.
  void transmit(ProcessId from, ProcessId to, TimePoint tx_end,
                const Bytes& bytes);
  void schedule_arrival(ProcessId from, ProcessId to, TimePoint tx_end,
                        const Bytes& bytes);
  void deliver(ProcessId from, ProcessId to, const Bytes& bytes);

  struct Truncation {
    std::uint32_t at = 0;  ///< 1-based broadcast index; 0 = none armed
    std::vector<ProcessId> targets;
    std::uint32_t done = 0;  ///< broadcasts made since it was armed
  };

  const RunOptions& opts_;
  const fault::FaultPlan plan_;
  FabricClient& client_;
  const std::uint32_t n_;
  EventQueue events_;
  LanModel lan_;
  FdSim fd_;
  fault::LinkPolicy policy_;
  std::vector<std::uint8_t> crashed_;
  std::vector<Truncation> truncations_;
  /// Reliable messages parked on a cut link, re-injected when it re-opens
  /// (row-major (from, to) like the policy table).
  std::vector<std::vector<Bytes>> blocked_;
  /// Work frozen while its target process is paused, flushed on resume.
  std::vector<std::vector<std::function<void()>>> paused_work_;
  CorruptionLedger ledger_;
  /// One counter per (TraceKind, process), bumped by trace() — the sim half
  /// of the metric catalog in docs/OBSERVABILITY.md. Empty when metrics are
  /// off. Counting touches neither the RNG nor the event queue, so enabling
  /// metrics cannot perturb a run.
  std::array<std::vector<obs::Counter*>,
             static_cast<std::size_t>(TraceKind::kFault) + 1>
      kind_counters_;
};

}  // namespace zdc::sim
