// Deterministic whole-service runs: client sessions driven through the real
// rsm::ServiceGroup — RuntimeCluster, C-Abcast over L-Consensus,
// ReplicaGroup's durable applies and catch-up, the heartbeat detector and
// the lease gate — on sim::SimTransport, single-threaded in virtual time
// (every hop timed by RunOptions::net). One (config, seed) reproduces a run
// byte for byte.
//
// The oracles are O(total ops log ops). The replicas run the replicated
// log (core/replicated_log.h); every write appends its (client, seqno), so
// its reply carries its position N in the total order ("idx:N"), and every
// read asks the length M ("len:M"). A real-time-order violation is then (a)
// a completed write ordered after one invoked after it completed, found by
// a running-max scan over writes sorted by N, or (b) a read whose M misses
// a write completed before the read was invoked. A retry that leaked past
// the session dedup layer, even across a kill-9 and WAL replay, shows as a
// (client, seqno) entry in the final log twice: a double apply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/run_options.h"
#include "service/service_group.h"

namespace zdc::rsm {

struct SessionRunConfig {
  /// Group, seed, LAN timing (`net`), read-index and lease knobs
  /// (`service`), metrics and storage of the run; sessions are always on.
  /// Without a storage_factory each replica gets a WAL on its own MemEnv.
  /// `metrics` also receives zdc_service_client_latency_ms{path=write|read}.
  zdc::RunOptions opts;
  /// Client retry timer and attempt cap, gate poll, durability windows.
  /// Defaults here: a 300 ms retry timer, above a write's latency at a few
  /// hundred open sessions (retries come from faults, not load), and a
  /// checkpoint every 4096 applies.
  ServiceGroup::Config service = [] {
    ServiceGroup::Config c;
    c.client_retry_ms = 300.0;
    c.replicas.rsm.snapshot_every = 4096;
    c.replicas.rsm.log_window = 8192;
    return c;
  }();

  /// Total client sessions to run to completion.
  std::uint64_t sessions = 1000;
  /// Closed-loop window: sessions open concurrently (ignored in open loop).
  std::uint32_t concurrency = 256;
  /// Open-loop mode: sessions arrive in a Poisson stream instead of a
  /// fixed window.
  bool open_loop = false;
  double arrivals_per_ms = 4.0;  ///< open-loop session arrival rate
  std::uint32_t writes_per_session = 2;
  std::uint32_t reads_per_session = 2;

  /// Nemesis, applied at its virtual times: crash/restart go through
  /// ServiceGroup (restart is the kill-9 reboot: WAL replay + catch-up);
  /// link verbs and pause/resume edit the transport's LinkPolicy. The
  /// corruption verbs are rejected: the catch-up and heartbeat channels
  /// carry no integrity seal.
  fault::FaultPlan plan;

  /// Virtual-time budget for the sessions.
  double time_limit_ms = 600000.0;
};

struct SessionRunReport {
  bool completed = false;  ///< every session closed, no call timed out
  std::uint64_t sessions_completed = 0;
  std::uint64_t writes_acked = 0;
  std::uint64_t reads_acked = 0;
  std::uint64_t timeouts = 0;  ///< calls that ended in error:timeout
  /// ServiceGroup::PathStats at the end of the run.
  std::uint64_t fast_reads = 0;
  std::uint64_t ordered_reads = 0;
  /// Fast reads served after the plan's last action: the fast path came
  /// back once the nemesis stopped.
  std::uint64_t fast_reads_after_plan = 0;
  std::uint64_t retries = 0;
  /// Dedup hits summed over the replicas' current incarnations.
  std::uint64_t duplicates_suppressed = 0;
  /// C-Abcast consensus decisions summed over replicas: one step, or more.
  std::uint64_t one_step = 0;
  std::uint64_t two_step = 0;
  std::uint64_t crash_events = 0;
  std::uint64_t restart_events = 0;
  /// Peak dedup-table size at any replica (the GC bound: it stays near the
  /// open-session window plus one GC window of tombstones).
  std::uint64_t max_open_sessions = 0;

  // Acceptance checks — all must be zero / true.
  std::uint64_t double_applies = 0;
  std::uint64_t lin_violations = 0;
  bool digests_converged = false;
  /// Each replica's final state digest (empty for a crashed replica).
  std::vector<std::string> digests;
  std::string first_violation;  ///< human-readable description, else empty

  double sim_ms = 0.0;  ///< virtual time until the last session closed
  double write_mean_ms = 0.0;
  double read_mean_ms = 0.0;
};

/// Runs one deterministic session workload on the real stack in virtual
/// time. Aborts on a plan that names a process >= n or a corruption verb.
SessionRunReport run_sessions(const SessionRunConfig& cfg);

}  // namespace zdc::rsm
