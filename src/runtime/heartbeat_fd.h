// Heartbeat-based ◇P failure detector with adaptive timeouts, plus the
// classic Ω reduction (leader := lowest non-suspected process).
//
// Every `interval_ms` the module broadcasts a heartbeat on the kHeartbeat
// channel and checks each peer's age. A peer silent for longer than its
// (per-peer) timeout is suspected; a heartbeat from a suspected peer revokes
// the suspicion and *grows that peer's timeout*, which bounds the number of
// false suspicions in any run with eventually-bounded delays — the standard
// argument that the implementation satisfies ◇P's Eventual Strong Accuracy in
// partially-synchronous executions, while Strong Completeness follows from
// crashed processes staying silent forever.
//
// Every age is a Transport::now_ms() reading: the wall clock on threads,
// virtual time on the simulator.
//
// Threading: all calls (ticks, on_heartbeat, estimator reads) happen on the
// owning process's worker thread, so the module needs no internal locking and
// carries no ZDC_GUARDED_BY annotations — the estimator vectors are
// thread-confined, not shared. The only cross-thread surface is the
// SuspectView output, published through the `suspected_` atomics (and the
// false_suspicions_ counter); anything else read off-worker (e.g.
// effective_timeout_ms) is test-only and racy by contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fd/failure_detector.h"
#include "obs/metrics.h"
#include "runtime/transport.h"

namespace zdc::runtime {

class HeartbeatFd final : public fd::SuspectView {
 public:
  struct Config {
    double interval_ms = 10.0;
    /// Timeout before the first inter-arrival samples exist (and the fixed
    /// timeout when `adaptive` is off).
    double initial_timeout_ms = 60.0;
    /// Added to a peer's timeout on every false suspicion — the growth that
    /// bounds false suspicions in partially-synchronous runs, independent of
    /// the adaptive estimate below.
    double timeout_increment_ms = 60.0;
    /// Adaptive timeout (Jacobson/Karels over heartbeat inter-arrival gaps):
    /// suspect after mean + deviation_factor·dev + margin_ms (+ accumulated
    /// false-suspicion bonus), floored at min_timeout_ms. Tracks the actual
    /// load instead of a guess: tight on an idle loopback, slack under
    /// scheduler noise or nemesis delay spikes.
    bool adaptive = true;
    double deviation_factor = 4.0;
    double margin_ms = 20.0;
    double min_timeout_ms = 20.0;
    /// Staleness bound for leader-lease endorsements: a peer's endorsement
    /// only counts while its latest endorsing heartbeat is younger than
    /// this, and a gap of at least this long breaks its endorsement streak.
    /// Must equal the lease length the service layer serves reads under
    /// (runtime_node wires RunOptions::service.lease_ms in here).
    double endorsement_stale_ms = 80.0;
    /// Optional metrics sink (suspicions, timeout adaptations), labeled by
    /// the owning process. nullptr = metrics off.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// `on_change` fires (on the worker thread) whenever the suspect set — and
  /// hence possibly the derived leader — changed.
  HeartbeatFd(ProcessId self, Transport& net, Config cfg,
              std::function<void()> on_change);

  /// Schedules the periodic tick. Call once, before traffic starts.
  void start();

  /// Wire-in from the node's kHeartbeat demux. `endorsed_leader` is the
  /// sender's current Ω estimate, carried in the heartbeat payload — the
  /// lease-endorsement input for read-index serving (kNoProcess when the
  /// payload is absent or malformed: liveness still counts, endorsement
  /// does not).
  void on_heartbeat(ProcessId from, ProcessId endorsed_leader = kNoProcess);

  /// Call on the worker thread after a Transport::restart(p): the pending
  /// tick timer died with the old incarnation, so the periodic chain must be
  /// re-armed. Resets every silence clock first — the outage must not count
  /// against peers (they were heartbeating into a dead socket).
  void restart_on_worker();

  // SuspectView (the ◇P output). Readable from any thread (atomic flags);
  // protocols read it on the worker, tests poll it from outside.
  [[nodiscard]] bool suspects(ProcessId p) const override;

  /// Derived Ω view (lowest non-suspected process).
  [[nodiscard]] const fd::OmegaView& omega() const { return omega_; }

  [[nodiscard]] std::uint64_t false_suspicions() const {
    return false_suspicions_.load(std::memory_order_relaxed);
  }

  /// The silence threshold currently applied to peer p (worker thread only;
  /// exposed for tests and diagnostics).
  [[nodiscard]] double effective_timeout_ms(ProcessId p) const;

  /// Milliseconds since a majority of the group last *endorsed* this
  /// process as leader — the (⌈n/2⌉)-th freshest age among heartbeats whose
  /// payload named self as the sender's Ω estimate (self counts as age 0; a
  /// peer whose latest heartbeat named someone else counts as +inf, i.e.
  /// endorsements are revoked the moment the peer switches). Worker thread
  /// only. This is the lease-freshness input for read-index serving: a
  /// leader a majority no longer endorses cannot rule out another replica
  /// replying to writes under its own fresh lease.
  [[nodiscard]] double ms_since_quorum_endorsement() const;

  /// Milliseconds this process has CONTINUOUSLY held a majority
  /// endorsement: there is a fixed majority whose members have each
  /// endorsed self in heartbeats with no gap of `endorsement_stale_ms` or
  /// more since the streak began (per-peer `endorse_since_` clocks; self
  /// counts from construction). 0 whenever the endorsement is not
  /// currently fresh. Worker thread only. The service layer requires a
  /// streak of at least one full lease before a NEW leader may reply to
  /// clients — that wait is what lets the previous holder's lease expire
  /// everywhere before this one starts serving (the no-two-lease-holders
  /// half of the read-index argument; see service_group.h).
  [[nodiscard]] double quorum_endorsement_streak_ms() const;

 private:
  void tick();

  const ProcessId self_;
  Transport& net_;
  const Config cfg_;
  std::function<void()> on_change_;

  // All per-peer estimator state is worker-thread-only; times are
  // Transport::now_ms() readings.
  std::vector<double> last_seen_;
  std::vector<double> last_endorsed_me_;
  std::vector<bool> endorses_me_;  ///< peer's latest heartbeat named self
  /// Start of peer p's current unbroken endorsement run (reset whenever the
  /// peer stopped endorsing or left a >= endorsement_stale_ms gap).
  std::vector<double> endorse_since_;
  double epoch_;  ///< construction time (self's held-since)
  std::vector<double> bonus_ms_;     ///< accumulated false-suspicion bonus
  std::vector<double> mean_gap_ms_;  ///< EWMA of inter-arrival gaps
  std::vector<double> dev_gap_ms_;   ///< EWMA of gap deviation
  std::vector<bool> have_gap_;       ///< estimator warmed up for this peer
  std::unique_ptr<std::atomic<bool>[]> suspected_;
  std::uint32_t n_;
  fd::OmegaFromSuspects omega_;
  std::atomic<std::uint64_t> false_suspicions_{0};
  bool started_ = false;
  // Pre-registered handles (null when cfg_.metrics is null). Updated on the
  // worker thread; the counters themselves are thread-safe atomics.
  obs::Counter* suspicions_ctr_ = nullptr;
  obs::Counter* adaptations_ctr_ = nullptr;
};

}  // namespace zdc::runtime
