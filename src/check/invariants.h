// Shared invariant library: every correctness property this repo claims,
// phrased as a predicate over an *observation* of a run — so the same
// checkers serve the property tests, the schedule fuzzer, and the
// schedule-space model checker (src/check/explorer.h).
//
// Consensus (the paper's Sec. 3 problem statement):
//   - Agreement: no two processes decide differently.
//   - Validity:  every decision was proposed.
//   - Integrity: a process decides at most once (the host's
//     deliver_decision fires exactly once per decided process).
//   - Termination-at-quiescence: with no message in flight, no crash and a
//     correct constant FD, every proposer must have decided (a quiescent
//     undecided process can never make progress again — a real deadlock,
//     not a "not yet").
//
// Step bounds (the paper's quantitative claims, universally quantified over
// schedules — the whole reason the model checker exists):
//   - One-step (Definition 1): whenever all proposals are equal, every
//     round-path decision takes exactly 1 communication step (and a
//     forwarded DECIDE at most 2). P-Consensus promises this in every run,
//     L-Consensus only in stable runs (Theorem 1 forbids more for an
//     Ω-based protocol).
//   - Zero-degradation (Definition 2): in a stable run — failure detector
//     correct and constant — every round-path decision takes at most 2
//     steps (forwarded: 3).
//
// Atomic broadcast (Sec. 2 of the paper, Uniform variants):
//   - Uniform Total Order: delivery histories are pairwise prefix-consistent.
//   - Uniform Integrity: no message delivered twice at one process.
//   - No creation: every delivered message was a-broadcast.
//   - Per-sender FIFO (C-Abcast stacks only; Paxos-Abcast never promised
//     it): a process delivers a sender's messages in the order the sender
//     a-broadcast them, with no gaps.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abcast/abcast.h"
#include "common/types.h"
#include "consensus/consensus.h"

namespace zdc::check {

/// One violated invariant. `invariant` is a stable machine-readable name
/// ("agreement", "validity", "integrity", "one-step", "zero-degradation",
/// "termination", "total-order", "duplication", "creation", "fifo") used by
/// replay files and --expect-violation; `detail` is for humans.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// What one process looked like at the observation point.
struct ProcessObs {
  bool crashed = false;
  bool proposed = false;
  bool decided = false;
  Value decision;
  std::uint32_t steps = 0;
  consensus::DecisionPath path = consensus::DecisionPath::kNone;
  /// deliver_decision() call count at the host (Integrity probe).
  std::uint32_t decision_deliveries = 0;
};

/// Which step-bound claims a protocol makes. Resolved from the protocol
/// name by step_bounds_for(); protocols without published bounds get the
/// all-false default (only the safety invariants apply).
struct StepBounds {
  bool one_step_on_equal = false;  ///< 1-step when all proposals equal
  bool one_step_needs_stable = false;  ///< ... but only in stable runs (L)
  bool two_step_stable = false;    ///< ≤2 steps in stable runs (zero-degr.)
};

/// "l"/"p"/"paxos"/"rec-paxos" carry the paper's published bounds; anything
/// else gets no step-bound checking.
StepBounds step_bounds_for(const std::string& protocol);

/// Snapshot of a consensus run, mid-flight or at quiescence.
struct ConsensusObs {
  GroupParams group;
  std::vector<Value> proposals;  ///< indexed by process, size n
  std::vector<ProcessObs> procs;
  /// True while the run is stable in the paper's sense: no crash has
  /// happened, no FD output has changed, and the initial FD output was
  /// correct (uniform leader, empty suspect sets).
  bool stable = true;
  /// True when no message or oracle datagram is in flight.
  bool quiescent = false;
  /// Decisions delivered by incarnations that subsequently crash-restarted
  /// (kCrashDeliver runs). Uniform Agreement and Validity quantify over
  /// them too: a decision handed to the application before the crash counts
  /// even though the process is now a fresh incarnation.
  std::vector<std::pair<ProcessId, Value>> prior_decisions;

  [[nodiscard]] bool equal_proposals() const;
};

std::optional<Violation> check_agreement(const ConsensusObs& obs);
std::optional<Violation> check_validity(const ConsensusObs& obs);
std::optional<Violation> check_integrity(const ConsensusObs& obs);
/// Applies only when `bounds.one_step_on_equal`, proposals are equal, the
/// group is one-step resilient, and (if `one_step_needs_stable`) the run is
/// stable. Round-path deciders must have steps == 1, forwarded ≤ 2.
std::optional<Violation> check_one_step(const ConsensusObs& obs,
                                        const StepBounds& bounds);
/// Applies only when `bounds.two_step_stable` and the run is stable.
/// Round-path deciders must have steps ≤ 2, forwarded ≤ 3.
std::optional<Violation> check_zero_degradation(const ConsensusObs& obs,
                                                const StepBounds& bounds);
/// Applies only at quiescence of a stable run: every proposer decided.
std::optional<Violation> check_termination(const ConsensusObs& obs);

/// All of the above in order, stopping at the first violation.
std::optional<Violation> check_consensus(const ConsensusObs& obs,
                                         const StepBounds& bounds);

// --- safety under corruption (the detectable-drop model) ---

/// Corruption accounting at quiescence. With frame checksums on, a byte
/// flipped on the wire must surface as a *detectable drop*: the receiver's
/// CRC rejects the frame and the reliable channel's retransmission carries
/// the clean bytes through. The observation counts both sides of that
/// contract.
struct CorruptionObs {
  /// Frames the fabric corrupted (flip/scorrupt budgets drawn down), plus
  /// per-receiver divergent equivocation copies put on the wire.
  std::uint64_t frames_corrupted = 0;
  /// Frames the protocols' frame-CRC verification rejected.
  std::uint64_t corrupt_frames_dropped = 0;
  /// False when the run deliberately disabled frame checksums (the mutant
  /// configuration: corruption is then *undetectable* and only the safety
  /// oracles can catch what it does).
  bool checksums_enabled = true;
  /// True when every corrupted frame targeted the sealed consensus channel
  /// (so the drop counter is expected to account for all of them). Runs
  /// that corrupt unsealed traffic (oracle datagrams, abcast-internal
  /// frames) must leave this false.
  bool all_on_sealed_channel = true;
};

/// At quiescence with checksums on and all corruption on the sealed channel:
/// every injected corruption must have been detected and dropped
/// ("undetected-corruption" otherwise). With checksums off this check is
/// vacuous — the agreement/validity/integrity oracles carry the burden.
std::optional<Violation> check_corruption(const CorruptionObs& obs);

/// Self-stabilization oracle: after the last transient corruption was
/// injected, the system must return to (and stay in) a legal state within a
/// bounded number of steps.
struct ConvergenceObs {
  /// Total transient corruptions injected so far.
  std::uint64_t corrupt_injected = 0;
  /// Steps (scheduler transitions / delivered messages — the caller picks
  /// the unit and keeps it consistent with `step_bound`) executed since the
  /// last injection.
  std::uint64_t steps_since_last_injection = 0;
  /// True when the system is back in a legal state: every safety oracle
  /// passes and no protocol instance is wedged (e.g. all correct proposers
  /// decided, or the service made progress past the burst).
  bool legal_state = false;
  /// Convergence bound, in the same unit as steps_since_last_injection.
  std::uint64_t step_bound = 0;
};

/// "convergence" violation iff corruption was injected, the bound has
/// elapsed, and the system still is not back in a legal state.
std::optional<Violation> check_convergence(const ConvergenceObs& obs);

// --- atomic broadcast ---

/// Uniform Total Order: pairwise prefix consistency of delivery histories.
std::optional<Violation> check_total_order(
    const std::vector<std::vector<abcast::AppMessage>>& histories);
/// Uniform Integrity: no (sender, seq) delivered twice at one process.
std::optional<Violation> check_no_duplicates(
    const std::vector<std::vector<abcast::AppMessage>>& histories);
/// No creation: every delivered message id was actually a-broadcast.
std::optional<Violation> check_no_creation(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted);

/// Per-sender FIFO: at every process, the messages of each sender form a
/// prefix of that sender's a-broadcasts, in a-broadcast order (`submitted`
/// lists every a-broadcast id in call order).
std::optional<Violation> check_fifo(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted);

std::optional<Violation> check_abcast(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted);

}  // namespace zdc::check
