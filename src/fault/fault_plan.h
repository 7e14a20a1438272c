// Scripted fault schedules ("nemesis plans").
//
// A FaultPlan is a time-ordered list of fault actions applied to a running
// deployment — the declarative layer above LinkPolicy. The same plan drives
// the deterministic simulator (scheduled on the event queue, so identical
// seed + identical plan reproduces a run byte-for-byte) and the threaded
// runtime (replayed in wall-clock time by NemesisDriver in
// runtime/consensus_runner.h or by hand).
//
// Text syntax — one action per line, '#' starts a comment:
//
//   @<time_ms> partition <id>... | <id>...    # cut the group in two
//   @<time_ms> heal                           # clear every link override
//   @<time_ms> isolate <p>                    # cut all links to/from p
//   @<time_ms> link <from> <to> [drop=<prob>] [delay=<ms>]
//   @<time_ms> pause <p>                      # stop-the-world, state kept
//   @<time_ms> resume <p>
//   @<time_ms> crash <p>                      # process failure, state lost
//   @<time_ms> restart <p>                    # new incarnation (StableStorage
//                                             #   is what survives, if any)
//   @<time_ms> flip <from> <to> [count=<k>] [byte=<o>] [bit=<b>]
//                                             # corrupt the next k frames on
//                                             #   the link (default middle
//                                             #   byte, bit 0, k=1)
//   @<time_ms> equivocate <p> [count=<k>]     # p's next k broadcasts also
//                                             #   deliver a divergent copy
//   @<time_ms> scorrupt <p> [count=<k>] [byte=<o>] [bit=<b>]
//                                             # transient state corruption:
//                                             #   p's next k inbound frames
//                                             #   are corrupted, any sender
//
// Link-shaped actions (partition/heal/isolate/link), pause/resume and the
// corruption kinds (flip/equivocate/scorrupt arm finite LinkPolicy budgets)
// apply directly to a LinkPolicy via apply_to_policy(); crash/restart are
// executor business (the sim worlds and the runtime transports own crash
// state). Corruption faults are transient by construction — the budget runs
// out, no heal needed — so they never unsettle a plan (see settles()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/link_policy.h"

namespace zdc::fault {

enum class FaultKind : std::uint8_t {
  kPartition,
  kHeal,
  kIsolate,
  kLink,
  kPause,
  kResume,
  kCrash,
  kRestart,
  kFlip,        ///< byte-flip the next `count` frames on link p -> q
  kEquivocate,  ///< divergent duplicate of p's next `count` broadcasts
  kStateCorrupt,  ///< byte-flip the next `count` frames inbound to p
};

const char* fault_kind_name(FaultKind kind);

struct FaultAction {
  TimePoint time = 0.0;
  FaultKind kind = FaultKind::kHeal;
  /// Subject process: isolate/pause/resume/crash/restart; `from` for kLink.
  ProcessId p = kNoProcess;
  /// `to` for kLink.
  ProcessId q = kNoProcess;
  /// Side A of a kPartition cut (the complement forms side B).
  std::vector<ProcessId> group;
  /// kLink overrides.
  double drop_prob = 0.0;
  double extra_delay_ms = 0.0;
  /// Corruption-kind budget and flip target (kFlip/kEquivocate/kStateCorrupt).
  /// `byte` defaults to corrupt.h's kMiddleByte sentinel (middle of frame).
  std::uint64_t count = 1;
  std::uint64_t byte = ~std::uint64_t{0};
  std::uint32_t bit = 0;
};

struct FaultPlan {
  std::vector<FaultAction> actions;

  [[nodiscard]] bool empty() const { return actions.empty(); }
  [[nodiscard]] bool has(FaultKind kind) const;

  /// Stable-sorts actions by time (ties keep authoring order).
  void normalize();

  /// Processes crashed by the plan and never restarted afterwards.
  [[nodiscard]] std::vector<ProcessId> crashed_at_end() const;

  /// True iff the plan leaves the network mended and no process paused: every
  /// link fault is followed by a heal, every pause by a resume. Permanently
  /// crashed processes are allowed (that is ordinary crash-failure; see
  /// crashed_at_end()). Liveness is only asserted for settled plans.
  [[nodiscard]] bool settles() const;
};

/// Checks the plan against a group of n processes: every process an action
/// names (subject, link end, partition member) must be < n. On failure
/// returns false and, if `error` is given, stores a one-line diagnostic
/// naming the offending action. Executors index per-process tables with
/// these ids, so a plan must pass this before it runs.
bool check_plan(const FaultPlan& plan, std::uint32_t n,
                std::string* error = nullptr);

/// Applies a link-shaped or pause-shaped action to the policy. Returns false
/// (and does nothing) for kCrash/kRestart, which the executor must handle.
bool apply_to_policy(const FaultAction& action, LinkPolicy& policy);

/// Formats an action / plan in the text syntax above.
std::string to_string(const FaultAction& action);
std::string to_string(const FaultPlan& plan);

/// Parses the text syntax. On failure returns false and, if `error` is given,
/// stores a one-line diagnostic naming the offending line.
bool parse_fault_plan(const std::string& text, FaultPlan* plan,
                      std::string* error = nullptr);

}  // namespace zdc::fault
