// The one table every message crosses: per-link fault state shared by all
// three fabrics (sim::LanModel, runtime::InprocNetwork, runtime::UdpNetwork).
//
// A nemesis (scripted or generated — see fault_plan.h) mutates this table;
// the fabrics consult it on every send/delivery and translate the state into
// their own physics:
//
//   * blocked      — the link is cut (a partition edge). Reliable-channel
//                    traffic must *wait out* the cut, not vanish: the
//                    simulator and the mailbox fabric park the message and
//                    re-inject it on heal, and the UDP fabric simply keeps
//                    the ARQ retransmitting.
//                    Best-effort traffic (heartbeats, WAB datagrams) is lost.
//   * drop_prob    — per-message datagram loss. On the UDP fabric this drops
//                    raw datagrams (the ARQ recovers); fabrics without a
//                    datagram level surface it as retransmission *delay* on
//                    the reliable channel and as loss on best-effort traffic.
//   * extra_delay_ms — a delay spike added to every traversal (asymmetric
//                    links: set it one direction only).
//
// Per-process `paused` models a stopped-but-alive process (SIGSTOP, GC pause,
// VM migration): its handlers and timers do not run until resume, its inbound
// traffic queues up, and — crucially — its heartbeats stop, so a real ◇P
// implementation falsely suspects it. Pause is not crash: no state is lost.
// The threaded runtime's executor blocks a paused process outright and
// installs a resume hook to wake it (no polling); the simulator, which
// checks paused() at each delivery, leaves the hook unset. The mailbox
// fabric likewise installs a heal hook to release the messages it parked on
// cut links; the simulator releases its own after each fault action.
//
// Thread safety: mutations and reads are mutex-guarded; a relaxed `active_`
// flag lets the fabrics skip the lock entirely until the first fault is ever
// injected, so fault-free runs pay one atomic load per message.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace zdc::fault {

struct LinkState {
  bool blocked = false;
  double drop_prob = 0.0;
  double extra_delay_ms = 0.0;

  [[nodiscard]] bool clean() const {
    return !blocked && drop_prob == 0.0 && extra_delay_ms == 0.0;
  }
};

/// One armed byte-flip: which byte (corrupt.h's kMiddleByte = middle of the
/// frame) and which bit the fabric must flip in the next frame it carries.
struct CorruptSpec {
  std::uint64_t byte = 0;
  std::uint32_t bit = 0;
};

class LinkPolicy {
 public:
  explicit LinkPolicy(std::uint32_t n);

  LinkPolicy(const LinkPolicy&) = delete;
  LinkPolicy& operator=(const LinkPolicy&) = delete;

  [[nodiscard]] std::uint32_t size() const { return n_; }

  /// Current state of the directed link from -> to. Self-links are never
  /// faulted (a process can always talk to itself).
  [[nodiscard]] LinkState link(ProcessId from, ProcessId to) const
      ZDC_EXCLUDES(mu_);

  /// Overrides one directed link, then calls the heal hook (the override
  /// may re-open a cut link).
  void set_link(ProcessId from, ProcessId to, LinkState state)
      ZDC_EXCLUDES(mu_);

  /// Cuts every link crossing the {side_a | rest} cut, both directions.
  /// Links inside each side are left untouched.
  void partition(const std::vector<ProcessId>& side_a) ZDC_EXCLUDES(mu_);

  /// Cuts every link to and from p (p keeps talking to itself).
  void isolate(ProcessId p) ZDC_EXCLUDES(mu_);

  /// Clears every link override (partitions, isolations, drop/delay
  /// overrides), then calls the heal hook outside the policy mutex. Pause
  /// state is NOT touched — heal mends the network, not the processes.
  void heal() ZDC_EXCLUDES(mu_);

  void pause(ProcessId p) ZDC_EXCLUDES(mu_);
  /// Clears p's pause, then calls the resume hook (if any) with p, outside
  /// the policy mutex.
  void resume(ProcessId p) ZDC_EXCLUDES(mu_);
  [[nodiscard]] bool paused(ProcessId p) const ZDC_EXCLUDES(mu_);

  /// Set by runtime::Executor to wake a paused lane on resume; nullptr
  /// unsets it. Not a user option: one executor owns the hook at a time.
  void set_resume_hook(std::function<void(ProcessId)> hook) ZDC_EXCLUDES(mu_);

  /// Set by runtime::InprocNetwork to release messages it parked on cut
  /// links; called after every edit that can re-open one (heal, set_link),
  /// outside the policy mutex. nullptr unsets it; one owner at a time.
  void set_heal_hook(std::function<void()> hook) ZDC_EXCLUDES(mu_);

  // --- Corruption budgets (FaultPlan flip / scorrupt / equivocate) ---
  //
  // Unlike the LinkState overrides above, corruption faults are *transient*:
  // each armer grants a finite budget of corrupted frames, and the fabrics
  // draw the budget down via the consume_* calls on the delivery path. A
  // fault plan never needs to "heal" corruption — the budget running out is
  // the end of the burst, which is exactly the transient-fault model the
  // self-stabilization oracle (check/invariants.h) reasons about.

  /// Arms `count` byte-flips on the directed link from -> to.
  void corrupt_link(ProcessId from, ProcessId to, std::uint64_t count,
                    CorruptSpec spec) ZDC_EXCLUDES(mu_);

  /// Arms `count` byte-flips on *every* frame inbound to p regardless of the
  /// sender — the transient-state-corruption fault: p's receive path is
  /// briefly garbage, whatever the source.
  void corrupt_inbound(ProcessId to, std::uint64_t count, CorruptSpec spec)
      ZDC_EXCLUDES(mu_);

  /// Arms `count` equivocations at sender p: the fabric delivers a divergent
  /// duplicate of p's next `count` broadcasts alongside the originals.
  void equivocate(ProcessId from, std::uint64_t count) ZDC_EXCLUDES(mu_);

  /// Draws one corruption from the from->to link budget, falling back to the
  /// receiver's inbound budget. Returns true and fills `*spec` iff a budget
  /// was armed and non-empty. const because fabrics hold const views; the
  /// budgets are mutable state guarded by mu_.
  [[nodiscard]] bool consume_corruption(ProcessId from, ProcessId to,
                                        CorruptSpec* spec) const
      ZDC_EXCLUDES(mu_);

  /// Draws one equivocation from sender p's budget.
  [[nodiscard]] bool consume_equivocation(ProcessId from) const
      ZDC_EXCLUDES(mu_);

  /// True once any fault was ever injected; fabrics use it as a lock-free
  /// fast path (false => every link clean, nobody paused).
  [[nodiscard]] bool ever_faulted() const {
    return active_.load(std::memory_order_acquire);
  }

 private:
  /// Calls the heal hook, if any, outside mu_.
  void run_heal_hook() ZDC_EXCLUDES(mu_);
  void touch() { active_.store(true, std::memory_order_release); }

  const std::uint32_t n_;
  mutable common::Mutex mu_;
  std::atomic<bool> active_{false};
  /// n*n, row-major [from*n + to]
  std::vector<LinkState> links_ ZDC_GUARDED_BY(mu_);
  std::vector<std::uint8_t> paused_ ZDC_GUARDED_BY(mu_);
  std::function<void(ProcessId)> resume_hook_ ZDC_GUARDED_BY(mu_);
  std::function<void()> heal_hook_ ZDC_GUARDED_BY(mu_);

  struct CorruptBudget {
    std::uint64_t count = 0;
    CorruptSpec spec;
  };
  /// mutable: consumed on the (const) fabric delivery path, see header note.
  /// n*n row-major link budgets; n inbound budgets; n equivocation budgets.
  mutable std::vector<CorruptBudget> corrupt_links_ ZDC_GUARDED_BY(mu_);
  mutable std::vector<CorruptBudget> corrupt_inbound_ ZDC_GUARDED_BY(mu_);
  mutable std::vector<std::uint64_t> equivocate_ ZDC_GUARDED_BY(mu_);
};

}  // namespace zdc::fault
