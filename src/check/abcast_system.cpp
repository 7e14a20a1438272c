#include "check/abcast_system.h"

#include "common/assert.h"
#include "sim/abcast_world.h"

namespace zdc::check {

DirectAbcastNet::Factory abcast_net_factory(const ScenarioSpec& spec) {
  // "equivocating-sender" is a *net*-level mutant (armed on the harness in
  // the AbcastSystem constructor), so any protocol factory serves it.
  ZDC_ASSERT_MSG(spec.mutant.empty() || spec.mutant == "equivocating-sender",
                 "unknown abcast mutant");
  return sim::abcast_factory_by_name(spec.protocol);
}

AbcastSystem::AbcastSystem(const ScenarioSpec& spec,
                           const AdversaryBudgets& budgets)
    : spec_(spec), budgets_(budgets), net_(spec.group, abcast_net_factory(spec)) {
  if (spec_.mutant == "equivocating-sender") net_.arm_equivocation(0);
  performed_.assign(spec_.submissions.size(), false);
  for (ProcessId p = 0; p < spec_.group.n; ++p) {
    net_.fd(p).omega.value = spec_.initial_leader_of(p);
  }
  for (const auto& [sender, payload] : spec_.submissions) {
    (void)payload;
    ZDC_ASSERT_MSG(sender < spec_.group.n, "submission by unknown process");
  }
}

std::optional<std::uint32_t> AbcastSystem::next_submission_of(
    ProcessId p) const {
  for (std::uint32_t i = 0; i < spec_.submissions.size(); ++i) {
    if (spec_.submissions[i].first == p && !performed_[i]) return i;
  }
  return std::nullopt;
}

std::vector<Choice> AbcastSystem::enabled() const {
  const ProcessId n = spec_.group.n;
  std::vector<Choice> out;
  for (ProcessId p = 0; p < n; ++p) {
    if (net_.crashed(p)) continue;
    if (const auto i = next_submission_of(p)) {
      // b carries the submitting process for the independence relation.
      out.push_back(Choice{ChoiceKind::kSubmit, *i, p, 0});
    }
  }
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (net_.pending(from, to) > 0 && !net_.crashed(to)) {
        out.push_back(Choice{ChoiceKind::kDeliver, from, to, 0});
      }
    }
  }
  const std::uint32_t full_mask = (1u << n) - 1u;
  for (ProcessId from = 0; from < n; ++from) {
    if (net_.pending_wab(from) == 0) continue;
    out.push_back(Choice{ChoiceKind::kOracle, from, 0, 0});
    if (budgets_.oracle_subsets) {
      for (std::uint32_t mask = 1; mask < full_mask; ++mask) {
        out.push_back(Choice{ChoiceKind::kOracleSubset, from, 0, mask});
      }
    }
  }
  const std::uint32_t crash_cap =
      budgets_.crashes < spec_.group.f ? budgets_.crashes : spec_.group.f;
  if (crashes_used_ < crash_cap) {
    for (ProcessId p = 0; p < n; ++p) {
      if (!net_.crashed(p)) out.push_back(Choice{ChoiceKind::kCrash, p, 0, 0});
    }
  }
  if (leader_flips_used_ < budgets_.leader_flips) {
    for (ProcessId p = 0; p < n; ++p) {
      if (net_.crashed(p)) continue;
      for (ProcessId leader = 0; leader < n; ++leader) {
        if (net_.fd(p).omega.value != leader) {
          out.push_back(Choice{ChoiceKind::kLeaderFlip, p, leader, 0});
        }
      }
    }
  }
  if (suspect_flips_used_ < budgets_.suspect_flips) {
    for (ProcessId p = 0; p < n; ++p) {
      if (net_.crashed(p)) continue;
      for (ProcessId q = 0; q < n; ++q) {
        if (q != p) out.push_back(Choice{ChoiceKind::kSuspectFlip, p, q, 0});
      }
    }
  }
  return out;
}

bool AbcastSystem::apply(const Choice& c) {
  const ProcessId n = spec_.group.n;
  switch (c.kind) {
    case ChoiceKind::kSubmit: {
      if (c.a >= spec_.submissions.size() || performed_[c.a]) return false;
      const auto& [sender, payload] = spec_.submissions[c.a];
      if (net_.crashed(sender)) return false;
      // Keep per-process script order even under lenient replay.
      const auto next = next_submission_of(sender);
      if (!next || *next != c.a) return false;
      submitted_.push_back(net_.a_broadcast(sender, payload));
      performed_[c.a] = true;
      return true;
    }
    case ChoiceKind::kDeliver:
      if (c.a >= n || c.b >= n || net_.crashed(c.b)) return false;
      return net_.deliver_one(c.a, c.b);
    case ChoiceKind::kOracle: return c.a < n && net_.deliver_wab(c.a);
    case ChoiceKind::kOracleSubset: {
      if (c.a >= n) return false;
      const std::uint32_t full_mask = (1u << n) - 1u;
      if (c.mask == 0 || c.mask >= full_mask) return false;
      std::vector<ProcessId> targets;
      for (ProcessId p = 0; p < n; ++p) {
        if ((c.mask >> p) & 1u) targets.push_back(p);
      }
      return net_.deliver_wab(c.a, &targets);
    }
    case ChoiceKind::kCrash:
      if (c.a >= n || net_.crashed(c.a)) return false;
      net_.crash(c.a);
      ++crashes_used_;
      return true;
    case ChoiceKind::kLeaderFlip:
      if (c.a >= n || c.b >= n || net_.crashed(c.a)) return false;
      if (net_.fd(c.a).omega.value == c.b) return false;
      net_.fd(c.a).omega.value = c.b;
      net_.notify_fd_change(c.a);
      ++leader_flips_used_;
      return true;
    case ChoiceKind::kSuspectFlip: {
      if (c.a >= n || c.b >= n || c.a == c.b || net_.crashed(c.a)) return false;
      auto& flags = net_.fd(c.a).suspects.flags;
      flags[c.b] = !flags[c.b];
      net_.notify_fd_change(c.a);
      ++suspect_flips_used_;
      return true;
    }
    // Crash-during-delivery needs storage-backed recovery; the abcast stack
    // runs over volatile consensus instances, so the choice is never enabled.
    case ChoiceKind::kCrashDeliver: return false;
    // Corruption choice points target the sealed consensus channel; abcast
    // scenarios model corruption via the equivocating-sender mutant instead.
    case ChoiceKind::kFlip:
    case ChoiceKind::kEquivocate: return false;
  }
  return false;
}

std::optional<Violation> AbcastSystem::violation() const {
  if (auto v = check_abcast(net_.histories(), submitted_)) return v;
  // FIFO is a C-Abcast guarantee; Paxos-Abcast never promised it.
  if (spec_.protocol == "paxos") return std::nullopt;
  return check_fifo(net_.histories(), submitted_);
}

}  // namespace zdc::check
