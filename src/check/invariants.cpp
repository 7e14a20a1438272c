#include "check/invariants.h"

#include <set>
#include <sstream>

namespace zdc::check {
namespace {

std::string step_detail(ProcessId p, const ProcessObs& proc,
                        std::uint32_t bound) {
  std::ostringstream os;
  os << "p" << p << " decided in " << proc.steps << " steps ("
     << (proc.path == consensus::DecisionPath::kForwarded ? "forwarded"
                                                          : "round path")
     << "), bound is " << bound;
  return os.str();
}

}  // namespace

StepBounds step_bounds_for(const std::string& protocol) {
  StepBounds b;
  if (protocol == "l") {
    b.one_step_on_equal = true;
    b.one_step_needs_stable = true;  // Theorem 1: Ω-based ⇒ not both
    b.two_step_stable = true;
  } else if (protocol == "p") {
    b.one_step_on_equal = true;  // ◇P-based: one-step in *every* run
    b.two_step_stable = true;
  } else if (protocol == "paxos" || protocol == "rec-paxos") {
    b.two_step_stable = true;  // ballot 0 skips phase 1
  }
  return b;
}

bool ConsensusObs::equal_proposals() const {
  for (std::size_t i = 1; i < proposals.size(); ++i) {
    if (proposals[i] != proposals[0]) return false;
  }
  return !proposals.empty();
}

std::optional<Violation> check_agreement(const ConsensusObs& obs) {
  // Uniform agreement: current incarnations and decisions handed to the
  // application by incarnations that later crash-restarted all must match.
  const Value* first = nullptr;
  std::string first_who;
  const auto visit = [&](const std::string& who,
                         const Value& decision) -> std::optional<Violation> {
    if (first == nullptr) {
      first = &decision;
      first_who = who;
    } else if (decision != *first) {
      return Violation{"agreement", first_who + " decided \"" + *first +
                                        "\" but " + who + " decided \"" +
                                        decision + "\""};
    }
    return std::nullopt;
  };
  for (const auto& [p, decision] : obs.prior_decisions) {
    if (auto v = visit("p" + std::to_string(p) + " (pre-crash incarnation)",
                       decision)) {
      return v;
    }
  }
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (!proc.decided) continue;
    if (auto v = visit("p" + std::to_string(p), proc.decision)) return v;
  }
  return std::nullopt;
}

std::optional<Violation> check_validity(const ConsensusObs& obs) {
  const auto was_proposed = [&obs](const Value& decision) {
    for (const Value& v : obs.proposals) {
      if (v == decision) return true;
    }
    return false;
  };
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (!proc.decided) continue;
    if (!was_proposed(proc.decision)) {
      return Violation{"validity", "p" + std::to_string(p) + " decided \"" +
                                       proc.decision +
                                       "\", which nobody proposed"};
    }
  }
  for (const auto& [p, decision] : obs.prior_decisions) {
    if (!was_proposed(decision)) {
      return Violation{"validity", "p" + std::to_string(p) +
                                       " (pre-crash incarnation) decided \"" +
                                       decision + "\", which nobody proposed"};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_integrity(const ConsensusObs& obs) {
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (proc.decided && proc.decision_deliveries != 1) {
      return Violation{"integrity",
                       "p" + std::to_string(p) + " delivered its decision " +
                           std::to_string(proc.decision_deliveries) +
                           " times (must be exactly once)"};
    }
    if (!proc.decided && proc.decision_deliveries != 0) {
      return Violation{"integrity",
                       "p" + std::to_string(p) +
                           " delivered a decision without deciding"};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_one_step(const ConsensusObs& obs,
                                        const StepBounds& bounds) {
  if (!bounds.one_step_on_equal || !obs.equal_proposals()) return std::nullopt;
  if (!obs.group.one_step_resilient()) return std::nullopt;
  if (bounds.one_step_needs_stable && !obs.stable) return std::nullopt;
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (!proc.decided) continue;
    const bool forwarded = proc.path == consensus::DecisionPath::kForwarded;
    const std::uint32_t bound = forwarded ? 2 : 1;
    // Round-path decisions must take *exactly* one step: a 0-step decision
    // would be as much a checker bug (or a protocol that decides without
    // communicating) as a 2-step one is a degradation.
    if (forwarded ? proc.steps > bound : proc.steps != bound) {
      return Violation{"one-step", step_detail(p, proc, bound)};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_zero_degradation(const ConsensusObs& obs,
                                                const StepBounds& bounds) {
  if (!bounds.two_step_stable || !obs.stable) return std::nullopt;
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (!proc.decided) continue;
    const std::uint32_t bound =
        proc.path == consensus::DecisionPath::kForwarded ? 3 : 2;
    if (proc.steps > bound) {
      return Violation{"zero-degradation", step_detail(p, proc, bound)};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_termination(const ConsensusObs& obs) {
  if (!obs.quiescent || !obs.stable) return std::nullopt;
  for (ProcessId p = 0; p < obs.procs.size(); ++p) {
    const ProcessObs& proc = obs.procs[p];
    if (proc.proposed && !proc.crashed && !proc.decided) {
      return Violation{"termination",
                       "quiescent stable run but p" + std::to_string(p) +
                           " proposed and never decided"};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_consensus(const ConsensusObs& obs,
                                         const StepBounds& bounds) {
  if (auto v = check_agreement(obs)) return v;
  if (auto v = check_validity(obs)) return v;
  if (auto v = check_integrity(obs)) return v;
  if (auto v = check_one_step(obs, bounds)) return v;
  if (auto v = check_zero_degradation(obs, bounds)) return v;
  if (auto v = check_termination(obs)) return v;
  return std::nullopt;
}

std::optional<Violation> check_corruption(const CorruptionObs& obs) {
  if (!obs.checksums_enabled || !obs.all_on_sealed_channel) {
    return std::nullopt;
  }
  if (obs.corrupt_frames_dropped != obs.frames_corrupted) {
    std::ostringstream os;
    os << obs.frames_corrupted << " frame(s) corrupted on the wire but "
       << obs.corrupt_frames_dropped
       << " detected and dropped (every corruption must be a detectable "
          "drop when frame checksums are on)";
    return Violation{"undetected-corruption", os.str()};
  }
  return std::nullopt;
}

std::optional<Violation> check_convergence(const ConvergenceObs& obs) {
  if (obs.corrupt_injected == 0 || obs.legal_state) return std::nullopt;
  if (obs.steps_since_last_injection < obs.step_bound) return std::nullopt;
  std::ostringstream os;
  os << "system not back in a legal state "
     << obs.steps_since_last_injection << " step(s) after the last of "
     << obs.corrupt_injected << " transient corruption(s) (bound "
     << obs.step_bound << ")";
  return Violation{"convergence", os.str()};
}

std::optional<Violation> check_total_order(
    const std::vector<std::vector<abcast::AppMessage>>& histories) {
  for (std::size_t a = 0; a < histories.size(); ++a) {
    for (std::size_t b = a + 1; b < histories.size(); ++b) {
      const auto& ha = histories[a];
      const auto& hb = histories[b];
      const std::size_t len = std::min(ha.size(), hb.size());
      for (std::size_t i = 0; i < len; ++i) {
        if (!(ha[i] == hb[i])) {
          return Violation{
              "total-order",
              "histories of p" + std::to_string(a) + " and p" +
                  std::to_string(b) + " diverge at position " +
                  std::to_string(i) + " (\"" + ha[i].payload + "\" vs \"" +
                  hb[i].payload + "\")"};
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_no_duplicates(
    const std::vector<std::vector<abcast::AppMessage>>& histories) {
  for (std::size_t p = 0; p < histories.size(); ++p) {
    std::set<abcast::MsgId> seen;
    for (const auto& m : histories[p]) {
      if (!seen.insert(m.id).second) {
        return Violation{"duplication",
                         "p" + std::to_string(p) + " delivered message (" +
                             std::to_string(m.id.sender) + "," +
                             std::to_string(m.id.seq) + ") twice"};
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_no_creation(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted) {
  const std::set<abcast::MsgId> valid(submitted.begin(), submitted.end());
  for (std::size_t p = 0; p < histories.size(); ++p) {
    for (const auto& m : histories[p]) {
      if (valid.count(m.id) == 0) {
        return Violation{"creation",
                         "p" + std::to_string(p) + " delivered message (" +
                             std::to_string(m.id.sender) + "," +
                             std::to_string(m.id.seq) +
                             "), which was never a-broadcast"};
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_fifo(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted) {
  // Each sender's a-broadcasts in call order; seq numbers are per sender.
  std::map<ProcessId, std::vector<std::uint64_t>> order;
  for (const abcast::MsgId& id : submitted) order[id.sender].push_back(id.seq);
  for (std::size_t p = 0; p < histories.size(); ++p) {
    std::map<ProcessId, std::size_t> next;  // index into order[sender]
    for (const auto& m : histories[p]) {
      const auto it = order.find(m.id.sender);
      if (it == order.end()) continue;  // no-creation reports it
      std::size_t& i = next[m.id.sender];
      if (i < it->second.size() && it->second[i] == m.id.seq) {
        ++i;
        continue;
      }
      const std::string expected =
          i < it->second.size() ? std::to_string(it->second[i]) : "none";
      return Violation{"fifo",
                       "p" + std::to_string(p) + " delivered message (" +
                           std::to_string(m.id.sender) + "," +
                           std::to_string(m.id.seq) + ") while sender " +
                           std::to_string(m.id.sender) + "'s next was seq " +
                           expected};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_abcast(
    const std::vector<std::vector<abcast::AppMessage>>& histories,
    const std::vector<abcast::MsgId>& submitted) {
  if (auto v = check_total_order(histories)) return v;
  if (auto v = check_no_duplicates(histories)) return v;
  if (auto v = check_no_creation(histories, submitted)) return v;
  return std::nullopt;
}

}  // namespace zdc::check
