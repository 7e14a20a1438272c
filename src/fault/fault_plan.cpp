#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/assert.h"

namespace zdc::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kIsolate: return "isolate";
    case FaultKind::kLink: return "link";
    case FaultKind::kPause: return "pause";
    case FaultKind::kResume: return "resume";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kFlip: return "flip";
    case FaultKind::kEquivocate: return "equivocate";
    case FaultKind::kStateCorrupt: return "scorrupt";
  }
  return "?";
}

bool FaultPlan::has(FaultKind kind) const {
  return std::any_of(actions.begin(), actions.end(),
                     [kind](const FaultAction& a) { return a.kind == kind; });
}

void FaultPlan::normalize() {
  std::stable_sort(actions.begin(), actions.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.time < b.time;
                   });
}

std::vector<ProcessId> FaultPlan::crashed_at_end() const {
  std::set<ProcessId> down;
  for (const FaultAction& a : actions) {
    if (a.kind == FaultKind::kCrash) down.insert(a.p);
    if (a.kind == FaultKind::kRestart) down.erase(a.p);
  }
  return {down.begin(), down.end()};
}

bool FaultPlan::settles() const {
  bool links_faulted = false;
  std::set<ProcessId> paused;
  for (const FaultAction& a : actions) {
    switch (a.kind) {
      case FaultKind::kPartition:
      case FaultKind::kIsolate:
      case FaultKind::kLink:
        links_faulted = true;
        break;
      case FaultKind::kHeal:
        links_faulted = false;
        break;
      case FaultKind::kPause:
        paused.insert(a.p);
        break;
      case FaultKind::kResume:
        paused.erase(a.p);
        break;
      case FaultKind::kCrash:
      case FaultKind::kRestart:
        break;
      case FaultKind::kFlip:
      case FaultKind::kEquivocate:
      case FaultKind::kStateCorrupt:
        // Transient by construction: a finite corruption budget drains on
        // its own, the network is mended once it does.
        break;
    }
  }
  return !links_faulted && paused.empty();
}

bool check_plan(const FaultPlan& plan, std::uint32_t n, std::string* error) {
  for (const FaultAction& a : plan.actions) {
    std::vector<ProcessId> named;
    switch (a.kind) {
      case FaultKind::kHeal:
        break;
      case FaultKind::kPartition:
        named = a.group;
        break;
      case FaultKind::kLink:
      case FaultKind::kFlip:
        named = {a.p, a.q};
        break;
      case FaultKind::kIsolate:
      case FaultKind::kPause:
      case FaultKind::kResume:
      case FaultKind::kCrash:
      case FaultKind::kRestart:
      case FaultKind::kEquivocate:
      case FaultKind::kStateCorrupt:
        named = {a.p};
        break;
    }
    for (ProcessId p : named) {
      if (p >= n) {
        if (error != nullptr) {
          *error = "'" + to_string(a) + "': process " + std::to_string(p) +
                   " out of range for n=" + std::to_string(n);
        }
        return false;
      }
    }
  }
  return true;
}

bool apply_to_policy(const FaultAction& action, LinkPolicy& policy) {
  switch (action.kind) {
    case FaultKind::kPartition:
      policy.partition(action.group);
      return true;
    case FaultKind::kHeal:
      policy.heal();
      return true;
    case FaultKind::kIsolate:
      policy.isolate(action.p);
      return true;
    case FaultKind::kLink: {
      LinkState state;
      state.drop_prob = action.drop_prob;
      state.extra_delay_ms = action.extra_delay_ms;
      policy.set_link(action.p, action.q, state);
      return true;
    }
    case FaultKind::kPause:
      policy.pause(action.p);
      return true;
    case FaultKind::kResume:
      policy.resume(action.p);
      return true;
    case FaultKind::kFlip:
      policy.corrupt_link(action.p, action.q, action.count,
                          CorruptSpec{action.byte, action.bit});
      return true;
    case FaultKind::kEquivocate:
      policy.equivocate(action.p, action.count);
      return true;
    case FaultKind::kStateCorrupt:
      policy.corrupt_inbound(action.p, action.count,
                             CorruptSpec{action.byte, action.bit});
      return true;
    case FaultKind::kCrash:
    case FaultKind::kRestart:
      return false;
  }
  return false;
}

namespace {

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", ms);
  return buf;
}

/// Emits the non-default [count=] [byte=] [bit=] options of a corruption
/// action, so to_string(parse(text)) round-trips minimal plans minimally.
void append_corrupt_opts(std::ostringstream& out, const FaultAction& a) {
  if (a.count != 1) out << " count=" << a.count;
  if (a.byte != ~std::uint64_t{0}) out << " byte=" << a.byte;
  if (a.bit != 0) out << " bit=" << a.bit;
}

}  // namespace

std::string to_string(const FaultAction& a) {
  std::ostringstream out;
  out << "@" << format_ms(a.time) << " " << fault_kind_name(a.kind);
  switch (a.kind) {
    case FaultKind::kPartition: {
      for (ProcessId p : a.group) out << " " << p;
      out << " |";
      break;
    }
    case FaultKind::kHeal:
      break;
    case FaultKind::kLink:
      out << " " << a.p << " " << a.q;
      if (a.drop_prob > 0.0) out << " drop=" << format_ms(a.drop_prob);
      if (a.extra_delay_ms > 0.0) out << " delay=" << format_ms(a.extra_delay_ms);
      break;
    case FaultKind::kFlip:
      out << " " << a.p << " " << a.q;
      append_corrupt_opts(out, a);
      break;
    case FaultKind::kEquivocate:
      out << " " << a.p;
      if (a.count != 1) out << " count=" << a.count;
      break;
    case FaultKind::kStateCorrupt:
      out << " " << a.p;
      append_corrupt_opts(out, a);
      break;
    case FaultKind::kIsolate:
    case FaultKind::kPause:
    case FaultKind::kResume:
    case FaultKind::kCrash:
    case FaultKind::kRestart:
      out << " " << a.p;
      break;
  }
  return out.str();
}

std::string to_string(const FaultPlan& plan) {
  std::string out;
  for (const FaultAction& a : plan.actions) {
    out += to_string(a);
    out += '\n';
  }
  return out;
}

namespace {

bool fail(std::string* error, std::size_t line_no, const std::string& why) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + why;
  }
  return false;
}

/// Strict: the whole token must be a number ("2nonsense" is rejected).
bool parse_number(const std::string& token, double* out) {
  try {
    std::size_t consumed = 0;
    *out = std::stod(token, &consumed);
    return consumed == token.size();
  } catch (...) {
    return false;
  }
}

bool parse_u64(const std::string& token, std::uint64_t* out) {
  try {
    std::size_t consumed = 0;
    const unsigned long long v = std::stoull(token, &consumed);
    if (consumed != token.size()) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

bool parse_pid(const std::string& token, ProcessId* out) {
  try {
    std::size_t consumed = 0;
    const unsigned long v = std::stoul(token, &consumed);
    if (consumed != token.size()) return false;
    *out = static_cast<ProcessId>(v);
    return true;
  } catch (...) {
    return false;
  }
}

/// Consumes the trailing [count=] [byte=] [bit=] options of a corruption
/// verb. On failure stores the diagnostic in *why.
bool parse_corrupt_opts(std::istringstream& in, FaultAction* a,
                        std::string* why) {
  std::string opt;
  while (in >> opt) {
    bool ok = false;
    std::uint64_t v = 0;
    if (opt.rfind("count=", 0) == 0) {
      ok = parse_u64(opt.substr(6), &a->count) && a->count > 0;
    } else if (opt.rfind("byte=", 0) == 0) {
      ok = parse_u64(opt.substr(5), &a->byte);
    } else if (opt.rfind("bit=", 0) == 0) {
      ok = parse_u64(opt.substr(4), &v) && v < 8;
      a->bit = static_cast<std::uint32_t>(v);
    } else {
      *why = "unknown corruption option '" + opt + "'";
      return false;
    }
    if (!ok) {
      *why = "bad corruption option '" + opt + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool parse_fault_plan(const std::string& text, FaultPlan* plan,
                      std::string* error) {
  ZDC_ASSERT(plan != nullptr);
  plan->actions.clear();
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream in(line);
    std::string at;
    if (!(in >> at)) continue;  // blank line
    if (at.size() < 2 || at[0] != '@') {
      return fail(error, line_no, "expected '@<time_ms>'");
    }
    FaultAction a;
    if (!parse_number(at.substr(1), &a.time)) {
      return fail(error, line_no, "bad time '" + at + "'");
    }
    std::string verb;
    if (!(in >> verb)) return fail(error, line_no, "missing action verb");

    if (verb == "heal") {
      a.kind = FaultKind::kHeal;
    } else if (verb == "partition") {
      a.kind = FaultKind::kPartition;
      std::string token;
      bool past_bar = false;
      while (in >> token) {
        if (token == "|") {
          past_bar = true;
          continue;
        }
        if (past_bar) continue;  // side B is implied; listed for readability
        ProcessId p = 0;
        if (!parse_pid(token, &p)) {
          return fail(error, line_no, "bad process id '" + token + "'");
        }
        a.group.push_back(p);
      }
      if (!past_bar) {
        return fail(error, line_no, "partition needs a '|' separator");
      }
      if (a.group.empty()) {
        return fail(error, line_no, "partition needs at least one id");
      }
    } else if (verb == "link") {
      a.kind = FaultKind::kLink;
      unsigned long from = 0;
      unsigned long to = 0;
      if (!(in >> from >> to)) {
        return fail(error, line_no, "link needs '<from> <to>'");
      }
      a.p = static_cast<ProcessId>(from);
      a.q = static_cast<ProcessId>(to);
      std::string opt;
      while (in >> opt) {
        bool ok = false;
        if (opt.rfind("drop=", 0) == 0) {
          ok = parse_number(opt.substr(5), &a.drop_prob);
        } else if (opt.rfind("delay=", 0) == 0) {
          ok = parse_number(opt.substr(6), &a.extra_delay_ms);
        } else {
          return fail(error, line_no, "unknown link option '" + opt + "'");
        }
        if (!ok) {
          return fail(error, line_no, "bad link option '" + opt + "'");
        }
      }
    } else if (verb == "flip") {
      a.kind = FaultKind::kFlip;
      unsigned long from = 0;
      unsigned long to = 0;
      if (!(in >> from >> to)) {
        return fail(error, line_no, "flip needs '<from> <to>'");
      }
      a.p = static_cast<ProcessId>(from);
      a.q = static_cast<ProcessId>(to);
      std::string why;
      if (!parse_corrupt_opts(in, &a, &why)) return fail(error, line_no, why);
    } else if (verb == "equivocate" || verb == "scorrupt") {
      a.kind = verb == "equivocate" ? FaultKind::kEquivocate
                                    : FaultKind::kStateCorrupt;
      unsigned long p = 0;
      if (!(in >> p)) {
        return fail(error, line_no, verb + " needs a process id");
      }
      a.p = static_cast<ProcessId>(p);
      std::string why;
      if (!parse_corrupt_opts(in, &a, &why)) return fail(error, line_no, why);
      if (a.kind == FaultKind::kEquivocate &&
          (a.byte != ~std::uint64_t{0} || a.bit != 0)) {
        return fail(error, line_no,
                    "equivocate takes no byte=/bit= (the fabric varies the "
                    "divergent copy per receiver)");
      }
    } else {
      if (verb == "isolate") {
        a.kind = FaultKind::kIsolate;
      } else if (verb == "pause") {
        a.kind = FaultKind::kPause;
      } else if (verb == "resume") {
        a.kind = FaultKind::kResume;
      } else if (verb == "crash") {
        a.kind = FaultKind::kCrash;
      } else if (verb == "restart") {
        a.kind = FaultKind::kRestart;
      } else {
        return fail(error, line_no, "unknown action '" + verb + "'");
      }
      unsigned long p = 0;
      if (!(in >> p)) {
        return fail(error, line_no, verb + " needs a process id");
      }
      a.p = static_cast<ProcessId>(p);
    }
    plan->actions.push_back(std::move(a));
  }
  plan->normalize();
  return true;
}

}  // namespace zdc::fault
