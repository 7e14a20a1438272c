// zdc_explore — command-line front end to the simulator harnesses: run any
// protocol under any scenario without writing code.
//
//   zdc_explore consensus --protocol l --n 4 --f 1 --proposals a,b,b,b
//               --fd track --crash 0@0.5 --trace
//   zdc_explore abcast    --protocol c-p --throughput 300 --messages 500
//   zdc_explore sequence  --protocol paxos --instances 12 --crash-before 6
//   zdc_explore runtime   --protocol c-l --transport udp --messages 100
//               --metrics
//   zdc_explore validate-metrics snapshot.json
//
// Run with --help for the full flag reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "obs/runtime_trace.h"
#include "runtime/workload.h"
#include "sim/abcast_world.h"
#include "sim/consensus_world.h"
#include "sim/sequence_world.h"
#include "sim/trace.h"

namespace {

using namespace zdc;

struct Flags {
  std::map<std::string, std::string> values;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values.count(key) != 0;
  }
};

Flags parse_flags(int argc, char** argv, int first) {
  // Every flag any mode reads; a typo'd flag silently falling back to its
  // default would make a scenario lie about what it ran.
  static const std::set<std::string> kKnown = {
      "crash",       "crash-before", "crash-process", "detect-ms",
      "f",           "fd",           "instances",     "leader",
      "messages",    "metrics",      "metrics-out",   "n",
      "plan",        "plan-text",    "proposals",     "protocol",
      "seed",        "throughput",   "trace",         "transport",
      "unanimous"};
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    if (kKnown.count(key) == 0) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", key.c_str());
      std::exit(2);
    }
    if (eq != std::string::npos) {
      flags.values[key] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags.values[key] = argv[++i];
    } else {
      flags.values[key] = "1";
    }
  }
  return flags;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

sim::FdConfig parse_fd(const Flags& flags) {
  sim::FdConfig fd;
  const std::string mode = flags.get("fd", "stable");
  if (mode == "track") {
    fd.mode = sim::FdMode::kCrashTracking;
    fd.detection_delay_ms = flags.num("detect-ms", 3.0);
  } else {
    fd.mode = sim::FdMode::kStable;
    if (flags.has("leader")) {
      fd.stable_leader = static_cast<ProcessId>(flags.num("leader", 0));
    }
  }
  return fd;
}

std::vector<sim::CrashSpec> parse_crashes(const Flags& flags,
                                          std::uint32_t n) {
  std::vector<sim::CrashSpec> crashes;
  if (!flags.has("crash")) return crashes;
  // --crash 0@0.5,2@init : process@time or process@init
  for (const std::string& item : split(flags.get("crash", ""), ',')) {
    if (item.empty()) continue;
    const auto at = item.find('@');
    sim::CrashSpec c;
    c.p = static_cast<ProcessId>(std::atoi(item.substr(0, at).c_str()));
    if (c.p >= n) {
      std::fprintf(stderr, "crash process %u out of range\n", c.p);
      std::exit(2);
    }
    if (at == std::string::npos || item.substr(at + 1) == "init") {
      c.initial = true;
    } else {
      c.time = std::atof(item.substr(at + 1).c_str());
    }
    crashes.push_back(std::move(c));
  }
  return crashes;
}

/// Loads a nemesis plan from --plan FILE or --plan-text "a;b;c" (';' doubles
/// as a line separator so a whole plan fits in one shell argument) for a
/// group of n processes. Exits 2 with a diagnostic on parse errors and on
/// processes out of range.
fault::FaultPlan load_plan(const Flags& flags, std::uint32_t n) {
  fault::FaultPlan plan;
  std::string text;
  if (flags.has("plan")) {
    const std::string path = flags.get("plan", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open plan file '%s'\n", path.c_str());
      std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  } else if (flags.has("plan-text")) {
    text = flags.get("plan-text", "");
    for (char& c : text) {
      if (c == ';') c = '\n';
    }
  } else {
    return plan;
  }
  std::string error;
  if (!fault::parse_fault_plan(text, &plan, &error) ||
      !fault::check_plan(plan, n, &error)) {
    std::fprintf(stderr, "bad fault plan: %s\n", error.c_str());
    std::exit(2);
  }
  return plan;
}

/// Prints the corruption ledger of a run that had a fault plan.
void print_ledger(const fault::FaultPlan& plan,
                  const sim::CorruptionLedger& ledger) {
  if (plan.empty()) return;
  std::printf("corruption: frames=%llu equivocations=%llu dropped=%llu\n",
              static_cast<unsigned long long>(ledger.frames_corrupted),
              static_cast<unsigned long long>(ledger.equivocations),
              static_cast<unsigned long long>(ledger.corrupt_frames_dropped));
}

/// True when any metrics output was requested.
bool wants_metrics(const Flags& flags) {
  return flags.has("metrics") || flags.has("metrics-out");
}

/// Emits the registry per the --metrics/--metrics-out flags: stdout gets the
/// JSON export followed by the Prometheus text exposition; --metrics-out FILE
/// writes just the JSON document (the machine-readable artifact).
int emit_metrics(const obs::MetricsRegistry& registry, const Flags& flags) {
  const obs::MetricsRegistry::Snapshot snapshot = registry.snapshot();
  const std::string json = obs::to_json(snapshot);
  const std::string error = obs::validate_metrics_json(json);
  if (!error.empty()) {
    std::fprintf(stderr, "internal error: emitted metrics JSON invalid: %s\n",
                 error.c_str());
    return 1;
  }
  if (flags.has("metrics-out")) {
    const std::string path = flags.get("metrics-out", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n", path.c_str());
      return 2;
    }
    out << json;
  }
  if (flags.has("metrics")) {
    std::printf("%s\n", json.c_str());
    std::printf("%s", obs::to_prometheus(snapshot).c_str());
  }
  return 0;
}

int run_consensus_mode(const Flags& flags) {
  sim::ConsensusRunConfig cfg;
  cfg.group.n = static_cast<std::uint32_t>(flags.num("n", 4));
  cfg.group.f = static_cast<std::uint32_t>(flags.num("f", 1));
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  cfg.net = sim::calibrated_lan_2006();
  cfg.fd = parse_fd(flags);
  cfg.crashes = parse_crashes(flags, cfg.group.n);
  cfg.fault_plan = load_plan(flags, cfg.group.n);

  if (flags.has("proposals")) {
    cfg.proposals = split(flags.get("proposals", ""), ',');
    if (cfg.proposals.size() != cfg.group.n) {
      std::fprintf(stderr, "need exactly n=%u proposals\n", cfg.group.n);
      return 2;
    }
  } else {
    for (ProcessId p = 0; p < cfg.group.n; ++p) {
      cfg.proposals.push_back("v" + std::to_string(p));
    }
  }

  sim::TraceRecorder trace;
  if (flags.has("trace")) cfg.trace = &trace;
  obs::MetricsRegistry registry;
  if (wants_metrics(flags)) cfg.metrics = &registry;

  const std::string protocol = flags.get("protocol", "l");
  auto r = sim::run_consensus(cfg, sim::consensus_factory_by_name(protocol));

  std::printf("protocol=%s n=%u f=%u seed=%llu\n", protocol.c_str(),
              cfg.group.n, cfg.group.f,
              static_cast<unsigned long long>(cfg.seed));
  if (!cfg.fault_plan.empty()) {
    std::printf("nemesis plan (%zu actions):\n", cfg.fault_plan.actions.size());
    for (const auto& a : cfg.fault_plan.actions) {
      std::printf("  %s\n", fault::to_string(a).c_str());
    }
  }
  for (ProcessId p = 0; p < r.outcomes.size(); ++p) {
    const auto& o = r.outcomes[p];
    if (o.decided) {
      std::printf("  p%u: decided \"%s\" in %u step%s at %.3f ms (%s)\n", p,
                  o.decision.c_str(), o.steps, o.steps == 1 ? "" : "s",
                  o.decide_time,
                  o.path == consensus::DecisionPath::kRound ? "round"
                                                            : "forwarded");
    } else {
      std::printf("  p%u: %s\n", p, o.correct ? "undecided" : "crashed");
    }
  }
  std::printf("agreement=%s validity=%s termination=%s\n",
              r.agreement_ok ? "ok" : "VIOLATED",
              r.validity_ok ? "ok" : "VIOLATED",
              r.all_correct_decided ? "ok" : "incomplete");
  print_ledger(cfg.fault_plan, r);
  if (flags.has("trace")) {
    std::printf("\n%s", trace.render_spacetime(cfg.group.n).c_str());
    std::printf("trace: %zu events, causally consistent: %s\n",
                trace.events().size(),
                trace.causally_consistent() ? "yes" : "NO");
  }
  if (wants_metrics(flags)) {
    const int rc = emit_metrics(registry, flags);
    if (rc != 0) return rc;
  }
  return r.safe() ? 0 : 1;
}

int run_abcast_mode(const Flags& flags) {
  sim::AbcastRunConfig cfg;
  cfg.group.n = static_cast<std::uint32_t>(flags.num("n", 4));
  cfg.group.f = static_cast<std::uint32_t>(flags.num("f", 1));
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  cfg.net = sim::calibrated_lan_2006();
  cfg.fd = parse_fd(flags);
  cfg.throughput_per_s = flags.num("throughput", 100);
  cfg.message_count = static_cast<std::uint32_t>(flags.num("messages", 400));

  obs::MetricsRegistry registry;
  if (wants_metrics(flags)) cfg.metrics = &registry;

  const std::string protocol = flags.get("protocol", "c-l");
  if (protocol == "paxos" && !flags.has("n")) cfg.group = GroupParams{3, 1};
  cfg.crashes = parse_crashes(flags, cfg.group.n);
  cfg.fault_plan = load_plan(flags, cfg.group.n);
  if (cfg.fault_plan.has(fault::FaultKind::kRestart)) {
    std::fprintf(stderr,
                 "bad fault plan: restart is not supported by the crash-stop "
                 "abcast world\n");
    return 2;
  }

  auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
  std::printf("protocol=%s n=%u throughput=%.0f/s messages=%u seed=%llu\n",
              protocol.c_str(), cfg.group.n, cfg.throughput_per_s,
              cfg.message_count, static_cast<unsigned long long>(cfg.seed));
  std::printf("latency  mean=%.3f ms  p50=%.3f  p95=%.3f  p99=%.3f  max=%.3f\n",
              r.latency_ms.mean(), r.latency_ms.percentile(50),
              r.latency_ms.percentile(95), r.latency_ms.percentile(99),
              r.latency_ms.max());
  std::printf("delivered=%llu undelivered=%llu msgs/abcast=%.1f duration=%.1f ms\n",
              static_cast<unsigned long long>(r.delivered_unique),
              static_cast<unsigned long long>(r.undelivered),
              r.messages_per_abcast(), r.duration_ms);
  std::printf("total-order=%s integrity=%s agreement=%s\n",
              r.total_order_ok ? "ok" : "VIOLATED",
              r.integrity_ok ? "ok" : "VIOLATED",
              r.agreement_ok ? "ok" : "incomplete");
  print_ledger(cfg.fault_plan, r);
  if (wants_metrics(flags)) {
    const int rc = emit_metrics(registry, flags);
    if (rc != 0) return rc;
  }
  return r.safe() ? 0 : 1;
}

int run_sequence_mode(const Flags& flags) {
  sim::SequenceConfig cfg;
  cfg.group.n = static_cast<std::uint32_t>(flags.num("n", 4));
  cfg.group.f = static_cast<std::uint32_t>(flags.num("f", 1));
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  cfg.net = sim::calibrated_lan_2006();
  cfg.fd.mode = sim::FdMode::kCrashTracking;
  cfg.fd.detection_delay_ms = flags.num("detect-ms", 3.0);
  cfg.instances = static_cast<std::uint32_t>(flags.num("instances", 12));
  cfg.divergent_proposals = !flags.has("unanimous");
  if (flags.has("crash-before")) {
    cfg.crash_process = static_cast<ProcessId>(flags.num("crash-process", 0));
    cfg.crash_before_instance =
        static_cast<std::uint32_t>(flags.num("crash-before", 0));
  }

  obs::MetricsRegistry registry;
  if (wants_metrics(flags)) cfg.metrics = &registry;

  const std::string protocol = flags.get("protocol", "l");
  auto r =
      sim::run_consensus_sequence(cfg, sim::consensus_factory_by_name(protocol));
  std::printf("protocol=%s instances=%u%s\n", protocol.c_str(), cfg.instances,
              flags.has("crash-before") ? " (with crash)" : "");
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    const auto& inst = r.instances[i];
    std::printf("  #%zu%s steps=%.1f first-decision=%.2f ms%s\n", i,
                flags.has("crash-before") &&
                        i == static_cast<std::size_t>(
                                 flags.num("crash-before", 0))
                    ? "*"
                    : " ",
                inst.mean_steps, inst.first_decision,
                inst.safe ? "" : "  UNSAFE");
  }
  std::printf("complete=%s safe=%s\n", r.all_complete ? "yes" : "NO",
              r.all_safe ? "yes" : "NO");
  if (wants_metrics(flags)) {
    const int rc = emit_metrics(registry, flags);
    if (rc != 0) return rc;
  }
  return r.all_safe ? 0 : 1;
}

int run_runtime_mode(const Flags& flags) {
  if (flags.has("plan") || flags.has("plan-text")) {
    std::fprintf(stderr,
                 "bad fault plan: the runtime mode injects no fault plan\n");
    return 2;
  }
  const std::string protocol = flags.get("protocol", "c-l");
  runtime::ProtocolKind kind;
  if (protocol == "c-l") {
    kind = runtime::ProtocolKind::kCAbcastL;
  } else if (protocol == "c-p") {
    kind = runtime::ProtocolKind::kCAbcastP;
  } else if (protocol == "wabcast") {
    kind = runtime::ProtocolKind::kWabcast;
  } else if (protocol == "paxos") {
    kind = runtime::ProtocolKind::kPaxos;
  } else {
    std::fprintf(stderr, "unknown runtime protocol '%s' (c-l c-p wabcast paxos)\n",
                 protocol.c_str());
    return 2;
  }

  zdc::RunOptions opts;
  opts.with_group(static_cast<std::uint32_t>(flags.num("n", 4)),
                  static_cast<std::uint32_t>(flags.num("f", 1)))
      .with_seed(static_cast<std::uint64_t>(flags.num("seed", 1)));
  obs::MetricsRegistry registry;
  opts.with_metrics(&registry);  // runtime metrics are always collected

  runtime::RuntimeWorkloadConfig cfg;
  cfg.cluster = runtime::RuntimeCluster::Config::from_options(opts);
  cfg.cluster.kind = kind;
  obs::RuntimeTraceRecorder recorder;
  if (flags.has("trace")) cfg.cluster.trace = &recorder;
  const std::string transport = flags.get("transport", "inproc");
  if (transport == "udp") {
    cfg.cluster.transport = runtime::RuntimeCluster::TransportKind::kUdp;
  } else if (transport != "inproc") {
    std::fprintf(stderr, "unknown transport '%s' (inproc | udp)\n",
                 transport.c_str());
    return 2;
  }
  cfg.throughput_per_s = flags.num("throughput", 500);
  cfg.message_count = static_cast<std::uint32_t>(flags.num("messages", 100));
  cfg.seed = static_cast<std::uint64_t>(flags.num("seed", 1));

  const auto r = runtime::run_runtime_workload(cfg);
  std::printf("protocol=%s transport=%s n=%u messages=%u\n", protocol.c_str(),
              transport.c_str(), cfg.cluster.group.n, cfg.message_count);
  std::printf("latency  mean=%.3f ms  p95=%.3f  max=%.3f  (replica mean=%.3f)\n",
              r.latency_ms.mean(), r.latency_ms.percentile(95),
              r.latency_ms.max(), r.replica_latency_ms.mean());
  std::printf("delivered=%llu duration=%.1f ms total-order=%s complete=%s\n",
              static_cast<unsigned long long>(r.delivered_total),
              r.duration_ms, r.total_order_ok ? "ok" : "VIOLATED",
              r.complete ? "yes" : "NO");
  std::printf("generator lateness p99=%.3f ms\n", r.gen_lateness_ms_p99);
  if (flags.has("trace")) {
    const sim::TraceRecorder trace = recorder.freeze();
    std::printf("\n%s", trace.render_spacetime(cfg.cluster.group.n).c_str());
    std::printf("trace: %zu events, causally consistent: %s\n",
                trace.events().size(),
                trace.causally_consistent() ? "yes" : "NO");
  }
  if (wants_metrics(flags)) {
    const int rc = emit_metrics(registry, flags);
    if (rc != 0) return rc;
  }
  return r.total_order_ok && r.complete ? 0 : 1;
}

int run_validate_metrics_mode(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: zdc_explore validate-metrics FILE\n");
    return 2;
  }
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[2]);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string error = obs::validate_metrics_json(buf.str());
  if (!error.empty()) {
    std::fprintf(stderr, "%s: INVALID: %s\n", argv[2], error.c_str());
    return 1;
  }
  std::printf("%s: ok (schema zdc-metrics-v1)\n", argv[2]);
  return 0;
}

void usage() {
  std::printf(
      "zdc_explore — run zdc protocols from the command line\n\n"
      "modes:\n"
      "  consensus         one consensus instance\n"
      "  abcast            atomic-broadcast workload (Figure 2/3-style run)\n"
      "  sequence          repeated consensus (recovery-run experiment)\n"
      "  runtime           threaded-runtime workload (real threads/sockets)\n"
      "  validate-metrics  check a metrics JSON file against zdc-metrics-v1\n\n"
      "common flags:\n"
      "  --protocol P   consensus: l p paxos ct fast-paxos rec-paxos\n"
      "                 brasileiro-l brasileiro-paxos wab\n"
      "                 abcast:    c-l c-p wabcast paxos\n"
      "  --n N --f F    group size / tolerated crashes\n"
      "  --seed S       RNG seed (runs are deterministic per seed)\n"
      "  --fd MODE      stable (default) | track (crash-tracking)\n"
      "  --detect-ms X  detection delay for --fd track\n"
      "  --crash SPEC   e.g. 0@0.5 (p0 at 0.5 ms), 2@init, comma-separated\n"
      "  --plan FILE    nemesis plan file (see docs/FAULTS.md for the syntax);\n"
      "                 sim modes only, runtime rejects it\n"
      "  --plan-text T  inline plan, ';' separates actions:\n"
      "                 \"@0.2 partition 0 1 | 2 3;@6 heal\"\n\n"
      "  --metrics      print the run's metrics (JSON + Prometheus text)\n"
      "  --metrics-out F  write the metrics JSON document to file F\n\n"
      "consensus flags: --proposals a,b,c,d   --trace (space-time diagram)\n"
      "abcast flags:    --throughput R  --messages M\n"
      "sequence flags:  --instances K  --crash-before I  --crash-process P\n"
      "                 --unanimous\n"
      "runtime flags:   --transport inproc|udp  --protocol c-l|c-p|wabcast|paxos\n"
      "                 --throughput R  --messages M  --trace\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string mode = argv[1];
  if (mode == "validate-metrics") return run_validate_metrics_mode(argc, argv);
  const Flags flags = parse_flags(argc, argv, 2);
  if (mode == "consensus") return run_consensus_mode(flags);
  if (mode == "abcast") return run_abcast_mode(flags);
  if (mode == "sequence") return run_sequence_mode(flags);
  if (mode == "runtime") return run_runtime_mode(flags);
  usage();
  return 2;
}
