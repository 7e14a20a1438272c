// Service-layer throughput: client sessions driven through the real
// service stack (rsm::ServiceGroup over C-Abcast/L, durable applies, the
// lease gate) in virtual time on the simulated LAN, read-index ON vs OFF.
//
// With read-index OFF every linearizable read is a consensus-ordered
// envelope (one broadcast round); with it ON the lease gate serves reads
// from the leader's applied state and only downgraded reads pay a round.
// `consensus_read_rounds` equals `ordered_reads` by construction, so the
// schema's row check makes the claim auditable in the artifact: off rows
// must show no fast reads and one round per read, on rows a live fast path
// with fewer rounds than reads. one_step/two_step count the run's C-Abcast
// consensus decisions (summed over replicas) by step count. The sim_*_per_s
// rates are acks per virtual second on the default RunOptions::net LAN:
// they compare the read paths, not the threaded runtime's capacity.
//
// Emits BENCH_service.json (schema zdc-bench-service-v3) through bench_main
// (bench_util.h): [--quick] [--out FILE] [--seed N], or --validate FILE.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/session_driver.h"

namespace zdc::bench {
namespace {

/// One mode's run: prints its table line and returns its artifact row.
ArtifactRow run_mode(bool read_index, bool quick, std::uint64_t seed) {
  rsm::SessionRunConfig cfg;
  cfg.opts.with_group(4, 1).with_seed(seed).with_read_index(read_index);
  cfg.sessions = quick ? 2'000 : 100'000;
  cfg.concurrency = 256;
  const rsm::SessionRunReport r = rsm::run_sessions(cfg);
  if (!r.completed || r.double_applies != 0 || r.lin_violations != 0 ||
      !r.digests_converged) {
    std::fprintf(stderr, "service run failed its own oracles: %s\n",
                 r.first_violation.c_str());
    std::exit(1);
  }
  const std::string mode = read_index ? "read-index-on" : "read-index-off";
  const double per_s = 1e3 / r.sim_ms;  // acks per virtual second
  const double writes_per_s = static_cast<double>(r.writes_acked) * per_s;
  const double reads_per_s = static_cast<double>(r.reads_acked) * per_s;
  std::printf("%-16s %10.0f %10.0f %10llu %10llu %10llu %10.3f %10.3f\n",
              mode.c_str(), writes_per_s, reads_per_s,
              static_cast<unsigned long long>(r.fast_reads),
              static_cast<unsigned long long>(r.ordered_reads),
              static_cast<unsigned long long>(r.one_step), r.write_mean_ms,
              r.read_mean_ms);
  // consensus_read_rounds is ordered_reads: a fast read never enters the
  // broadcast, an ordered (or downgraded) one pays exactly one round.
  return {mode, r.sessions_completed, r.writes_acked, r.reads_acked,
          r.fast_reads, r.ordered_reads, r.ordered_reads, r.one_step,
          r.two_step, writes_per_s, reads_per_s, r.write_mean_ms,
          r.read_mean_ms, seed};
}

// ---------------------------------------------------------------------------

/// The row check: the per-path invariant described at the top of this file,
/// and both modes present.
std::string check_read_paths(const std::vector<common::JsonValue>& rows) {
  bool saw_on_mode = false;
  bool saw_off_mode = false;
  for (const common::JsonValue& row : rows) {
    const std::string& mode = row.find("mode")->text;
    const double reads = row.find("reads")->number;
    const double fast_reads = row.find("fast_reads")->number;
    const double rounds = row.find("consensus_read_rounds")->number;
    if (mode == "read-index-off") {
      saw_off_mode = true;
      if (fast_reads != 0) return "read-index-off row has fast reads";
      if (rounds != reads) {
        return "read-index-off row must pay one round per read";
      }
    } else if (mode == "read-index-on") {
      saw_on_mode = true;
      if (fast_reads <= 0) return "read-index-on row has no fast reads";
      if (rounds >= reads) {
        return "read-index-on row shows no consensus-free reads";
      }
    } else {
      return "unknown mode '" + mode + "'";
    }
  }
  if (!saw_on_mode || !saw_off_mode) return "missing a read-index mode row";
  return {};
}

const ArtifactSchema kSchema{
    "zdc-bench-service-v3",
    "BENCH_service.json",
    {{"rows",
      {text_field("mode"), count_field("sessions"), count_field("writes"),
       count_field("reads"), count_field("fast_reads"),
       count_field("ordered_reads"), count_field("consensus_read_rounds"),
       count_field("one_step"), count_field("two_step"),
       real_field("sim_writes_per_s", 1), real_field("sim_reads_per_s", 1),
       real_field("write_mean_ms", 4), real_field("read_mean_ms", 4),
       count_field("seed")},
      check_read_paths}}};

std::vector<ArtifactRows> produce(bool quick, std::uint64_t seed) {
  std::printf("=== Service layer: sessions + linearizable reads, read-index "
              "on vs off ===\n");
  std::printf("%-16s %10s %10s %10s %10s %10s %10s %10s\n", "mode",
              "sim wr/s", "sim rd/s", "fast", "ordered", "one-step", "wr ms",
              "rd ms");
  ArtifactRows rows = {run_mode(/*read_index=*/true, quick, seed),
                       run_mode(/*read_index=*/false, quick, seed)};
  std::printf(
      "\n# ordered reads == consensus read rounds: a fast read is served from "
      "the lease\n# holder's applied state and never enters the broadcast.\n");
  return {rows};
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) {
  return zdc::bench::bench_main(argc, argv, zdc::bench::kSchema,
                                zdc::bench::produce);
}
