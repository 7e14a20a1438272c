// Service-layer throughput: the session/read-index stack driven through
// the deterministic service simulation, read-index ON vs OFF.
//
// What the rows price: with read-index OFF every linearizable read is a
// consensus-ordered envelope (one full broadcast round); with read-index ON
// the lease gate serves reads straight from the leader's applied state and
// only downgraded reads pay a round. The per-path counters make the claim
// auditable in the artifact itself: `consensus_read_rounds` equals
// `ordered_reads` by construction, so a read-index-on row with
// fast_reads == reads and consensus_read_rounds == 0 is the zero-consensus
// read path, proven, not asserted. The schema's row check enforces the
// invariant: read-index-off rows must show fast_reads == 0 and one round per
// read; read-index-on rows must show a live fast path with fewer rounds than
// reads. The sim_*_per_s rates are in simulated time over a modeled fabric:
// they compare the two read paths, they are not a capacity ceiling.
//
// Emits BENCH_service.json (schema zdc-bench-service-v2) through bench_main
// (bench_util.h): [--quick] [--out FILE] [--seed N], or --validate FILE.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/service_sim.h"

namespace zdc::bench {
namespace {

struct ServiceRow {
  std::string mode;  ///< "read-index-on" | "read-index-off"
  std::uint64_t sessions = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t ordered_reads = 0;
  /// Consensus rounds spent on reads — exactly the ordered (downgraded)
  /// reads; fast reads never enter the broadcast at all.
  std::uint64_t consensus_read_rounds = 0;
  std::uint64_t one_step = 0;
  std::uint64_t two_step = 0;
  double sim_writes_per_s = 0;  ///< simulated time, not wall-clock capacity
  double sim_reads_per_s = 0;
  double write_mean_ms = 0;
  double fast_read_mean_ms = 0;
  double ordered_read_mean_ms = 0;
  std::uint64_t seed = 0;
};

ServiceRow run_mode(bool read_index, bool quick, std::uint64_t seed) {
  rsm::ServiceSimConfig cfg;
  cfg.sessions = quick ? 2'000 : 100'000;
  cfg.concurrency = 256;
  cfg.read_index = read_index;
  cfg.seed = seed;
  const rsm::ServiceSimReport r = rsm::run_service_sim(cfg);
  if (!r.completed || r.double_applies != 0 || r.lin_violations != 0 ||
      !r.digests_converged) {
    std::fprintf(stderr, "service sim failed its own oracles: %s\n",
                 r.first_violation.c_str());
    std::exit(1);
  }

  ServiceRow row;
  row.mode = read_index ? "read-index-on" : "read-index-off";
  row.sessions = r.sessions_completed;
  row.writes = r.writes_acked;
  row.reads = r.reads_acked;
  row.fast_reads = r.fast_reads;
  row.ordered_reads = r.ordered_reads;
  row.consensus_read_rounds = r.ordered_reads;
  row.one_step = r.one_step_commits;
  row.two_step = r.two_step_commits;
  row.sim_writes_per_s = static_cast<double>(r.writes_acked) / r.sim_ms * 1e3;
  row.sim_reads_per_s = static_cast<double>(r.reads_acked) / r.sim_ms * 1e3;
  row.write_mean_ms = r.write_mean_ms;
  row.fast_read_mean_ms = r.fast_read_mean_ms;
  row.ordered_read_mean_ms = r.ordered_read_mean_ms;
  row.seed = seed;
  return row;
}

void print_table(const std::vector<ServiceRow>& rows) {
  std::printf("=== Service layer: sessions + linearizable reads, read-index "
              "on vs off ===\n");
  std::printf("%-16s %10s %10s %10s %10s %12s %10s %10s\n", "mode", "sim wr/s",
              "sim rd/s", "fast", "ordered", "cons.rounds", "wr ms", "rd ms");
  for (const ServiceRow& r : rows) {
    const double read_ms =
        r.fast_reads >= r.ordered_reads ? r.fast_read_mean_ms
                                        : r.ordered_read_mean_ms;
    std::printf("%-16s %10.0f %10.0f %10llu %10llu %12llu %10.3f %10.3f\n",
                r.mode.c_str(), r.sim_writes_per_s, r.sim_reads_per_s,
                static_cast<unsigned long long>(r.fast_reads),
                static_cast<unsigned long long>(r.ordered_reads),
                static_cast<unsigned long long>(r.consensus_read_rounds),
                r.write_mean_ms, read_ms);
  }
  std::printf(
      "\n# consensus_read_rounds == ordered_reads by construction: a fast "
      "read is served from\n"
      "# the lease holder's applied state and never enters the broadcast. "
      "With read-index off\n"
      "# every read pays a full round; with it on the rounds collapse to "
      "the (rare) downgrades.\n");
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
    "zdc-bench-service-v2",
    "BENCH_service.json",
    {{"rows",
      {text_field("mode"), count_field("sessions"), count_field("writes"),
       count_field("reads"), count_field("fast_reads"),
       count_field("ordered_reads"), count_field("consensus_read_rounds"),
       count_field("one_step"), count_field("two_step"),
       real_field("sim_writes_per_s", 1), real_field("sim_reads_per_s", 1),
       real_field("write_mean_ms", 4), real_field("fast_read_mean_ms", 4),
       real_field("ordered_read_mean_ms", 4), count_field("seed")},
      check_read_paths}}};

std::vector<ArtifactRows> produce(bool quick, std::uint64_t seed) {
  std::vector<ServiceRow> rows;
  rows.push_back(run_mode(/*read_index=*/true, quick, seed));
  rows.push_back(run_mode(/*read_index=*/false, quick, seed));
  print_table(rows);

  ArtifactRows out;
  for (const ServiceRow& r : rows) {
    out.push_back({r.mode, r.sessions, r.writes, r.reads, r.fast_reads,
                   r.ordered_reads, r.consensus_read_rounds, r.one_step,
                   r.two_step, r.sim_writes_per_s, r.sim_reads_per_s,
                   r.write_mean_ms, r.fast_read_mean_ms,
                   r.ordered_read_mean_ms, r.seed});
  }
  return {out};
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) {
  return zdc::bench::bench_main(argc, argv, zdc::bench::kSchema,
                                zdc::bench::produce);
}
