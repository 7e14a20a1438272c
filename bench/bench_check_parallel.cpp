// Parallel model-checker throughput: transitions/s of the task-decomposed
// DFS (zdc_check --threads) against the sequential engine on the Paxos n=3
// benchmark space, plus the determinism cross-check the speedup is not
// allowed to cost (identical totals at every thread count).
//
// The parallel engine runs every work unit to completion, so on a
// violation-free space it does the same work as the sequential DFS plus one
// prefix replay per unit — the speedup column is (roughly) core count, and
// on a single-core box it reads ~1× by design.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "check/explorer.h"
#include "check/system.h"

namespace {

using namespace zdc;
using bench::now_s;

check::ScenarioSpec paxos_n3() {
  check::ScenarioSpec spec;
  spec.protocol = "paxos";
  spec.group = GroupParams{3, 1};
  spec.proposals = {"a", "b", "c"};
  return spec;
}

}  // namespace

int main() {
  std::printf("=== Parallel DFS throughput: Paxos n=3, proposals a,b,c ===\n");
  const check::ScenarioSpec spec = paxos_n3();
  check::AdversaryBudgets budgets;
  budgets.flips = 1;  // corruption choice points widen the alphabet
  const check::SystemFactory factory =
      check::make_system_factory(spec, budgets);

  check::ExploreConfig cfg;
  cfg.max_depth = 8;

  std::printf("%-10s  %14s  %10s  %10s  %12s\n", "threads", "transitions",
              "paths", "wall s", "trans/s");
  std::uint64_t parallel_total = 0;
  for (const std::uint32_t threads : {0u, 1u, 2u, 4u, 8u}) {
    cfg.threads = threads;
    const double t0 = now_s();
    const auto res = check::explore(factory, cfg);
    const double dt = now_s() - t0;
    std::printf("%-10u  %14llu  %10llu  %10.3f  %12.0f%s\n", threads,
                static_cast<unsigned long long>(res.transitions),
                static_cast<unsigned long long>(res.paths), dt,
                dt > 0 ? static_cast<double>(res.transitions) / dt : 0.0,
                threads == 0 ? "  (sequential)" : "");
    if (threads >= 1) {
      if (parallel_total == 0) parallel_total = res.transitions;
      if (res.transitions != parallel_total) {
        std::printf("DETERMINISM VIOLATION: %u threads explored %llu "
                    "transitions, 1 thread explored %llu\n",
                    threads,
                    static_cast<unsigned long long>(res.transitions),
                    static_cast<unsigned long long>(parallel_total));
        return 1;
      }
    }
  }
  std::printf("\n# Totals at threads >= 1 must be byte-identical (enforced "
              "above); the sequential row\n"
              "# is smaller only by the per-unit prefix replays. Speedup "
              "tracks physical cores.\n");
  return 0;
}
