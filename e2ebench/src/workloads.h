// The benchmark's workloads. Each measures for `seconds`, checks the
// program's outputs and fills a Report: end-to-end metrics from untraced
// stacks, per-layer metrics (and the tracing overhead) from a traced stack
// when `trace` is set.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL files (created and removed by the run).
  std::string work_dir = ".";
};

/// kv-write, kv-read, kv-read-ordered, kv-failover, kv-failover-ordered:
/// rsm::ServiceGroup / rsm::Client over the in-process runtime.
void run_kv(const Args& args, Report& report);

/// abcast-udp: runtime::RuntimeCluster over loopback UDP, open loop.
void run_udp(const Args& args, Report& report);

}  // namespace e2e
