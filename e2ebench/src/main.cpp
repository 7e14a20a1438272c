// End-to-end benchmark of the threaded zdc stack.
//
//   e2ebench --workload <kv-write|kv-read|kv-read-ordered|kv-failover|
//                        kv-failover-ordered|abcast-udp>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--commit <id>]
//
// Prints the host, the output checks, the workload's own numbers ("info"),
// every reported metric ("metric <name> <value> <unit>") and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check failed, 2 on bad arguments.
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "layers.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<kv-write|kv-read|kv-read-ordered|kv-failover|"
               "kv-failover-ordered|abcast-udp> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--commit <id>]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  // At most 19 digits: always fits, so std::stoull cannot throw.
  if (s.empty() || s.size() > 19 ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

std::string fs_name(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &n)) return usage("--seed takes an integer");
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600) {
        return usage("--seconds takes an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const bool kv = args.workload == "kv-write" || args.workload == "kv-read" ||
                  args.workload == "kv-read-ordered" ||
                  args.workload == "kv-failover" ||
                  args.workload == "kv-failover-ordered";
  if (!have_workload || (!kv && args.workload != "abcast-udp")) {
    return usage("unknown or missing --workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return usage(("cannot create --work-dir " + args.work_dir).c_str());

  utsname un{};
  uname(&un);
  std::printf(
      "host {\"cores\": %u, \"kernel\": \"%s\", \"wal_fs\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), un.release,
      fs_name(args.work_dir).c_str(), E2E_BUILD_TYPE, commit.c_str());
  std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  e2e::Report report;
  if (kv) {
    e2e::run_kv(args, report);
  } else {
    e2e::run_udp(args, report);
  }
  report.info("peak_rss_mb", e2e::peak_rss_mb(), "MiB");
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, report.attempted());
  report.info("fail_ratio",
              static_cast<double>(report.failed()) /
                  static_cast<double>(attempted),
              "ratio");
  report.print(args.trace ? e2e::per_layer_metrics()
                          : e2e::end_to_end_metrics());
  return report.correct() ? 0 : 1;
}
