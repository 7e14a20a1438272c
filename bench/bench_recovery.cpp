// Recovery-cost experiment, in two parts.
//
// Part 1 (the paper's Sec. 1 motivation, after Dutta et al.'s "The Overhead
// of Consensus Recovery"): consensus is executed as a back-to-back sequence
// of instances; a crash during instance k propagates as an *initial* failure
// into every later instance. The per-instance latency series shows which
// protocols pay a one-time recovery blip and which are degraded forever.
//
// Expected series (divergent proposals, crash of p0 before instance 6,
// crash-tracking FD with a short detection delay):
//   L-/P-Consensus : 2 steps before, a blip while the FD converges, 2 steps
//                    after — zero-degradation (Def. 3).
//   CT             : 3 steps always (never better; the wasted p0 round after
//                    the crash costs ~no time once ◇S is stable).
//   single Paxos   : 2 steps before, 4 steps *forever after* — ballot 0 is
//                    owned by the dead p0, so every instance pays phase 1;
//                    this is exactly the permanent degradation repeated
//                    consensus suffers without zero-degradation (Multi-Paxos
//                    amortizes it, which is what Table 1 assumes).
//   Brasileiro     : 3 steps always on divergent proposals.
//
// Part 2 (the durable-storage cost model, docs/STORAGE.md): the same
// acceptor-shaped put workload against InMemoryStableStorage (state dies
// with the process), the durable WAL with per-put fsync, the WAL with group
// commit (N puts per fsync), and the WAL after compaction. The priced
// quantities are sync_count — the recovery-cost metric the paper's
// evaluation uses — plus reopen (recovery-scan) time and how many records
// survive a kill -9.
//
// Part 3 (the catch-up protocol, docs/RECOVERY.md): catch-up time vs lag.
// A restarted replica pulls the commands it missed from a live peer through
// recovery::CatchupService — entry resends while the peer's DeliveryLog
// retains them, one snapshot transfer plus the log suffix once retention GC
// outran the lag. The rows price both regimes: wall time to converge,
// wire messages, entries applied and snapshots installed, as the lag grows
// past the retention cap ("catchup_rows" in the JSON artifact).
//
// Emits BENCH_recovery.json (schema zdc-bench-recovery-v1) through
// bench_main (bench_util.h): [--quick] [--out FILE] [--seed N], or
// --validate FILE.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "abcast/delivery_log.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stable_storage.h"
#include "core/kv_store.h"
#include "recovery/catchup.h"
#include "recovery/durable_rsm.h"
#include "sim/sequence_world.h"
#include "storage/durable_storage.h"
#include "storage/env.h"

namespace zdc::bench {
namespace {

// ---------------------------------------------------------------------------
// Part 1: repeated consensus with a mid-sequence crash (unchanged series).

void run_sequence_table() {
  constexpr std::uint32_t kInstances = 12;
  constexpr std::uint32_t kCrashBefore = 6;

  const std::vector<std::string> protocols = {"l", "p", "ct", "paxos",
                                              "brasileiro-l"};

  std::printf("=== Recovery runs: repeated consensus with a mid-sequence "
              "crash ===\n");
  std::printf("n=4, f=1, divergent proposals; p0 crashes before instance %u\n"
              "cells: mean decision steps (first-decision latency, ms)\n\n",
              kCrashBefore);

  std::printf("%-14s", "instance");
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    std::printf("  %10u%s", i, i == kCrashBefore ? "*" : " ");
  }
  std::printf("\n");

  for (const auto& proto : protocols) {
    sim::SequenceConfig cfg;
    cfg.with_group(GroupParams{4, 1}).with_net(sim::calibrated_lan_2006());
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 3.0;
    cfg.with_seed(31);
    cfg.instances = kInstances;
    cfg.crash_process = 0;
    cfg.crash_before_instance = kCrashBefore;
    cfg.divergent_proposals = true;

    auto r = sim::run_consensus_sequence(
        cfg, sim::consensus_factory_by_name(proto));
    std::printf("%-14s", proto.c_str());
    for (const auto& inst : r.instances) {
      std::printf("  %4.1f (%4.2f)%s", inst.mean_steps, inst.first_decision,
                  inst.safe ? "" : "!");
    }
    if (!r.all_complete) std::printf("  INCOMPLETE");
    std::printf("\n");
  }

  std::printf("\n# '*' marks the crash boundary. Zero-degradation = the step "
              "count returns to 2 after the\n"
              "# blip; single-decree Paxos staying at 4 forever is the "
              "permanent degradation the paper's\n"
              "# introduction warns about.\n\n");
}

// ---------------------------------------------------------------------------
// Part 2: storage backends under an acceptor-shaped put workload.

struct StorageRow {
  std::string storage;  ///< in-memory | wal | wal-group-commit | wal-compacted
  std::uint64_t puts = 0;
  std::uint64_t batch = 1;  ///< puts per durability barrier
  std::uint64_t syncs = 0;  ///< sync_count() after the workload
  double puts_per_s = 0;
  double reopen_ms = 0;     ///< recovery-scan cost on the surviving media
  std::uint64_t records_recovered = 0;  ///< what a kill -9 leaves behind
  std::uint64_t seed = 0;
};

/// One acceptor-shaped record: a handful of hot keys overwritten forever,
/// ~32-byte ballot/value payloads — the RecoveringPaxos persistence pattern.
std::string workload_key(std::uint64_t i) {
  return "acceptor-" + std::to_string(i % 4);
}

std::string workload_value(common::Rng& rng) {
  std::string value(32, ' ');
  for (char& c : value) {
    c = static_cast<char>('a' + rng.next_below(26));
  }
  return value;
}

StorageRow run_storage(const std::string& kind, std::uint64_t puts,
                       std::uint64_t batch, std::uint64_t seed) {
  StorageRow row;
  row.storage = kind;
  row.puts = puts;
  row.batch = kind == "wal-group-commit" ? batch : 1;
  row.seed = seed;
  common::Rng rng(common::mix_seed(seed, "bench_recovery." + kind, 0.0, 0));

  if (kind == "in-memory") {
    common::InMemoryStableStorage store;
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < puts; ++i) {
      store.put(workload_key(i), workload_value(rng));
    }
    const double dt = now_s() - t0;
    row.syncs = store.sync_count();
    row.puts_per_s = static_cast<double>(puts) / dt;
    // kill -9: the map dies with the process. Nothing to reopen, nothing
    // recovered — that contrast is the whole reason src/storage exists.
    row.reopen_ms = 0;
    row.records_recovered = 0;
    return row;
  }

  storage::MemEnv env;
  storage::DurableStorageOptions options;
  options.segment_bytes = 64 * 1024;
  std::unique_ptr<storage::DurableStableStorage> store;
  storage::Status s =
      storage::DurableStableStorage::open(env, "db", options, &store);
  if (!s.is_ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }

  const double t0 = now_s();
  if (kind == "wal-group-commit") {
    for (std::uint64_t i = 0; i < puts; ++i) {
      store->put_nosync(workload_key(i), workload_value(rng));
      if ((i + 1) % batch == 0 || i + 1 == puts) store->sync();
    }
  } else {
    for (std::uint64_t i = 0; i < puts; ++i) {
      store->put(workload_key(i), workload_value(rng));  // fsync per put
    }
  }
  const double dt = now_s() - t0;
  if (!store->last_status().is_ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 store->last_status().to_string().c_str());
    std::exit(1);
  }
  row.syncs = store->sync_count();
  row.puts_per_s = static_cast<double>(puts) / dt;

  if (kind == "wal-compacted") {
    s = store->compact();
    if (!s.is_ok()) {
      std::fprintf(stderr, "compact failed: %s\n", s.to_string().c_str());
      std::exit(1);
    }
    row.syncs = store->sync_count();
  }

  // kill -9 + reboot: drop the object (everything above was synced, so the
  // media is intact) and price the recovery scan.
  store.reset();
  storage::WalRecoveryInfo info;
  const double r0 = now_s();
  s = storage::DurableStableStorage::open(env, "db", options, &store, &info);
  row.reopen_ms = (now_s() - r0) * 1e3;
  if (!s.is_ok()) {
    std::fprintf(stderr, "reopen failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }
  row.records_recovered = info.records_replayed;
  return row;
}

void run_storage_table(ArtifactRows* rows, bool quick, std::uint64_t seed) {
  const std::uint64_t puts = quick ? 2'000 : 50'000;
  const std::uint64_t batch = 32;
  std::printf("=== Durable storage: acceptor workload, %llu puts "
              "(group-commit batch %llu) ===\n",
              static_cast<unsigned long long>(puts),
              static_cast<unsigned long long>(batch));
  std::printf("%-18s %10s %12s %10s %12s\n", "storage", "syncs", "puts/s",
              "reopen ms", "recovered");
  for (const char* kind :
       {"in-memory", "wal", "wal-group-commit", "wal-compacted"}) {
    const StorageRow row = run_storage(kind, puts, batch, seed);
    std::printf("%-18s %10llu %12.0f %10.2f %12llu\n", row.storage.c_str(),
                static_cast<unsigned long long>(row.syncs), row.puts_per_s,
                row.reopen_ms,
                static_cast<unsigned long long>(row.records_recovered));
    rows->push_back({row.storage, row.puts, row.batch, row.syncs,
                     row.puts_per_s, row.reopen_ms, row.records_recovered,
                     row.seed});
  }
  std::printf(
      "\n# in-memory 'syncs' are free no-op barriers: fast, and a kill -9 "
      "recovers nothing. Group\n"
      "# commit divides the durability-barrier count by the batch size at "
      "the same durability;\n"
      "# compaction makes recovery O(state) instead of O(history) — the WAL "
      "replay behind 'recovered'\n"
      "# collapses to (nearly) zero records because the snapshot already "
      "holds the state.\n");
}

// ---------------------------------------------------------------------------
// Part 3: catch-up time vs lag through recovery::CatchupService.

struct CatchupRow {
  std::uint64_t lag = 0;           ///< commands the dead replica missed
  std::uint64_t max_retained = 0;  ///< peer's DeliveryLog retention cap
  std::uint64_t entries = 0;       ///< commands resent over the entry path
  std::uint64_t snapshots = 0;     ///< snapshot transfers (0 or 1 here)
  std::uint64_t messages = 0;      ///< total catch-up datagrams both ways
  double catchup_ms = 0;           ///< wall time from first pull to caught up
};

/// One server at `lag` applied commands (retention-capped log, already
/// GC'd), one empty client pulling over a direct in-process wire — the
/// deterministic core of what ReplicaGroup does over the transport, so the
/// row prices protocol work, not network jitter.
CatchupRow run_catchup(std::uint64_t lag, std::uint64_t max_retained,
                       common::Rng& rng) {
  CatchupRow row;
  row.lag = lag;
  row.max_retained = max_retained;

  abcast::DeliveryLog::Config retention;
  retention.max_retained = max_retained;

  struct Node {
    std::unique_ptr<recovery::DurableRsm> rsm;
    std::unique_ptr<abcast::DeliveryLog> log;
    std::unique_ptr<recovery::CatchupService> catchup;
  };
  Node nodes[2];
  struct Packet {
    ProcessId from;
    ProcessId to;
    std::string bytes;
  };
  std::vector<Packet> queue;
  for (ProcessId p = 0; p < 2; ++p) {
    nodes[p].rsm = std::make_unique<recovery::DurableRsm>(
        std::make_unique<core::KvStateMachine>(), nullptr);
    nodes[p].log = std::make_unique<abcast::DeliveryLog>(2, retention);
    nodes[p].catchup = std::make_unique<recovery::CatchupService>(
        p, 2, nodes[p].rsm.get(), nodes[p].log.get(),
        [p, &queue, &row](ProcessId to, std::string bytes) {
          ++row.messages;
          queue.push_back(Packet{p, to, std::move(bytes)});
        });
  }

  for (std::uint64_t i = 1; i <= lag; ++i) {
    const std::string cmd = core::kv_put("key-" + std::to_string(i % 64),
                                         std::to_string(rng.next_below(1000)));
    nodes[0].rsm->apply(i, cmd);
    nodes[0].log->append(cmd);
  }
  nodes[0].log->gc();  // enforce the cap, as the live ack ticks would

  const double t0 = now_s();
  nodes[1].catchup->start_recovery();
  nodes[1].catchup->poll_once();
  while (!queue.empty()) {
    Packet pkt = std::move(queue.front());
    queue.erase(queue.begin());
    nodes[pkt.to].catchup->on_message(pkt.from, pkt.bytes);
  }
  row.catchup_ms = (now_s() - t0) * 1e3;

  if (!nodes[1].catchup->caught_up() || nodes[1].rsm->applied() != lag) {
    std::fprintf(stderr, "catch-up failed to converge at lag %llu\n",
                 static_cast<unsigned long long>(lag));
    std::exit(1);
  }
  row.entries = nodes[1].catchup->entries_applied();
  row.snapshots = nodes[1].catchup->snapshots_installed();
  return row;
}

void run_catchup_table(ArtifactRows* rows, bool quick, std::uint64_t seed) {
  const std::uint64_t cap = quick ? 256 : 1024;
  const std::vector<std::uint64_t> lags =
      quick ? std::vector<std::uint64_t>{64, 256, 1024}
            : std::vector<std::uint64_t>{256, 1024, 4096, 16384, 65536};
  common::Rng rng(common::mix_seed(seed, "bench_recovery.catchup", 0.0, 0));

  std::printf("\n=== Catch-up: restarted replica vs lag (retention cap %llu) "
              "===\n",
              static_cast<unsigned long long>(cap));
  std::printf("%-10s %10s %10s %10s %12s\n", "lag", "entries", "snapshots",
              "messages", "catchup ms");
  for (const std::uint64_t lag : lags) {
    const CatchupRow row = run_catchup(lag, cap, rng);
    std::printf("%-10llu %10llu %10llu %10llu %12.3f\n",
                static_cast<unsigned long long>(row.lag),
                static_cast<unsigned long long>(row.entries),
                static_cast<unsigned long long>(row.snapshots),
                static_cast<unsigned long long>(row.messages), row.catchup_ms);
    rows->push_back({row.lag, row.max_retained, row.entries, row.snapshots,
                     row.messages, row.catchup_ms});
  }
  std::printf(
      "\n# While the lag fits the peer's retention window, catch-up is pure "
      "entry resend (cost\n"
      "# linear in the lag). Past the cap it flips to one snapshot transfer "
      "plus the retained\n"
      "# suffix — cost proportional to live state, not to how long the "
      "replica was dead.\n");
}

// ---------------------------------------------------------------------------

const ArtifactSchema kSchema{
    "zdc-bench-recovery-v1",
    "BENCH_recovery.json",
    {{"rows",
      {text_field("storage"), count_field("puts"), count_field("batch"),
       count_field("syncs"), real_field("puts_per_s", 1),
       real_field("reopen_ms", 4), count_field("records_recovered"),
       count_field("seed")}},
     {"catchup_rows",
      {count_field("lag"), count_field("max_retained"), count_field("entries"),
       count_field("snapshots"), count_field("messages"),
       real_field("catchup_ms", 4)}}}};

std::vector<ArtifactRows> produce(bool quick, std::uint64_t seed) {
  if (!quick) run_sequence_table();  // the protocol-level series (stdout only)

  std::vector<ArtifactRows> tables(2);  // rows, catchup_rows
  run_storage_table(&tables[0], quick, seed);
  run_catchup_table(&tables[1], quick, seed);
  return tables;
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) {
  return zdc::bench::bench_main(argc, argv, zdc::bench::kSchema,
                                zdc::bench::produce);
}
