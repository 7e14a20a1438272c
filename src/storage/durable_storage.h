// Durable StableStorage backed by the segmented WAL.
//
// This is the disk-backed implementation the interface comment in
// common/stable_storage.h promises: put() appends a CRC-framed key/value
// record to the WAL and issues the durability barrier before returning, so a
// recovering Paxos acceptor really does find its promises after kill -9. The
// put_nosync()/sync() split exposes group commit — N staged records ride one
// fsync — and sync_count() stays the recovery-cost metric the paper's
// evaluation prices (WAL fsyncs plus snapshot fsyncs).
//
// Compaction (snapshot + log truncation) keeps recovery O(state), not
// O(history):
//   1. roll the WAL to a fresh segment C;
//   2. write the full key/value map as one CRC-framed blob to snap-<C>.tmp,
//      sync it, and atomically rename to snap-<C> — the rename is the commit
//      point, so a crash anywhere leaves either the old snapshot or the new
//      one, never a half-written one;
//   3. delete older snapshots and every segment below C.
// On open the highest snap-<k> is loaded and segments >= k are replayed over
// it; leftovers from a crash mid-compaction (stale .tmp files, segments
// below k) are swept. A damaged snapshot or a bad frame in a synced segment
// is Status::corruption — recovery fails loudly rather than inventing state.
//
// Errors are sticky: the first non-ok Status latches, every later mutation
// becomes a no-op, and last_status() reports it. Under a FaultyEnv crash
// point this is exactly "the process died mid-write" — the harness reopens
// the storage and asserts the recovered state is a legal prefix.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stable_storage.h"
#include "common/thread_annotations.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace zdc::storage {

struct DurableStorageOptions {
  std::uint64_t segment_bytes = 64 * 1024;
  /// Auto-compact once this many WAL bytes accumulate since the last
  /// compaction; 0 disables auto-compaction (tests call compact() directly).
  std::uint64_t compact_after_bytes = 0;
};

class DurableStableStorage final : public common::StableStorage {
 public:
  /// Opens (creating if needed) the store in `dir`: loads the newest
  /// snapshot, replays the WAL tail over it per the torn-tail rule, and
  /// sweeps half-committed compaction leftovers. `env` must outlive the
  /// returned object.
  [[nodiscard]] static Status open(Env& env, std::string dir,
                                   DurableStorageOptions options,
                                   std::unique_ptr<DurableStableStorage>* out,
                                   WalRecoveryInfo* info = nullptr);

  // common::StableStorage
  void put(const std::string& key, std::string bytes) override;
  void put_nosync(const std::string& key, std::string bytes) override;
  void sync() override;
  [[nodiscard]] std::optional<std::string> get(
      const std::string& key) const override;
  [[nodiscard]] std::uint64_t sync_count() const override;

  /// Snapshot + log truncation (see header comment). Safe to call any time;
  /// sticky-errors like every other mutation.
  [[nodiscard]] Status compact();

  /// First error any operation hit, or ok. Mutations after an error are
  /// no-ops — the simulated process is dead and the harness decides when to
  /// "reboot" by reopening the storage.
  [[nodiscard]] Status last_status() const;

  /// WAL bytes appended since open (compaction-trigger observable).
  [[nodiscard]] std::uint64_t wal_appended_bytes() const;

  /// "snap-<zero-padded index>" / its inverse (false if not a snapshot, or
  /// a .tmp leftover).
  static std::string snapshot_name(std::uint64_t index);
  static bool parse_snapshot_name(const std::string& name,
                                  std::uint64_t* index);

 private:
  DurableStableStorage(Env& env, std::string dir,
                       DurableStorageOptions options) noexcept
      : env_(env), dir_(std::move(dir)), options_(options) {}

  void append_record_locked(const std::string& key, const std::string& bytes)
      ZDC_REQUIRES(mu_);
  Status compact_locked() ZDC_REQUIRES(mu_);
  /// Latches the first non-ok status; returns it for chaining.
  Status latch_locked(Status s) ZDC_REQUIRES(mu_);

  Env& env_;
  const std::string dir_;
  const DurableStorageOptions options_;

  mutable common::Mutex mu_;
  std::unique_ptr<Wal> wal_ ZDC_GUARDED_BY(mu_);
  std::map<std::string, std::string> data_ ZDC_GUARDED_BY(mu_);
  Status status_ ZDC_GUARDED_BY(mu_);
  /// fsyncs outside the WAL (snapshot files); sync_count() adds the WAL's.
  std::uint64_t extra_syncs_ ZDC_GUARDED_BY(mu_) = 0;
  std::uint64_t bytes_at_last_compact_ ZDC_GUARDED_BY(mu_) = 0;
};

/// Per-process MemEnvs standing in for disks: they outlive crashes and
/// restarts, and factory() opens a DurableStableStorage over process p's
/// (replaying its WAL) each time it is called — a kill-9 reboot in memory.
class MemDisks {
 public:
  explicit MemDisks(std::uint32_t n, DurableStorageOptions options = {});
  [[nodiscard]] common::StorageFactory factory();
  [[nodiscard]] MemEnv& env(ProcessId p) { return *envs_[p]; }

 private:
  const DurableStorageOptions options_;
  std::vector<std::unique_ptr<MemEnv>> envs_;
};

}  // namespace zdc::storage
