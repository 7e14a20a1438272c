// Traced-mode probes: decorators timed from outside, at the seams the stack
// already offers.
//   * TimedKv wraps core::KvStateMachine (ServiceGroup's InnerFactory) and
//     times every apply / apply_read;
//   * TimedStorage wraps the StableStorage a RunOptions::storage_factory
//     builds (DurableStableStorage here): it sees the write-ahead record of
//     every a-delivered command, so it stamps the command's arrival at the
//     replica, its WAL sync and the bytes each key class writes;
//   * TimedEnv wraps the storage Env (PosixEnv or MemEnv) and times every
//     real fsync;
//   * Ledger collects, per client write, the stamps of each seam: submit,
//     a-delivery (WAL record staged), sync end, apply begin/end per
//     replica, and the reply. The replica is identified by the worker
//     thread the stamp comes from.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/stable_storage.h"
#include "common/thread_annotations.h"
#include "core/kv_store.h"
#include "storage/env.h"
#include "util.h"

namespace e2e {

constexpr std::size_t kMaxSlots = 8;

/// Per-write seam stamps (now_ms(); negative = not seen).
struct OpStamps {
  double submit = -1.0;
  double reply = -1.0;
  std::array<double, kMaxSlots> deliver{};  ///< WAL record staged
  std::array<double, kMaxSlots> synced{};   ///< WAL sync returned
  std::array<double, kMaxSlots> apply_begin{};
  std::array<double, kMaxSlots> apply_end{};
  OpStamps() {
    deliver.fill(-1.0);
    synced.fill(-1.0);
    apply_begin.fill(-1.0);
    apply_end.fill(-1.0);
  }
};

class Ledger {
 public:
  enum class Seam { kDeliver, kSynced, kApplyBegin, kApplyEnd };

  /// Client side: the command (unique per write) and its timing.
  void submit(const std::string& command, double t);
  void reply(const std::string& command, double t);
  /// Replica side, from the calling worker thread; unknown commands (reads,
  /// barriers, preload) are ignored.
  void stamp(const std::string& command, Seam seam, double t);

  /// Moves the collected stamps out (call once the workload has stopped).
  [[nodiscard]] std::vector<OpStamps> take();

 private:
  std::size_t slot_locked() ZDC_REQUIRES(mu_);

  zdc::common::Mutex mu_;
  std::unordered_map<std::string, OpStamps> ops_ ZDC_GUARDED_BY(mu_);
  std::map<std::thread::id, std::size_t> slots_ ZDC_GUARDED_BY(mu_);
};

/// KvStateMachine with every apply and read timed (µs samples) and its
/// writes stamped into the ledger.
class TimedKv final : public zdc::core::StateMachine {
 public:
  TimedKv(Ledger* ledger, SharedSamples* apply_us)
      : ledger_(ledger), apply_us_(apply_us) {}

  std::string apply(const std::string& command) override;
  [[nodiscard]] std::string snapshot() const override { return kv_.snapshot(); }
  [[nodiscard]] std::string serialize() const override {
    return kv_.serialize();
  }
  [[nodiscard]] bool restore(const std::string& image) override {
    return kv_.restore(image);
  }
  [[nodiscard]] std::string apply_read(const std::string& query) const override;

  [[nodiscard]] const zdc::core::KvStateMachine& kv() const { return kv_; }

 private:
  zdc::core::KvStateMachine kv_;
  Ledger* ledger_;
  SharedSamples* apply_us_;
};

/// Totals every TimedStorage and TimedEnv of one stack adds to.
struct StorageStats {
  std::atomic<std::uint64_t> fsyncs{0};
  std::atomic<std::uint64_t> env_bytes{0};
  std::atomic<std::uint64_t> put_bytes{0};
  std::atomic<std::uint64_t> checkpoint_bytes{0};
  std::atomic<std::uint64_t> busy_ns{0};  ///< inside any storage call
  SharedSamples fsync_ms;
};

class TimedStorage final : public zdc::common::StableStorage {
 public:
  TimedStorage(std::unique_ptr<zdc::common::StableStorage> inner,
               StorageStats* stats, Ledger* ledger)
      : inner_(std::move(inner)), stats_(stats), ledger_(ledger) {}

  void put(const std::string& key, std::string bytes) override;
  void put_nosync(const std::string& key, std::string bytes) override;
  void sync() override;
  [[nodiscard]] std::optional<std::string> get(
      const std::string& key) const override {
    return inner_->get(key);
  }
  [[nodiscard]] std::uint64_t sync_count() const override {
    return inner_->sync_count();
  }

 private:
  void account(const std::string& key, std::size_t bytes, double t0);

  std::unique_ptr<zdc::common::StableStorage> inner_;
  StorageStats* stats_;
  Ledger* ledger_;
  /// Inner command of the record staged last (worker thread only: the
  /// owning replica stages and syncs on its delivery thread).
  std::string staged_command_;
};

/// Env whose files count appended bytes and time every sync (fsync).
class TimedEnv final : public zdc::storage::Env {
 public:
  TimedEnv(zdc::storage::Env& base, StorageStats* stats)
      : base_(base), stats_(stats) {}

  [[nodiscard]] zdc::storage::Status create_dir(
      const std::string& dir) override {
    return base_.create_dir(dir);
  }
  [[nodiscard]] zdc::storage::Status list_dir(
      const std::string& dir, std::vector<std::string>* names) override {
    return base_.list_dir(dir, names);
  }
  [[nodiscard]] bool file_exists(const std::string& path) override {
    return base_.file_exists(path);
  }
  [[nodiscard]] zdc::storage::Status read_file(const std::string& path,
                                               std::string* contents) override {
    return base_.read_file(path, contents);
  }
  [[nodiscard]] zdc::storage::Status new_writable(
      const std::string& path, bool truncate,
      std::unique_ptr<zdc::storage::WritableFile>* out) override;
  [[nodiscard]] zdc::storage::Status truncate_file(
      const std::string& path, std::uint64_t size) override {
    return base_.truncate_file(path, size);
  }
  [[nodiscard]] zdc::storage::Status rename_file(
      const std::string& from, const std::string& to) override {
    return base_.rename_file(from, to);
  }
  [[nodiscard]] zdc::storage::Status remove_file(
      const std::string& path) override {
    return base_.remove_file(path);
  }

 private:
  zdc::storage::Env& base_;
  StorageStats* stats_;
};

}  // namespace e2e
