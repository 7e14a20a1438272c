// Stable storage for the crash-recovery model (paper Sec. 2, citing
// Aguilera et al.: "Paxos-like protocols allow for the recovery of crashed
// processes"). A recovering process keeps its promises only if it wrote them
// down before acting on them — this interface is the write-ahead contract,
// and the sync counter is what the recovery tests and benches use to price
// it.
//
// The in-memory implementation survives *simulated* process restarts (the
// object outlives the protocol instance); a disk-backed implementation would
// fsync in sync() — the counting is what matters for evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace zdc::common {

class StableStorage {
 public:
  virtual ~StableStorage() = default;

  /// Durably records key := bytes. Counts one synchronous write.
  virtual void put(const std::string& key, std::string bytes) = 0;
  virtual std::optional<std::string> get(const std::string& key) const = 0;

  /// Stages key := bytes without the durability barrier: the write is
  /// visible to get() (own-writes / page-cache semantics) but a crash before
  /// the next sync() may lose it. The group-commit primitive — N stages plus
  /// one sync() cost one synchronous write instead of N. The default
  /// forwards to put(), so implementations that predate the split keep their
  /// every-write-durable semantics.
  virtual void put_nosync(const std::string& key, std::string bytes) {
    put(key, std::move(bytes));
  }

  /// Durability barrier for staged writes. Counts one synchronous write iff
  /// anything was staged. Default no-op matches the put_nosync() default
  /// (every put already synced).
  virtual void sync() {}

  /// Number of synchronous writes performed (the cost of recovery safety).
  [[nodiscard]] virtual std::uint64_t sync_count() const = 0;
};

/// Storage that survives simulated crashes (the harness owns it; protocol
/// instances come and go). Internally synchronized: on the threaded runtime
/// the protocol writes from its delivery thread while harnesses poll
/// sync_count() from the test thread.
class InMemoryStableStorage final : public StableStorage {
 public:
  void put(const std::string& key, std::string bytes) override {
    MutexLock lock(mu_);
    data_[key] = std::move(bytes);
    ++syncs_;
  }
  std::optional<std::string> get(const std::string& key) const override {
    MutexLock lock(mu_);
    // Own writes are visible before the barrier (page-cache semantics).
    const auto staged = pending_.find(key);
    if (staged != pending_.end()) return staged->second;
    const auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }
  void put_nosync(const std::string& key, std::string bytes) override {
    MutexLock lock(mu_);
    pending_[key] = std::move(bytes);
  }
  void sync() override {
    MutexLock lock(mu_);
    if (pending_.empty()) return;
    for (auto& [key, bytes] : pending_) data_[key] = std::move(bytes);
    pending_.clear();
    ++syncs_;
  }
  [[nodiscard]] std::uint64_t sync_count() const override {
    MutexLock lock(mu_);
    return syncs_;
  }

 private:
  mutable Mutex mu_;
  std::map<std::string, std::string> data_ ZDC_GUARDED_BY(mu_);
  /// Writes staged by put_nosync(), not yet covered by a sync().
  std::map<std::string, std::string> pending_ ZDC_GUARDED_BY(mu_);
  std::uint64_t syncs_ ZDC_GUARDED_BY(mu_) = 0;
};

/// Builds the stable storage for one process. Harnesses call it once per
/// process and keep the result across simulated crash/restart cycles —
/// storage is the part of a process that survives; the protocol instance is
/// the part that does not. RunOptions::storage_factory carries one of these
/// into every harness (obs/run_options.h).
using StorageFactory =
    std::function<std::unique_ptr<StableStorage>(ProcessId)>;

}  // namespace zdc::common
