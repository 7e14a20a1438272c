#include "storage/durable_storage.h"

#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/codec.h"

// zdc-analyze: allow-file(blocking-under-lock): group commit IS fsync under mu_ — concurrent put()s queue on the mutex and ride the leader's sync; moving the fsync outside would need a promise/epoch scheme for zero benefit at this write volume (bench_recovery pins the cost)

namespace zdc::storage {

namespace {

/// WAL record payload: length-prefixed key then length-prefixed value.
std::string encode_kv(const std::string& key, const std::string& bytes) {
  common::Encoder enc(8 + key.size() + bytes.size());
  enc.put_string(key);
  enc.put_string(bytes);
  return enc.take();
}

bool decode_kv(std::string_view payload, std::string* key, std::string* bytes) {
  common::Decoder dec(payload);
  *key = dec.get_string();
  *bytes = dec.get_string();
  return dec.done();
}

/// Snapshot payload: count, then count key/value pairs.
std::string encode_snapshot(const std::map<std::string, std::string>& data) {
  common::Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(data.size()));
  for (const auto& [key, bytes] : data) {
    enc.put_string(key);
    enc.put_string(bytes);
  }
  return enc.take();
}

bool decode_snapshot(std::string_view payload,
                     std::map<std::string, std::string>* data) {
  data->clear();
  common::Decoder dec(payload);
  const std::uint32_t count = dec.get_u32();
  for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
    std::string key = dec.get_string();
    std::string bytes = dec.get_string();
    (*data)[std::move(key)] = std::move(bytes);
  }
  return dec.done();
}

}  // namespace

std::string DurableStableStorage::snapshot_name(std::uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "snap-" + digits;
}

bool DurableStableStorage::parse_snapshot_name(const std::string& name,
                                               std::uint64_t* index) {
  if (name.rfind("snap-", 0) != 0) return false;
  if (name.size() < 6) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

Status DurableStableStorage::open(Env& env, std::string dir,
                                  DurableStorageOptions options,
                                  std::unique_ptr<DurableStableStorage>* out,
                                  WalRecoveryInfo* info) {
  Status s = env.create_dir(dir);
  if (!s.is_ok()) return s;

  std::vector<std::string> names;
  s = env.list_dir(dir, &names);
  if (!s.is_ok()) return s;

  // A crash mid-compaction leaves snap-*.tmp (never committed — the rename
  // is the commit point) and possibly an older snapshot next to the new one.
  std::uint64_t snap_index = 0;
  bool have_snap = false;
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      s = env.remove_file(join_path(dir, name));
      if (!s.is_ok()) return s;
      continue;
    }
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, &index)) {
      if (!have_snap || index > snap_index) snap_index = index;
      have_snap = true;
    }
  }

  auto store = std::unique_ptr<DurableStableStorage>(
      new DurableStableStorage(env, std::move(dir), options));
  common::MutexLock lock(store->mu_);

  if (have_snap) {
    const std::string path =
        join_path(store->dir_, snapshot_name(snap_index));
    std::string contents;
    s = env.read_file(path, &contents);
    if (!s.is_ok()) return s;
    std::string_view payload;
    std::uint64_t next = 0;
    if (!Wal::parse_frame(contents, 0, &payload, &next) ||
        next != contents.size()) {
      return Status::corruption("snapshot " + path + " failed its checksum");
    }
    if (!decode_snapshot(payload, &store->data_)) {
      return Status::corruption("snapshot " + path + " has a malformed body");
    }
    // The newer snapshot subsumes older ones that a crash left behind.
    for (const std::string& name : names) {
      std::uint64_t index = 0;
      if (parse_snapshot_name(name, &index) && index < snap_index) {
        s = env.remove_file(join_path(store->dir_, name));
        if (!s.is_ok()) return s;
      }
    }
  }

  WalOptions wal_options;
  wal_options.segment_bytes = options.segment_bytes;
  const auto replay = [&store](std::uint64_t segment,
                               std::string_view payload) {
    std::string key;
    std::string bytes;
    if (!decode_kv(payload, &key, &bytes)) {
      return Status::corruption("malformed record in segment " +
                                std::to_string(segment));
    }
    store->data_[std::move(key)] = std::move(bytes);
    return Status::ok();
  };
  s = Wal::open(env, store->dir_, wal_options,
                have_snap ? snap_index : 0, replay, &store->wal_, info);
  if (!s.is_ok()) return s;

  *out = std::move(store);
  return Status::ok();
}

Status DurableStableStorage::latch_locked(Status s) {
  if (status_.is_ok() && !s.is_ok()) status_ = s;
  return s;
}

void DurableStableStorage::append_record_locked(const std::string& key,
                                                const std::string& bytes) {
  if (!status_.is_ok()) return;
  if (!latch_locked(wal_->append(encode_kv(key, bytes))).is_ok()) return;
  data_[key] = bytes;
  if (options_.compact_after_bytes > 0 &&
      wal_->appended_bytes() - bytes_at_last_compact_ >=
          options_.compact_after_bytes) {
    // zdc-analyze: allow(discarded-status): compaction failure latches into status_ inside compact_locked; the append already succeeded and must not be reported as failed
    compact_locked();
  }
}

void DurableStableStorage::put(const std::string& key, std::string bytes) {
  common::MutexLock lock(mu_);
  append_record_locked(key, bytes);
  // zdc-analyze: allow(discarded-status): latch_locked stores the Status in status_ (sticky); put() reports failures through the latched getter, not a return value
  if (status_.is_ok()) latch_locked(wal_->sync());
}

void DurableStableStorage::put_nosync(const std::string& key,
                                      std::string bytes) {
  common::MutexLock lock(mu_);
  append_record_locked(key, bytes);
}

void DurableStableStorage::sync() {
  common::MutexLock lock(mu_);
  if (!status_.is_ok()) return;
  // zdc-analyze: allow(discarded-status): latch_locked stores the Status in status_ (sticky); sync() surfaces failures through the latched getter
  latch_locked(wal_->sync());
}

std::optional<std::string> DurableStableStorage::get(
    const std::string& key) const {
  common::MutexLock lock(mu_);
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t DurableStableStorage::sync_count() const {
  common::MutexLock lock(mu_);
  return wal_->syncs() + extra_syncs_;
}

Status DurableStableStorage::compact() {
  common::MutexLock lock(mu_);
  if (!status_.is_ok()) return status_;
  return compact_locked();
}

Status DurableStableStorage::compact_locked() {
  // Step 1: fresh segment. Everything below it is covered by the snapshot
  // we are about to commit; the roll also syncs the outgoing segment.
  Status s = latch_locked(wal_->roll());
  if (!s.is_ok()) return s;
  const std::uint64_t index = wal_->current_segment();

  // Step 2: write, sync, and atomically commit the snapshot.
  const std::string tmp_path =
      join_path(dir_, snapshot_name(index) + ".tmp");
  const std::string final_path = join_path(dir_, snapshot_name(index));
  std::unique_ptr<WritableFile> file;
  s = latch_locked(env_.new_writable(tmp_path, /*truncate=*/true, &file));
  if (!s.is_ok()) return s;
  s = latch_locked(file->append(Wal::encode_frame(encode_snapshot(data_))));
  if (!s.is_ok()) return s;
  s = latch_locked(file->sync());
  if (!s.is_ok()) return s;
  ++extra_syncs_;
  s = latch_locked(env_.rename_file(tmp_path, final_path));
  if (!s.is_ok()) return s;

  // Step 3: sweep what the snapshot subsumes. A crash in here is harmless —
  // open() finishes the sweep.
  std::vector<std::string> names;
  s = latch_locked(env_.list_dir(dir_, &names));
  if (!s.is_ok()) return s;
  for (const std::string& name : names) {
    std::uint64_t old_index = 0;
    if (parse_snapshot_name(name, &old_index) && old_index < index) {
      s = latch_locked(env_.remove_file(join_path(dir_, name)));
      if (!s.is_ok()) return s;
    }
  }
  s = latch_locked(wal_->drop_segments_below(index));
  if (!s.is_ok()) return s;

  bytes_at_last_compact_ = wal_->appended_bytes();
  return Status::ok();
}

Status DurableStableStorage::last_status() const {
  common::MutexLock lock(mu_);
  return status_;
}

std::uint64_t DurableStableStorage::wal_appended_bytes() const {
  common::MutexLock lock(mu_);
  return wal_->appended_bytes();
}

MemDisks::MemDisks(std::uint32_t n, DurableStorageOptions options)
    : options_(options) {
  for (std::uint32_t p = 0; p < n; ++p) {
    envs_.push_back(std::make_unique<MemEnv>());
  }
}

common::StorageFactory MemDisks::factory() {
  return [this](ProcessId p) -> std::unique_ptr<common::StableStorage> {
    std::unique_ptr<DurableStableStorage> store;
    const Status s = DurableStableStorage::open(*envs_[p], "db", options_,
                                                &store);
    ZDC_ASSERT_MSG(s.is_ok(), "WAL reopen failed");
    return store;
  };
}

}  // namespace zdc::storage
