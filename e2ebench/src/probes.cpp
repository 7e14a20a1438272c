#include "probes.h"

#include <utility>

#include "common/codec.h"
#include "service/session.h"

namespace e2e {

namespace {

std::uint64_t elapsed_ns(double t0_ms) {
  const double ns = (now_ms() - t0_ms) * 1e6;
  return ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Inner command of a DurableRsm write-ahead record ([u64 index][string
/// envelope]), or empty when the record is not a session request.
std::string inner_command(const std::string& record) {
  zdc::common::Decoder dec(record);
  static_cast<void>(dec.get_u64());
  const std::string framed = dec.get_string();
  if (!dec.done()) return {};
  zdc::rsm::Envelope env;
  if (!zdc::rsm::decode_envelope(framed, &env) ||
      env.kind != zdc::rsm::EnvelopeKind::kRequest) {
    return {};
  }
  return env.command;
}

class TimedFile final : public zdc::storage::WritableFile {
 public:
  TimedFile(std::unique_ptr<zdc::storage::WritableFile> inner,
            StorageStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  zdc::storage::Status append(std::string_view bytes) override {
    stats_->env_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    return inner_->append(bytes);
  }
  zdc::storage::Status sync() override {
    const double t0 = now_ms();
    zdc::storage::Status s = inner_->sync();
    stats_->fsync_ms.add(now_ms() - t0);
    stats_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

 private:
  std::unique_ptr<zdc::storage::WritableFile> inner_;
  StorageStats* stats_;
};

}  // namespace

void Ledger::submit(const std::string& command, double t) {
  zdc::common::MutexLock lock(mu_);
  ops_[command].submit = t;
}

void Ledger::reply(const std::string& command, double t) {
  zdc::common::MutexLock lock(mu_);
  const auto it = ops_.find(command);
  if (it != ops_.end()) it->second.reply = t;
}

std::size_t Ledger::slot_locked() {
  const auto [it, fresh] =
      slots_.emplace(std::this_thread::get_id(), slots_.size());
  static_cast<void>(fresh);
  return it->second;
}

void Ledger::stamp(const std::string& command, Seam seam, double t) {
  zdc::common::MutexLock lock(mu_);
  const auto it = ops_.find(command);
  if (it == ops_.end()) return;
  const std::size_t slot = slot_locked();
  if (slot >= kMaxSlots) return;
  OpStamps& op = it->second;
  double* field = nullptr;
  switch (seam) {
    case Seam::kDeliver: field = &op.deliver[slot]; break;
    case Seam::kSynced: field = &op.synced[slot]; break;
    case Seam::kApplyBegin: field = &op.apply_begin[slot]; break;
    case Seam::kApplyEnd: field = &op.apply_end[slot]; break;
  }
  // First stamp wins: a retried envelope re-enters the WAL as a duplicate.
  if (*field < 0.0) *field = t;
}

std::vector<OpStamps> Ledger::take() {
  zdc::common::MutexLock lock(mu_);
  std::vector<OpStamps> out;
  out.reserve(ops_.size());
  for (auto& [command, op] : ops_) out.push_back(op);
  ops_.clear();
  return out;
}

std::string TimedKv::apply(const std::string& command) {
  const double t0 = now_ms();
  std::string result = kv_.apply(command);
  const double t1 = now_ms();
  apply_us_->add((t1 - t0) * 1e3);
  ledger_->stamp(command, Ledger::Seam::kApplyBegin, t0);
  ledger_->stamp(command, Ledger::Seam::kApplyEnd, t1);
  return result;
}

std::string TimedKv::apply_read(const std::string& query) const {
  const double t0 = now_ms();
  std::string result = kv_.apply_read(query);
  apply_us_->add((now_ms() - t0) * 1e3);
  return result;
}

void TimedStorage::account(const std::string& key, std::size_t bytes,
                           double t0) {
  stats_->put_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (key == "rsm/state") {
    stats_->checkpoint_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  stats_->busy_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
}

void TimedStorage::put(const std::string& key, std::string bytes) {
  const double t0 = now_ms();
  const std::size_t size = bytes.size();
  inner_->put(key, std::move(bytes));
  account(key, size, t0);
}

void TimedStorage::put_nosync(const std::string& key, std::string bytes) {
  const double t0 = now_ms();
  staged_command_ = inner_command(bytes);
  if (!staged_command_.empty()) {
    ledger_->stamp(staged_command_, Ledger::Seam::kDeliver, t0);
  }
  const std::size_t size = bytes.size();
  inner_->put_nosync(key, std::move(bytes));
  account(key, size, t0);
}

void TimedStorage::sync() {
  const double t0 = now_ms();
  inner_->sync();
  stats_->busy_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  if (!staged_command_.empty()) {
    ledger_->stamp(staged_command_, Ledger::Seam::kSynced, now_ms());
    staged_command_.clear();
  }
}

zdc::storage::Status TimedEnv::new_writable(
    const std::string& path, bool truncate,
    std::unique_ptr<zdc::storage::WritableFile>* out) {
  std::unique_ptr<zdc::storage::WritableFile> file;
  zdc::storage::Status s = base_.new_writable(path, truncate, &file);
  if (s.is_ok()) *out = std::make_unique<TimedFile>(std::move(file), stats_);
  return s;
}

}  // namespace e2e
