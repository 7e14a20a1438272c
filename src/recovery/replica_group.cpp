#include "recovery/replica_group.h"

#include <utility>

#include "common/assert.h"

namespace zdc::recovery {

ReplicaGroup::ReplicaGroup(const zdc::RunOptions& opts,
                           MachineFactory make_machine, Config cfg)
    : n_(opts.group.n), cfg_(std::move(cfg)),
      make_machine_(std::move(make_machine)) {
  ZDC_ASSERT(make_machine_ != nullptr);
  auto cluster_cfg = runtime::RuntimeCluster::Config::from_options(opts);
  cluster_cfg.kind = cfg_.kind;
  cluster_cfg.transport = cfg_.transport;
  cluster_ = std::make_unique<runtime::RuntimeCluster>(
      std::move(cluster_cfg),
      [this](ProcessId p, const abcast::AppMessage& m) {
        on_deliver(p, m.payload);
      });
  std::vector<std::shared_ptr<Replica>> built;
  built.reserve(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    built.push_back(build_replica(p, cluster_->storage(p)));
  }
  {
    common::MutexLock lock(mu_);
    replicas_ = std::move(built);
  }
  for (ProcessId p = 0; p < n_; ++p) {
    cluster_->node(p).set_catchup_handler(
        [this, p](const runtime::Delivery& d) {
          const std::shared_ptr<Replica> r = replica(p);
          if (r != nullptr) r->catchup->on_message(d.from, d.bytes);
        });
  }
}

ReplicaGroup::~ReplicaGroup() { shutdown(); }

void ReplicaGroup::start() {
  cluster_->start();
  for (ProcessId p = 0; p < n_; ++p) schedule_ack_beacon(p);
}

void ReplicaGroup::shutdown() { cluster_->shutdown(); }

void ReplicaGroup::submit(ProcessId p, std::string command) {
  cluster_->node(p).a_broadcast(std::move(command));
}

void ReplicaGroup::crash(ProcessId p) { cluster_->crash(p); }

std::uint64_t ReplicaGroup::restart(ProcessId p) {
  ZDC_ASSERT(cluster_->network().crashed(p));
  // Reboot the disk stack first: reopening through the kept factory is the
  // WAL replay (the factory hands back a DurableStableStorage over the same
  // Env the dead incarnation wrote).
  common::StableStorage* storage = cluster_->reopen_storage(p);
  const std::shared_ptr<Replica> fresh = build_replica(p, storage);
  const std::uint64_t recovered = fresh->rsm->applied();
  fresh->recovering.store(true, std::memory_order_release);
  fresh->catchup->start_recovery();
  {
    // Swap before the transport comes back so every handler that fires on
    // the new incarnation sees the new replica.
    common::MutexLock lock(mu_);
    replicas_[p] = fresh;
  }
  cluster_->network().restart(p);
  schedule_ack_beacon(p);
  schedule_recovery_poll(p);
  return recovered;
}

std::uint64_t ReplicaGroup::applied(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r == nullptr ? 0 : r->rsm->applied();
}

bool ReplicaGroup::recovering(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r != nullptr && r->recovering.load(std::memory_order_acquire);
}

bool ReplicaGroup::caught_up(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r != nullptr && r->catchup->caught_up();
}

std::uint64_t ReplicaGroup::snapshots_installed(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r == nullptr ? 0 : r->catchup->snapshots_installed();
}

std::string ReplicaGroup::digest(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  ZDC_ASSERT(r != nullptr);
  return r->rsm->machine().snapshot();
}

core::StateMachine* ReplicaGroup::machine(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r == nullptr ? nullptr : &r->rsm->machine();
}

DurableRsm* ReplicaGroup::rsm(ProcessId p) const {
  const std::shared_ptr<Replica> r = replica(p);
  return r == nullptr ? nullptr : r->rsm.get();
}

std::shared_ptr<ReplicaGroup::Replica> ReplicaGroup::replica(
    ProcessId p) const {
  common::MutexLock lock(mu_);
  return p < replicas_.size() ? replicas_[p] : nullptr;
}

std::shared_ptr<ReplicaGroup::Replica> ReplicaGroup::build_replica(
    ProcessId p, common::StableStorage* storage) {
  auto r = std::make_shared<Replica>();
  r->rsm = std::make_unique<DurableRsm>(make_machine_(p), storage, cfg_.rsm);
  ZDC_ASSERT_MSG(r->rsm->recover(), "corrupt checkpoint on recovery");
  r->log = std::make_unique<abcast::DeliveryLog>(n_, cfg_.retention);
  r->log->reset_to(r->rsm->applied() + 1);
  r->catchup = std::make_unique<CatchupService>(
      p, n_, r->rsm.get(), r->log.get(),
      [this, p](ProcessId to, std::string bytes) {
        cluster_->network().send(runtime::Channel::kCatchup, p, to,
                                 std::move(bytes));
      },
      cfg_.catchup);
  return r;
}

void ReplicaGroup::on_deliver(ProcessId p, const std::string& payload) {
  const std::shared_ptr<Replica> r = replica(p);
  if (r == nullptr) return;
  // A recovering replica's live stream has a hole (everything a-delivered
  // while it was down); the catch-up pull owns its apply sequence instead.
  if (r->recovering.load(std::memory_order_acquire)) return;
  const std::uint64_t index = r->rsm->applied() + 1;
  static_cast<void>(r->rsm->apply(index, payload));
  const std::uint64_t assigned = r->log->append(payload);
  ZDC_ASSERT(assigned == index);
}

void ReplicaGroup::schedule_ack_beacon(ProcessId p) {
  // Self-rescheduling worker-thread timer: dies with the incarnation
  // (schedule() no-ops while crashed; restart() re-arms).
  cluster_->network().schedule(p, cfg_.ack_interval_ms, [this, p] {
    const std::shared_ptr<Replica> r = replica(p);
    if (r != nullptr) r->catchup->announce_ack();
    schedule_ack_beacon(p);
  });
}

void ReplicaGroup::schedule_recovery_poll(ProcessId p) {
  cluster_->network().schedule(p, cfg_.poll_interval_ms, [this, p] {
    const std::shared_ptr<Replica> r = replica(p);
    if (r == nullptr || !r->recovering.load(std::memory_order_acquire)) {
      return;
    }
    r->catchup->poll_once();
    schedule_recovery_poll(p);
  });
}

}  // namespace zdc::recovery
