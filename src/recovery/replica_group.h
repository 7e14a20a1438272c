// The full durable replicated-state-machine stack on the threaded runtime:
// RuntimeCluster (consensus + atomic broadcast) x DurableRsm (write-ahead
// applies over RunOptions::storage_factory) x DeliveryLog (decided-instance
// retention) x CatchupService (peer recovery over Channel::kCatchup).
//
// One ReplicaGroup is n replicas of one StateMachine. Live replicas apply
// the a-delivery stream through their DurableRsm and retain commands in
// their DeliveryLog; everyone broadcasts applied-watermark acks that drive
// commit-tracking GC. crash(p) kills a replica (transport silence; its
// storage object survives, like a disk). restart(p) is the kill-9 reboot:
// the storage is reopened through the cluster's kept factory (for
// DurableStableStorage that is the WAL replay), a fresh DurableRsm recovers
// the applied prefix, and a CatchupService in recovery mode pulls the rest
// from peers — entries while retained, snapshot transfer after GC. A
// restarted replica is a lame duck: it no longer applies live protocol
// deliveries (its stream has a hole) and instead converges by pulling; once
// the workload quiesces its digest is byte-equal with the live replicas
// (the end-to-end assertion in catchup_test).
//
// Threading: submit/crash/restart/applied/recovering are callable from the
// harness thread; digest()/machine access only once delivery has quiesced.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/delivery_log.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/run_options.h"
#include "recovery/catchup.h"
#include "recovery/durable_rsm.h"
#include "runtime/runtime_node.h"

namespace zdc::recovery {

class ReplicaGroup {
 public:
  /// Builds one replica's (empty) state machine; called n times at
  /// construction and once per restart. Receives the owning replica's id so
  /// layers above (rsm::ServiceGroup) can hang per-replica hooks — state
  /// must NOT depend on it (every replica applies the same stream).
  using MachineFactory =
      std::function<std::unique_ptr<core::StateMachine>(ProcessId)>;

  struct Config {
    runtime::ProtocolKind kind = runtime::ProtocolKind::kCAbcastL;
    /// Which transport the cluster builds; kSim runs the whole group
    /// single-threaded in virtual time (RuntimeCluster::sim()).
    runtime::RuntimeCluster::TransportKind transport =
        runtime::RuntimeCluster::TransportKind::kInproc;
    DurableRsm::Config rsm;
    abcast::DeliveryLog::Config retention;
    CatchupService::Config catchup;  ///< metrics/now_ms ride here
    double ack_interval_ms = 5.0;    ///< applied-watermark beacon period
    double poll_interval_ms = 5.0;   ///< recovery pull period
  };

  /// `opts.storage_factory` is what makes the stack durable — it flows
  /// through RuntimeCluster::Config::from_options into per-process storages
  /// that survive crash(p) and replay on restart(p).
  ReplicaGroup(const zdc::RunOptions& opts, MachineFactory make_machine)
      : ReplicaGroup(opts, std::move(make_machine), Config()) {}
  ReplicaGroup(const zdc::RunOptions& opts, MachineFactory make_machine,
               Config cfg);
  ~ReplicaGroup();

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  void start();
  void shutdown();

  /// Replicates one command via replica p (any thread).
  void submit(ProcessId p, std::string command);

  /// Transport crash: p goes silent. Its storage object survives.
  void crash(ProcessId p);

  /// Kill-9 reboot of p: reopens its storage through the kept factory,
  /// recovers the WAL prefix into a fresh machine, rejoins the transport
  /// and starts catch-up. Returns the recovered applied prefix. Call only
  /// after crash(p) has settled (in-flight handlers drained).
  std::uint64_t restart(ProcessId p);

  [[nodiscard]] std::uint64_t applied(ProcessId p) const;
  [[nodiscard]] bool recovering(ProcessId p) const;
  [[nodiscard]] bool caught_up(ProcessId p) const;
  [[nodiscard]] std::uint64_t snapshots_installed(ProcessId p) const;

  /// Machine digest / full state; only once delivery has quiesced.
  [[nodiscard]] std::string digest(ProcessId p) const;

  /// Replica p's live state machine. Read-only access is safe from p's own
  /// worker thread (where applies happen) or once delivery has quiesced;
  /// the pointer itself is stable until the next restart(p).
  [[nodiscard]] core::StateMachine* machine(ProcessId p) const;

  /// Replica p's applied-index watermark source (same threading contract
  /// as machine(p)); null while p has no incarnation.
  [[nodiscard]] DurableRsm* rsm(ProcessId p) const;

  [[nodiscard]] runtime::RuntimeCluster& cluster() { return *cluster_; }
  [[nodiscard]] std::uint32_t size() const { return n_; }

 private:
  struct Replica {
    std::unique_ptr<DurableRsm> rsm;
    std::unique_ptr<abcast::DeliveryLog> log;
    std::unique_ptr<CatchupService> catchup;
    /// True from restart() on: live deliveries are ignored (the stream has
    /// a hole); CatchupService owns the apply sequence instead.
    std::atomic<bool> recovering{false};
  };

  [[nodiscard]] std::shared_ptr<Replica> replica(ProcessId p) const;
  std::shared_ptr<Replica> build_replica(ProcessId p,
                                         common::StableStorage* storage);
  void on_deliver(ProcessId p, const std::string& payload);
  void schedule_ack_beacon(ProcessId p);
  void schedule_recovery_poll(ProcessId p);

  const std::uint32_t n_;
  const Config cfg_;
  MachineFactory make_machine_;

  mutable common::Mutex mu_;
  /// shared_ptr slots: a worker mid-delivery holds the old incarnation
  /// alive while restart() swaps in the new one.
  std::vector<std::shared_ptr<Replica>> replicas_ ZDC_GUARDED_BY(mu_);

  std::unique_ptr<runtime::RuntimeCluster> cluster_;
};

}  // namespace zdc::recovery
