// The linearizable replicated-service layer on the threaded runtime:
// recovery::ReplicaGroup (durable RSM + catch-up) wrapped with client
// sessions, a reply router, and a leader-lease read gate.
//
// Write path: a Client frames each command as a (client id, seqno) session
// envelope and a-broadcasts it via a home replica. Every replica applies
// the envelope through its SessionStateMachine (dedup: retries never apply
// twice); an apply observed by the router wakes the waiting client with
// the reply. Replies are order-determined — every replica computes the
// same one — so with read-index OFF any replica's apply may answer. With
// read-index ON, only the lease-holding leader's applies answer clients:
// lease-read soundness needs "every acknowledged command is in the lease
// holder's applied state", which only holds if acknowledgements come from
// the lease holder itself.
//
// Read path (with_read_index()): a read is marshalled onto a leader
// candidate's worker thread and served straight from its applied state —
// no consensus round — iff the LEASE GATE holds:
//   1. the replica believes itself Ω-leader,
//   2. it is not a recovering lame duck,
//   3. its reign barrier has applied (see below), and
//   4. a majority endorsed it as leader within `lease_ms`
//      (HeartbeatFd::ms_since_quorum_endorsement — heartbeats carry the
//      sender's Ω estimate, and a peer switching leaders revokes its
//      endorsement immediately).
// If any clause fails the read DOWNGRADES: it is framed as an ordered
// kRead envelope and goes through consensus like a write — always
// linearizable, one message delay slower. Zero-degradation for reads, with
// a safety net.
//
// Reign barrier: on observing itself leader, a replica a-broadcasts a
// barrier no-op and serves lease reads only after that barrier has applied
// locally. The ack gate is ORDER-based: a replica may acknowledge applies
// only while the latest barrier in its applied prefix is its own — so
// every command any replica ever acknowledged is ordered BEFORE the next
// reign's barrier (an old leader that applies the new barrier goes silent
// at that exact point in the order). Once the new leader's barrier applies
// locally, its state therefore covers everything previously acknowledged.
// A second trigger opens a reign without a visible leadership change: a
// leader whose own barrier applied and was then overtaken by a peer's (it
// was paused while the peer took Ω and reigned, and on resume Ω came back
// before its gate poll ever saw itself lose it). It is safe for the same
// reason — a barrier only ever narrows the gate: the new one is ordered
// after the peer's, hence after everything the peer acknowledged, and the
// replica neither acks nor serves until it applies. Without the trigger no
// replica would hold the lease again.
// The fast-read gate adds the TIME-based half: serving requires a majority
// endorsement both fresh (age < lease_ms) and held continuously for at
// least lease_ms (HeartbeatFd::quorum_endorsement_streak_ms) — a new
// leader keeps silent for one full lease after winning the majority, by
// which time the old holder's endorsement has gone stale everywhere and it
// can no longer acknowledge or serve. As in Raft's lease reads this half
// assumes bounded clock drift; docs/SERVICE.md spells out the assumption
// and why the downgrade path never needs it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/run_options.h"
#include "recovery/replica_group.h"
#include "service/session.h"

namespace zdc::rsm {

class ServiceGroup;

/// Client handle (one per session; use from one thread). Obtained from
/// ServiceGroup::client(); the session is implicitly opened by its first
/// request and closed by close_session().
///
/// Every call comes in two forms over one attempt loop. The asynchronous
/// one returns at once and runs `done` once with the reply; it needs a
/// cluster on sim::SimTransport, whose clock arms the retry timers outside
/// every replica (a retry survives the crash of the replica it targeted).
/// The blocking one, for threads, waits out each attempt on the caller.
class Client {
 public:
  /// Receives the reply, or "error:timeout" once every attempt failed.
  using Done = std::function<void(std::string reply)>;

  /// Replicates one command; blocks until the reply is known. Retries
  /// internally (other home replica, same envelope) on timeout — the dedup
  /// table makes retries exactly-once. Returns "error:timeout" only after
  /// exhausting every attempt (a partitioned or dead cluster).
  std::string execute(std::string command);
  void execute(std::string command, Done done);

  /// Linearizable read; served without a consensus round when the lease
  /// gate allows, transparently downgraded to an ordered read otherwise.
  std::string read(std::string query);
  void read(std::string query, Done done);

  /// Dedup GC: tombstones this session's server-side entry (erased after
  /// the order-based GC window — see session.h). Call only once the last
  /// reply has arrived.
  void close_session();
  void close_session(Done done);

  [[nodiscard]] ClientId id() const { return id_; }

 private:
  friend class ServiceGroup;
  Client(ServiceGroup* svc, ClientId id, ProcessId home)
      : svc_(svc), id_(id), home_(home) {}

  ServiceGroup* svc_;
  ClientId id_;
  std::uint64_t seqno_ = 0;
  ProcessId home_;
};

class ServiceGroup {
 public:
  /// Builds the application (inner) state machine; the service wraps it in
  /// a SessionStateMachine per replica.
  using InnerFactory = std::function<std::unique_ptr<core::StateMachine>()>;

  struct Config {
    recovery::ReplicaGroup::Config replicas;
    /// Leader-gate poll period per replica (reign/barrier bookkeeping).
    double gate_poll_ms = 5.0;
    /// Client resubmit timeout and attempt cap (execute/read).
    double client_retry_ms = 1000.0;
    int client_max_attempts = 30;
  };

  /// `opts.service.sessions` must be set (with_sessions()); read-index
  /// serving follows `opts.service.read_index` / `opts.service.lease_ms`.
  ServiceGroup(const zdc::RunOptions& opts, InnerFactory make_inner)
      : ServiceGroup(opts, std::move(make_inner), Config()) {}
  ServiceGroup(const zdc::RunOptions& opts, InnerFactory make_inner,
               Config cfg);
  ~ServiceGroup();

  ServiceGroup(const ServiceGroup&) = delete;
  ServiceGroup& operator=(const ServiceGroup&) = delete;

  void start();
  void shutdown();

  /// New session with a fresh system-unique client id. `home` is the
  /// replica its traffic prefers (reads try the current leader first).
  [[nodiscard]] Client client(ProcessId home = 0);

  /// Nemesis surface (delegates to recovery::ReplicaGroup, then restores
  /// the service hooks on the fresh incarnation).
  void crash(ProcessId p);
  std::uint64_t restart(ProcessId p);

  [[nodiscard]] recovery::ReplicaGroup& replicas() { return *group_; }
  [[nodiscard]] std::uint32_t size() const { return n_; }

  /// Per-path counters (cumulative; readable any time).
  struct PathStats {
    std::uint64_t writes = 0;          ///< session writes submitted
    std::uint64_t fast_reads = 0;      ///< served by the lease gate, no
                                       ///< consensus round
    std::uint64_t ordered_reads = 0;   ///< downgraded/ordered through abcast
    std::uint64_t retries = 0;         ///< client resubmissions
    std::uint64_t duplicates = 0;      ///< dedup suppressions (all replicas)
  };
  [[nodiscard]] PathStats stats() const;

 private:
  friend class Client;

  /// Worker-thread-confined per-replica lease-gate state.
  struct Gate {
    bool was_leader = false;
    std::uint64_t reign = 0;
    std::uint64_t barrier_target = 0;  ///< reign whose barrier we await
    bool barrier_applied = false;
    /// Owner of the latest barrier in this replica's applied prefix; the
    /// order-based half of the gate (acks stop the moment someone else's
    /// barrier applies).
    ProcessId last_barrier_owner = kNoProcess;
  };

  enum class CallKind : std::uint8_t { kWrite, kRead, kClose };
  /// One client call in flight, from its first attempt to its reply.
  struct Call {
    CallKind kind = CallKind::kWrite;
    /// The framed envelope, or the bare query of a read-index read (its
    /// lane frames it only if the lease gate downgrades it).
    std::string body;
    ProcessId home = 0;
    int attempt = 0;
    bool done = false;
    std::string reply;
    Client::Done on_done;  ///< empty for a blocking call
  };
  using Key = std::pair<ClientId, std::uint64_t>;

  /// Registers a call under a fresh key and sends its first attempt.
  Key begin(Client& c, CallKind kind, std::string payload,
            Client::Done on_done);
  /// The one attempt step: a write, a close or an ordered read goes to home
  /// replica (home + attempt) mod n (the original may be crashed or cut
  /// off; resubmitting the same envelope is safe, dedup answers it); a
  /// read-index read is marshalled onto the leader's lane, rotated the same
  /// way, through the lease gate.
  void send_attempt(const Key& key, const Call& call);
  /// Called when an attempt timed out: sends the next one (true), or
  /// finishes the call with "error:timeout" once attempts are exhausted or
  /// the call is already done (false).
  bool retry(const Key& key);
  /// Records the reply of a call (first one wins) and wakes its waiter or
  /// runs its callback.
  void complete(const Key& key, std::string reply);
  /// The blocking form: waits one retry slice per attempt.
  std::string await(const Key& key);
  /// The asynchronous form: one virtual-time retry timer per attempt.
  void arm_retry(const Key& key);
  void attach_observer(ProcessId p);
  void on_applied(ProcessId p, const Envelope& e, const std::string& reply);
  void schedule_gate_poll(ProcessId p);
  void gate_poll(ProcessId p);  ///< runs on p's worker thread
  /// The full lease gate for replica p (worker thread p only): Ω-leader,
  /// not recovering, own barrier latest in the applied prefix, endorsement
  /// fresh AND held for at least one lease. Gates both acks and fast reads.
  [[nodiscard]] bool holds_lease(ProcessId p) const;

  const std::uint32_t n_;
  const Config cfg_;
  const ServiceOptions service_;
  std::unique_ptr<recovery::ReplicaGroup> group_;

  /// Indexed by replica; each Gate is touched only on that replica's
  /// worker thread (scheduled callbacks + delivery observer).
  std::vector<std::unique_ptr<Gate>> gates_;

  mutable common::Mutex mu_;
  std::condition_variable cv_;
  std::map<Key, Call> pending_ ZDC_GUARDED_BY(mu_);

  std::atomic<ClientId> next_client_{1};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> fast_reads_{0};
  std::atomic<std::uint64_t> ordered_reads_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<bool> stopping_{false};

  // Pre-registered metric handles (null when metrics are off).
  obs::Counter* fast_reads_ctr_ = nullptr;
  obs::Counter* ordered_reads_ctr_ = nullptr;
  obs::Counter* writes_ctr_ = nullptr;
};

}  // namespace zdc::rsm
