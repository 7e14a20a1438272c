#include "service/service_group.h"

#include <chrono>
#include <utility>

#include "common/assert.h"
#include "sim/sim_transport.h"

namespace zdc::rsm {

ServiceGroup::ServiceGroup(const zdc::RunOptions& opts, InnerFactory make_inner,
                           Config cfg)
    : n_(opts.group.n), cfg_(cfg), service_(opts.service) {
  ZDC_ASSERT_MSG(service_.sessions,
                 "ServiceGroup requires RunOptions::with_sessions()");
  ZDC_ASSERT(make_inner != nullptr);
  group_ = std::make_unique<recovery::ReplicaGroup>(
      opts,
      [make_inner = std::move(make_inner)](ProcessId) {
        return std::make_unique<SessionStateMachine>(make_inner());
      },
      cfg_.replicas);
  gates_.reserve(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    gates_.push_back(std::make_unique<Gate>());
  }
  // Observers attach before start(): no deliveries are in flight yet, so
  // touching the machines from this thread is race-free — and the WAL
  // replay inside ReplicaGroup's constructor already happened WITHOUT an
  // observer, which is what keeps replayed commands from producing
  // spurious client replies.
  for (ProcessId p = 0; p < n_; ++p) attach_observer(p);
  if (opts.metrics != nullptr) {
    fast_reads_ctr_ = &opts.metrics->counter("zdc_service_fast_reads_total");
    ordered_reads_ctr_ =
        &opts.metrics->counter("zdc_service_ordered_reads_total");
    writes_ctr_ = &opts.metrics->counter("zdc_service_writes_total");
  }
}

ServiceGroup::~ServiceGroup() { shutdown(); }

void ServiceGroup::start() {
  group_->start();
  if (service_.read_index) {
    for (ProcessId p = 0; p < n_; ++p) schedule_gate_poll(p);
  }
}

void ServiceGroup::shutdown() {
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  group_->shutdown();
}

Client ServiceGroup::client(ProcessId home) {
  const ClientId id = next_client_.fetch_add(1, std::memory_order_relaxed);
  return Client(this, id, n_ == 0 ? 0 : home % n_);
}

void ServiceGroup::crash(ProcessId p) { group_->crash(p); }

std::uint64_t ServiceGroup::restart(ProcessId p) {
  const std::uint64_t recovered = group_->restart(p);
  // The fresh incarnation replayed its WAL observer-less inside restart();
  // re-attach on ITS worker thread (applies run there — same-thread
  // confinement instead of a data race with in-flight catch-up applies)
  // and void the lease gate: a rebooted replica restarts its reign
  // bookkeeping from scratch.
  group_->cluster().network().schedule(p, 0.0, [this, p] {
    attach_observer(p);
    Gate& g = *gates_[p];
    g.was_leader = false;
    g.barrier_applied = false;
    // The recovered prefix is re-applied observer-less, so replay the
    // order-based gate input from scratch: no acks until this replica has
    // applied a barrier again (catch-up delivers the historical ones).
    g.last_barrier_owner = kNoProcess;
  });
  // The gate-poll chain died with the crashed incarnation (schedule()
  // no-ops on a crashed process); re-arm it.
  if (service_.read_index) schedule_gate_poll(p);
  return recovered;
}

ServiceGroup::PathStats ServiceGroup::stats() const {
  PathStats s;
  s.writes = writes_.load(std::memory_order_relaxed);
  s.fast_reads = fast_reads_.load(std::memory_order_relaxed);
  s.ordered_reads = ordered_reads_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  for (ProcessId p = 0; p < n_; ++p) {
    const auto* sm =
        static_cast<const SessionStateMachine*>(group_->machine(p));
    if (sm != nullptr) s.duplicates += sm->duplicates_suppressed();
  }
  return s;
}

void ServiceGroup::attach_observer(ProcessId p) {
  // The factory above built SessionStateMachines, so the downcast is exact.
  auto* sm = static_cast<SessionStateMachine*>(group_->machine(p));
  ZDC_ASSERT(sm != nullptr);
  sm->set_observer([this, p](const Envelope& e, const std::string& reply) {
    on_applied(p, e, reply);
  });
}

void ServiceGroup::on_applied(ProcessId p, const Envelope& e,
                              const std::string& reply) {
  // Runs on replica p's delivery (worker) thread, in apply order.
  switch (e.kind) {
    case EnvelopeKind::kBarrier: {
      ProcessId replica = kNoProcess;
      std::uint64_t reign = 0;
      if (decode_barrier_token(e.command, &replica, &reign)) {
        Gate& g = *gates_[p];
        // EVERY barrier moves the order-based gate: the moment another
        // replica's barrier enters the applied prefix, this replica stops
        // acknowledging (see the header argument).
        g.last_barrier_owner = replica;
        if (replica == p && reign == g.barrier_target) {
          g.barrier_applied = true;
        }
      }
      return;
    }
    case EnvelopeKind::kRequest:
    case EnvelopeKind::kRead:
    case EnvelopeKind::kClose: {
      if (service_.read_index) {
        // Lease-read soundness requires LEASE-HOLDER-ONLY replies: a client
        // may only observe a command's completion once the lease holder has
        // applied it, so the lease holder's state always covers every
        // acknowledged command (see the header argument — without this, a
        // fast read at a lagging leader could miss a write a quicker
        // follower already acknowledged). Everyone else stays silent;
        // clients retry until the holder's apply answers them.
        if (!holds_lease(p)) return;
      }
      complete(Key{e.client, e.kind == EnvelopeKind::kClose ? 0 : e.seqno},
               reply);
      return;
    }
    case EnvelopeKind::kBare:
      return;
  }
}

void ServiceGroup::schedule_gate_poll(ProcessId p) {
  // Self-rescheduling worker timer, same pattern as ReplicaGroup's ack
  // beacon: dies with a crashed incarnation (schedule() no-ops while
  // crashed) and is re-armed by restart().
  group_->cluster().network().schedule(p, cfg_.gate_poll_ms, [this, p] {
    if (stopping_.load(std::memory_order_acquire)) return;
    gate_poll(p);
    schedule_gate_poll(p);
  });
}

bool ServiceGroup::holds_lease(ProcessId p) const {
  // Worker thread p only (gate state + endorsement clocks are confined).
  const Gate& g = *gates_[p];
  const auto& fd = group_->cluster().node(p).failure_detector();
  return !group_->recovering(p) && fd.omega().leader() == p &&
         g.last_barrier_owner == p &&
         fd.ms_since_quorum_endorsement() < service_.lease_ms &&
         fd.quorum_endorsement_streak_ms() >= service_.lease_ms;
}

void ServiceGroup::gate_poll(ProcessId p) {
  // Worker thread p. Reign bookkeeping: on every leadership acquisition,
  // open a new reign and a-broadcast its barrier; lease reads start only
  // once that barrier has applied locally (see the header argument). A
  // leader whose own barrier was overtaken by a peer's (it was paused while
  // the peer reigned, and never saw itself lose Ω) opens a new reign too,
  // or no replica would hold the lease again.
  Gate& g = *gates_[p];
  auto& node = group_->cluster().node(p);
  const bool leader_now = node.failure_detector().omega().leader() == p &&
                          !group_->recovering(p);
  const bool overtaken = g.barrier_applied && g.last_barrier_owner != p;
  if (leader_now && (!g.was_leader || overtaken)) {
    ++g.reign;
    g.barrier_target = g.reign;
    g.barrier_applied = false;
    node.a_broadcast(frame_barrier(p, g.reign));
  }
  g.was_leader = leader_now;
}

std::string Client::execute(std::string command) {
  return svc_->await(svc_->begin(*this, ServiceGroup::CallKind::kWrite,
                                 std::move(command), nullptr));
}

void Client::execute(std::string command, Done done) {
  svc_->arm_retry(svc_->begin(*this, ServiceGroup::CallKind::kWrite,
                              std::move(command), std::move(done)));
}

std::string Client::read(std::string query) {
  return svc_->await(svc_->begin(*this, ServiceGroup::CallKind::kRead,
                                 std::move(query), nullptr));
}

void Client::read(std::string query, Done done) {
  svc_->arm_retry(svc_->begin(*this, ServiceGroup::CallKind::kRead,
                              std::move(query), std::move(done)));
}

void Client::close_session() {
  static_cast<void>(svc_->await(
      svc_->begin(*this, ServiceGroup::CallKind::kClose, {}, nullptr)));
}

void Client::close_session(Done done) {
  svc_->arm_retry(svc_->begin(*this, ServiceGroup::CallKind::kClose, {},
                              std::move(done)));
}

ServiceGroup::Key ServiceGroup::begin(Client& c, CallKind kind,
                                      std::string payload,
                                      Client::Done on_done) {
  const Key key{c.id_, kind == CallKind::kClose ? 0 : ++c.seqno_};
  std::string body;
  if (kind == CallKind::kWrite) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (writes_ctr_ != nullptr) writes_ctr_->inc();
    body = frame_request(c.id_, key.second, std::move(payload));
  } else if (kind == CallKind::kClose) {
    body = frame_close(c.id_);
  } else if (service_.read_index) {
    // Framed, and counted, by the lane that serves or downgrades it.
    body = std::move(payload);
  } else {
    ordered_reads_.fetch_add(1, std::memory_order_relaxed);
    if (ordered_reads_ctr_ != nullptr) ordered_reads_ctr_->inc();
    body = frame_read(c.id_, key.second, payload);
  }
  const Call call{kind, std::move(body), c.home_, 0, false, {},
                  std::move(on_done)};
  {
    common::MutexLock lock(mu_);
    pending_[key] = call;
  }
  send_attempt(key, call);
  return key;
}

void ServiceGroup::send_attempt(const Key& key, const Call& call) {
  const auto rotation = static_cast<ProcessId>(call.attempt);
  if (call.kind != CallKind::kRead || !service_.read_index) {
    group_->submit((call.home + rotation) % n_, call.body);
    return;
  }
  // Try the leader first (its lane evaluates the lease gate); rotate on
  // timeout like writes do.
  ProcessId candidate =
      group_->cluster().node(call.home).failure_detector().omega().leader();
  if (candidate == kNoProcess) candidate = call.home;
  candidate = (candidate + rotation) % n_;
  group_->cluster().network().schedule(
      candidate, 0.0, [this, candidate, key, query = call.body] {
        // Lane `candidate`: the only one that may read this replica's gate,
        // endorsement clocks and applied state.
        const Gate& g = *gates_[candidate];
        if (holds_lease(candidate) && g.barrier_applied) {
          // THE fast path: reply from applied state, zero consensus rounds,
          // zero message delays beyond the client hop.
          const core::StateMachine* m = group_->machine(candidate);
          fast_reads_.fetch_add(1, std::memory_order_relaxed);
          if (fast_reads_ctr_ != nullptr) fast_reads_ctr_->inc();
          complete(key, m->apply_read(query));
        } else {
          // Downgrade: order the read like a write. Linearizable without any
          // lease assumption, one consensus round slower.
          ordered_reads_.fetch_add(1, std::memory_order_relaxed);
          if (ordered_reads_ctr_ != nullptr) ordered_reads_ctr_->inc();
          group_->cluster().node(candidate).a_broadcast(
              frame_read(key.first, key.second, query));
        }
      });
}

bool ServiceGroup::retry(const Key& key) {
  Call next;  // attempt 0: none left
  {
    common::MutexLock lock(mu_);
    const auto it = pending_.find(key);
    if (it == pending_.end() || it->second.done) return false;
    if (++it->second.attempt < cfg_.client_max_attempts &&
        !stopping_.load(std::memory_order_acquire)) {
      next = it->second;
    }
  }
  if (next.attempt == 0) {
    complete(key, "error:timeout");
    return false;
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  send_attempt(key, next);
  return true;
}

void ServiceGroup::complete(const Key& key, std::string reply) {
  Client::Done on_done;
  {
    common::MutexLock lock(mu_);
    const auto it = pending_.find(key);
    if (it == pending_.end() || it->second.done) return;
    if (it->second.on_done == nullptr) {
      it->second.done = true;
      it->second.reply = std::move(reply);
      cv_.notify_all();
      return;
    }
    on_done = std::move(it->second.on_done);
    pending_.erase(it);
  }
  // Outside the lock: the callback may start the session's next call.
  on_done(std::move(reply));
}

std::string ServiceGroup::await(const Key& key) {
  const auto wait_slice =
      std::chrono::duration<double, std::milli>(cfg_.client_retry_ms);
  for (;;) {
    {
      common::MutexLock lock(mu_);
      const auto it = pending_.find(key);
      while (!it->second.done && !stopping_.load(std::memory_order_acquire)) {
        // One timed slice per attempt; cv_status::timeout => retry. (A
        // spurious wakeup re-arms the full slice — harmless, bounded by
        // real notifies.)
        if (cv_.wait_for(lock.inner(), wait_slice) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (it->second.done) {
        std::string reply = std::move(it->second.reply);
        pending_.erase(it);
        return reply;
      }
    }
    // Sends the next attempt, or marks the call done with error:timeout.
    static_cast<void>(retry(key));
  }
}

void ServiceGroup::arm_retry(const Key& key) {
  sim::SimTransport* clock = group_->cluster().sim();
  ZDC_ASSERT_MSG(clock != nullptr,
                 "completion-callback calls run in virtual time (a kSim "
                 "cluster); threads use the blocking calls");
  clock->after(cfg_.client_retry_ms, [this, key] {
    if (retry(key)) arm_retry(key);
  });
}

}  // namespace zdc::rsm
