#include "service/session_driver.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/codec.h"
#include "common/rng.h"
#include "core/replicated_log.h"
#include "service/session.h"
#include "sim/sim_transport.h"
#include "storage/durable_storage.h"

namespace zdc::rsm {
namespace {

/// The number after `prefix` in "idx:N" / "len:M"; nullopt on any other
/// shape.
std::optional<std::uint64_t> suffix(const std::string& reply,
                                    const std::string& prefix) {
  if (reply.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = reply.data() + reply.size();
  const auto [ptr, ec] = std::from_chars(reply.data() + prefix.size(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

ServiceGroup::Config on_sim(ServiceGroup::Config cfg) {
  cfg.replicas.transport = runtime::RuntimeCluster::TransportKind::kSim;
  return cfg;
}

/// A WAL on its own MemEnv per replica, unless the caller brought storage.
zdc::RunOptions with_disks(zdc::RunOptions opts, storage::MemDisks& disks) {
  return opts.storage_factory ? opts : opts.with_storage(disks.factory());
}

/// Auto-compaction bounds the in-memory WAL. The storage default leaves it
/// off (a WAL then grows for the whole run): the 10^5-session acceptance
/// run peaks at ~0.90 GB RSS without it and ~0.51 GB with it.
storage::DurableStorageOptions wal_options() {
  storage::DurableStorageOptions options;
  options.segment_bytes = 1 << 20;
  options.compact_after_bytes = 4 << 20;
  return options;
}

class Driver {
 public:
  explicit Driver(const SessionRunConfig& cfg)
      : cfg_(cfg),
        n_(cfg.opts.group.n),
        disks_(n_, wal_options()),
        svc_(with_disks(cfg.opts, disks_).with_sessions(),
             [] { return std::make_unique<core::ReplicatedLogStateMachine>(); },
             on_sim(cfg.service)),
        sim_(*svc_.replicas().cluster().sim()),
        rng_(common::Rng(cfg.opts.seed).fork(0x5e55)),
        sessions_(cfg.sessions) {
    std::string error;
    ZDC_ASSERT_MSG(fault::check_plan(cfg_.plan, n_, &error), error.c_str());
    for (const fault::FaultAction& a : cfg_.plan.actions) {
      ZDC_ASSERT_MSG(a.kind != fault::FaultKind::kFlip &&
                         a.kind != fault::FaultKind::kEquivocate &&
                         a.kind != fault::FaultKind::kStateCorrupt,
                     "the session driver injects no corruption verbs");
    }
    if (cfg_.opts.metrics != nullptr) {
      for (const char* path : {"write", "read"}) {
        latency_.push_back(&cfg_.opts.metrics->histogram(
            "zdc_service_client_latency_ms", {}, {{"path", path}}));
      }
    }
  }

  SessionRunReport run() {
    svc_.start();
    for (const fault::FaultAction& a : cfg_.plan.actions) {
      sim_.after(a.time, [this, a] { inject(a); });
    }
    if (!cfg_.plan.empty()) {
      // Due with the last action and queued after it.
      sim_.after(cfg_.plan.actions.back().time,
                 [this] { fast_at_plan_end_ = svc_.stats().fast_reads; });
    }
    if (cfg_.open_loop) {
      schedule_next_arrival();
    } else {
      for (std::uint32_t i = 0; i < cfg_.concurrency; ++i) open_session();
    }
    sim_.run_until([this] { return finished_ == cfg_.sessions; },
                   cfg_.time_limit_ms);
    rep_.sim_ms = sim_.now_ms();
    // Give every live replica — a restarted one through catch-up — 10 s
    // to reach the same applied prefix before the digests are compared.
    sim_.run_until([this] { return converged(); }, rep_.sim_ms + 10000.0);
    finish();
    svc_.shutdown();
    return rep_;
  }

 private:
  struct Session {
    std::optional<Client> client;
    std::uint64_t seqno = 0;  ///< mirrors the Client's envelope seqno
    std::uint32_t writes_done = 0;
    std::uint32_t reads_done = 0;
    double invoke_t = 0.0;
    std::uint64_t frontier_at_invoke = 0;
  };

  struct CompletedWrite {
    std::uint64_t index;  ///< log index N from "idx:N"
    double invoke_t;
    double response_t;
  };

  void inject(const fault::FaultAction& a) {
    const bool down = svc_.replicas().cluster().network().crashed(a.p);
    if (a.kind == fault::FaultKind::kCrash) {
      if (down) return;
      ++rep_.crash_events;
      svc_.crash(a.p);
    } else if (a.kind == fault::FaultKind::kRestart) {
      if (!down) return;
      ++rep_.restart_events;
      static_cast<void>(svc_.restart(a.p));
    } else {
      static_cast<void>(fault::apply_to_policy(a, sim_.links()));
    }
  }

  void schedule_next_arrival() {
    if (opened_ >= cfg_.sessions) return;
    sim_.after(rng_.exponential(1.0 / cfg_.arrivals_per_ms), [this] {
      open_session();
      schedule_next_arrival();
    });
  }

  void open_session() {
    if (opened_ >= cfg_.sessions) return;
    Session& s = sessions_[opened_++];
    s.client.emplace(svc_.client(static_cast<ProcessId>(opened_ % n_)));
    next_op(s);
  }

  /// Closes out a session (done, or failed by a timeout) and samples the
  /// dedup tables.
  void end_session(bool closed) {
    ++finished_;
    if (closed) ++rep_.sessions_completed;
    for (ProcessId p = 0; p < n_; ++p) {
      const auto* sm =
          static_cast<const SessionStateMachine*>(svc_.replicas().machine(p));
      if (sm == nullptr) continue;
      rep_.max_open_sessions =
          std::max<std::uint64_t>(rep_.max_open_sessions, sm->open_sessions());
    }
    if (!cfg_.open_loop) open_session();
  }

  void next_op(Session& s) {
    // Interleave writes and reads, then close.
    const bool want_write =
        s.writes_done < cfg_.writes_per_session &&
        ((s.writes_done + s.reads_done) % 2 == 0 ||
         s.reads_done >= cfg_.reads_per_session);
    s.invoke_t = sim_.now_ms();
    s.frontier_at_invoke = frontier_;
    Session* sp = &s;
    if (want_write || s.reads_done < cfg_.reads_per_session) {
      ++s.seqno;
      auto done = [this, sp, want_write](std::string reply) {
        on_reply(*sp, want_write, reply);
      };
      if (want_write) {
        common::Encoder entry;
        entry.put_u64(s.client->id());
        entry.put_u64(s.seqno);
        s.client->execute(core::log_append(entry.take()), std::move(done));
      } else {
        s.client->read(core::log_len(), std::move(done));
      }
      return;
    }
    s.client->close_session([this, sp](const std::string& reply) {
      end_session(!timed_out(*sp, reply));
    });
  }

  /// A call that ended in error:timeout fails its session: counted, and the
  /// run moves on without it.
  bool timed_out(const Session& s, const std::string& reply) {
    if (reply != "error:timeout") return false;
    ++rep_.timeouts;
    note("session " + std::to_string(s.client->id()) + " timed out at seqno " +
         std::to_string(s.seqno));
    return true;
  }

  void on_reply(Session& s, bool write, const std::string& reply) {
    if (timed_out(s, reply)) {
      end_session(false);
      return;
    }
    const double now = sim_.now_ms();
    const std::string what = (write ? "write " : "read ") +
                             std::to_string(s.client->id()) + ":" +
                             std::to_string(s.seqno);
    // A write's frontier is its entry count through itself (N + 1); a
    // read's is the log length it saw.
    std::optional<std::uint64_t> n = suffix(reply, write ? "idx:" : "len:");
    if (!n.has_value()) {
      violation(what + " got reply '" + reply + "'");
    } else if (write) {
      writes_.push_back(CompletedWrite{*n, s.invoke_t, now});
      ++*n;
    } else if (*n < s.frontier_at_invoke) {
      // Every write completed before this read was invoked had pushed the
      // frontier to frontier_at_invoke; a linearizable read sees that much.
      violation(what + " saw " + std::to_string(*n) + " < frontier " +
                std::to_string(s.frontier_at_invoke));
    }
    if (n.has_value()) frontier_ = std::max(frontier_, *n);
    (write ? s.writes_done : s.reads_done) += 1;
    (write ? rep_.writes_acked : rep_.reads_acked) += 1;
    (write ? write_ms_ : read_ms_) += now - s.invoke_t;
    if (!latency_.empty()) latency_[write ? 0 : 1]->observe(now - s.invoke_t);
    next_op(s);
  }

  bool converged() {
    std::optional<std::uint64_t> applied;
    for (ProcessId p = 0; p < n_; ++p) {
      if (svc_.replicas().cluster().network().crashed(p)) continue;
      const std::uint64_t a = svc_.replicas().applied(p);
      if (applied.has_value() && *applied != a) return false;
      applied = a;
    }
    return true;
  }

  void finish() {
    rep_.digests_converged = converged();
    rep_.digests.resize(n_);
    std::string first;
    for (ProcessId p = 0; p < n_; ++p) {
      const abcast::AbcastMetrics& m =
          svc_.replicas().cluster().node(p).metrics();
      rep_.one_step += m.one_step_decisions;
      rep_.two_step += m.slow_decisions;
      if (svc_.replicas().cluster().network().crashed(p)) continue;
      const auto* sm =
          static_cast<const SessionStateMachine*>(svc_.replicas().machine(p));
      rep_.digests[p] = sm->snapshot();
      if (first.empty()) first = rep_.digests[p];
      rep_.digests_converged &= rep_.digests[p] == first;
      rep_.double_applies += double_applies(
          static_cast<const core::ReplicatedLogStateMachine&>(sm->inner()));
    }
    // Real-time order over completed writes: sort by apply index and scan
    // with the running max of invocation times — write j is misordered iff
    // some write ordered before it was invoked after j completed.
    std::sort(writes_.begin(), writes_.end(),
              [](const CompletedWrite& a, const CompletedWrite& b) {
                return a.index < b.index;
              });
    double max_invoke = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < writes_.size(); ++j) {
      const CompletedWrite& w = writes_[j];
      if (j > 0 && writes_[j - 1].index == w.index) {
        violation("two completed writes share apply index " +
                  std::to_string(w.index));
      }
      if (w.response_t < max_invoke) {
        violation("write at index " + std::to_string(w.index) +
                  " completed before an earlier-ordered write was invoked");
      }
      max_invoke = std::max(max_invoke, w.invoke_t);
    }
    const ServiceGroup::PathStats stats = svc_.stats();
    rep_.completed =
        rep_.sessions_completed == cfg_.sessions && rep_.timeouts == 0;
    rep_.fast_reads = stats.fast_reads;
    rep_.ordered_reads = stats.ordered_reads;
    rep_.fast_reads_after_plan = stats.fast_reads - fast_at_plan_end_;
    rep_.retries = stats.retries;
    rep_.duplicates_suppressed = stats.duplicates;
    rep_.write_mean_ms = write_ms_ / std::max<double>(rep_.writes_acked, 1);
    rep_.read_mean_ms = read_ms_ / std::max<double>(rep_.reads_acked, 1);
  }

  /// Log entries whose (client, seqno) an earlier entry already carries:
  /// a retry that leaked past the dedup layer, even across a kill-9 and
  /// WAL replay, is in the log twice.
  static std::uint64_t double_applies(
      const core::ReplicatedLogStateMachine& log) {
    std::set<std::string> seen;
    std::uint64_t doubles = 0;
    for (std::uint64_t i = log.first_index(); i < log.end_index(); ++i) {
      if (!seen.insert(*log.entry(i)).second) ++doubles;
    }
    return doubles;
  }

  void violation(const std::string& what) {
    ++rep_.lin_violations;
    note(what);
  }

  /// Keeps the first failure's description.
  void note(const std::string& what) {
    if (rep_.first_violation.empty()) rep_.first_violation = what;
  }

  const SessionRunConfig& cfg_;
  const std::uint32_t n_;
  storage::MemDisks disks_;  ///< unless opts.storage_factory is set
  ServiceGroup svc_;
  sim::SimTransport& sim_;
  common::Rng rng_;
  std::vector<Session> sessions_;
  SessionRunReport rep_;
  std::uint64_t opened_ = 0;
  std::uint64_t finished_ = 0;  ///< closed or failed
  std::uint64_t fast_at_plan_end_ = 0;
  std::uint64_t frontier_ = 0;
  std::vector<CompletedWrite> writes_;
  double write_ms_ = 0.0;
  double read_ms_ = 0.0;
  std::vector<obs::Histogram*> latency_;  ///< write, read; empty = off
};

}  // namespace

SessionRunReport run_sessions(const SessionRunConfig& cfg) {
  return Driver(cfg).run();
}

}  // namespace zdc::rsm
