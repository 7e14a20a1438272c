// The KV workloads (kv-write, kv-read, kv-failover and the read-index-off
// kv-read-ordered and kv-failover-ordered): closed-loop client sessions
// against rsm::ServiceGroup (C-Abcast over L-Consensus, n=4, f=1) on the
// threaded in-process runtime with its default injected delays.
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "layers.h"
#include "common/rng.h"
#include "core/kv_store.h"
#include "obs/run_options.h"
#include "probes.h"
#include "runtime/runtime_node.h"
#include "service/service_group.h"
#include "service/session.h"
#include "storage/durable_storage.h"
#include "storage/env.h"
#include "workloads.h"

namespace e2e {
namespace {

using zdc::ProcessId;
namespace rsm = zdc::rsm;

constexpr std::uint32_t kReplicas = 4;
/// Each session reads back this many of its most recent writes at the end.
constexpr std::size_t kReadBack = 16;
/// The stated tolerance of the layer budget: the per-layer means must add
/// up to the end-to-end write mean within this share of it.
constexpr double kBudgetTolerance = 0.05;
/// Window of the end-to-end statistics (see WindowedLatency).
constexpr double kWindowMs = 1000.0;

enum class Disk { kNone, kPosix, kMem };

struct KvSpec {
  int sessions = 0;
  double read_share = 0.0;
  bool read_index = false;
  Disk disk = Disk::kNone;
  int keys_per_session = 0;
  bool failover = false;
  ProcessId first_home = 0;  ///< session i is homed at first_home + i
};

/// The `-ordered` variants run read-index off: every read and write is
/// ordered through consensus and any replica's apply answers it, so no
/// lease gate is on the path.
KvSpec spec_for(const std::string& workload) {
  KvSpec s;
  if (workload == "kv-write") {
    s.sessions = 4;
    s.disk = Disk::kPosix;
    s.keys_per_session = 128;
  } else if (workload == "kv-read" || workload == "kv-read-ordered") {
    s.sessions = 2;
    s.read_share = 0.9;
    s.read_index = workload == "kv-read";
    s.keys_per_session = 512;
  } else {  // kv-failover, kv-failover-ordered
    s.sessions = 3;
    s.disk = Disk::kMem;
    s.keys_per_session = 64;
    s.read_index = workload == "kv-failover";
    s.failover = true;
    s.first_home = 1;
  }
  return s;
}

/// Everything the traced stack adds.
struct Probes {
  Ledger ledger;
  SharedSamples apply_us;
  StorageStats storage;
  zdc::obs::MetricsRegistry registry;
};

class KvStack {
 public:
  KvStack(const KvSpec& spec, std::uint64_t seed, std::string dir,
          Probes* probes)
      : dir_(std::move(dir)) {
    auto opts = zdc::RunOptions{}
                    .with_group(kReplicas, 1)
                    .with_seed(seed)
                    .with_sessions()
                    .with_read_index(spec.read_index);
    if (probes != nullptr) opts.with_metrics(&probes->registry);
    if (spec.disk != Disk::kNone) {
      for (ProcessId p = 0; p < kReplicas; ++p) {
        zdc::storage::Env* env = &zdc::storage::posix_env();
        if (spec.disk == Disk::kMem) {
          mem_envs_.push_back(std::make_unique<zdc::storage::MemEnv>());
          env = mem_envs_.back().get();
        }
        if (probes != nullptr) {
          timed_envs_.push_back(
              std::make_unique<TimedEnv>(*env, &probes->storage));
          env = timed_envs_.back().get();
        }
        envs_.push_back(env);
      }
      opts.with_storage([this, probes](ProcessId p)
                            -> std::unique_ptr<zdc::common::StableStorage> {
        std::unique_ptr<zdc::storage::DurableStableStorage> store;
        const std::string replica_dir =
            zdc::storage::join_path(dir_, std::string("r") + std::to_string(p));
        const zdc::storage::Status s = zdc::storage::DurableStableStorage::open(
            *envs_[p], replica_dir, {}, &store);
        ZDC_ASSERT_MSG(s.is_ok(), "cannot open the WAL directory");
        if (probes == nullptr) return store;
        return std::make_unique<TimedStorage>(std::move(store),
                                              &probes->storage,
                                              &probes->ledger);
      });
    }
    rsm::ServiceGroup::Config cfg;
    rsm::ServiceGroup::InnerFactory inner = [] {
      return std::make_unique<zdc::core::KvStateMachine>();
    };
    if (probes != nullptr) {
      cfg.replicas.catchup.metrics = &probes->registry;
      cfg.replicas.catchup.now_ms = [] { return now_ms(); };
      inner = [probes] {
        return std::make_unique<TimedKv>(&probes->ledger, &probes->apply_us);
      };
    }
    svc_ = std::make_unique<rsm::ServiceGroup>(opts, std::move(inner), cfg);
  }

  ~KvStack() {
    svc_->shutdown();
    svc_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  KvStack(const KvStack&) = delete;
  KvStack& operator=(const KvStack&) = delete;

  rsm::ServiceGroup& svc() { return *svc_; }

 private:
  const std::string dir_;
  std::vector<std::unique_ptr<zdc::storage::MemEnv>> mem_envs_;
  std::vector<std::unique_ptr<TimedEnv>> timed_envs_;
  std::vector<zdc::storage::Env*> envs_;
  std::unique_ptr<rsm::ServiceGroup> svc_;  // last: destroyed first
};

std::string random_text(zdc::common::Rng& rng, std::size_t len) {
  std::string out(len, 'a');
  for (char& c : out) c = static_cast<char>('a' + rng.next_below(26));
  return out;
}

struct Session {
  Session(rsm::Client c, std::vector<std::string> k, std::uint64_t seed)
      : client(c), keys(std::move(k)), rng(seed) {}

  rsm::Client client;
  std::vector<std::string> keys;
  zdc::common::Rng rng;
  std::map<std::string, std::string> acked;  ///< last acknowledged value
  std::set<std::string> uncertain;  ///< a write failed: value unknown
  std::vector<std::string> recent;  ///< keys of the latest acked writes
  std::uint64_t seq = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_failed = 0;
  std::string first_error;
  // Timed-phase latencies.
  WindowedLatency writes;
  WindowedLatency reads;
  /// kv-failover: the crash time (negative before it) and when this
  /// session's first write submitted after it was acknowledged.
  const std::atomic<double>* crash_at = nullptr;
  double served_after_crash = -1.0;

  void fail(const std::string& what, bool timed) {
    ++failed;
    if (timed) ++timed_failed;
    if (first_error.empty()) first_error = what;
  }

  void put(const std::string& key, Ledger* ledger, bool timed) {
    const std::string value = random_text(rng, 24) + "#" +
                              std::to_string(client.id()) + "." +
                              std::to_string(++seq);
    const std::string cmd = zdc::core::kv_put(key, value);
    const double t0 = now_ms();
    if (ledger != nullptr) ledger->submit(cmd, t0);
    const std::string r = client.execute(cmd);
    const double t1 = now_ms();
    if (ledger != nullptr) ledger->reply(cmd, t1);
    ++attempted;
    if (r == "ok") {
      acked[key] = value;
      uncertain.erase(key);
      recent.push_back(key);
      if (recent.size() > 4 * kReadBack) {
        recent.erase(recent.begin(), recent.begin() + kReadBack);
      }
    } else {
      fail("PUT " + key + " -> " + r, timed);
      acked.erase(key);
      uncertain.insert(key);
    }
    if (timed) {
      writes.add(t1, t1 - t0);
      if (crash_at != nullptr && served_after_crash < 0.0) {
        const double crash = crash_at->load();
        if (crash >= 0.0 && t0 >= crash) served_after_crash = t1;
      }
    }
  }

  /// Linearizable read of an own key: must return the last acked value.
  void get(const std::string& key, bool timed) {
    const double t0 = now_ms();
    const std::string r = client.read(zdc::core::kv_get(key));
    const double t1 = now_ms();
    ++attempted;
    bool ok = r.rfind("error:", 0) != 0;
    if (ok && uncertain.count(key) == 0) {
      const auto it = acked.find(key);
      ok = r == (it == acked.end() ? std::string("not_found")
                                   : "value:" + it->second);
    }
    if (!ok) fail("GET " + key + " -> " + r, timed);
    if (timed) reads.add(t1, t1 - t0);
  }

  void one_op(double read_share, Ledger* ledger) {
    const std::string& key = keys[rng.next_below(keys.size())];
    if (read_share > 0.0 && rng.chance(read_share)) {
      get(key, true);
    } else {
      put(key, ledger, true);
    }
  }
};

/// Results of one stack lifetime.
struct Phase {
  double setup_ms = 0.0;  ///< build -> first acknowledged write (median)
  double preload_ms = 0.0;
  double start_ms = 0.0;
  double elapsed_ms = 0.0;
  double cpu_ms = 0.0;
  WindowedLatency writes;
  WindowedLatency reads;
  WindowedLatency all;  ///< writes and reads
  std::uint64_t ok_ops = 0;
  // kv-failover timeline.
  double crash_at = -1.0;
  double failover_ms = 0.0;
  double fd_detect_ms = 0.0;
  double restart_ms = 0.0;
  double catchup_ms = 0.0;
};

bool settle(rsm::ServiceGroup& svc, double timeout_ms) {
  const double deadline = now_ms() + timeout_ms;
  std::uint64_t last = ~std::uint64_t{0};
  int stable = 0;
  while (now_ms() < deadline) {
    const std::uint64_t a = svc.replicas().applied(0);
    bool equal = true;
    for (ProcessId p = 1; p < kReplicas; ++p) {
      equal = equal && svc.replicas().applied(p) == a;
    }
    stable = equal && a == last ? stable + 1 : 0;
    if (stable >= 5) return true;
    last = a;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

const zdc::core::KvStateMachine* kv_of(rsm::ServiceGroup& svc, ProcessId p) {
  const auto* sm =
      static_cast<const rsm::SessionStateMachine*>(svc.replicas().machine(p));
  if (sm == nullptr) return nullptr;
  if (const auto* timed = dynamic_cast<const TimedKv*>(&sm->inner())) {
    return &timed->kv();
  }
  return dynamic_cast<const zdc::core::KvStateMachine*>(&sm->inner());
}

/// Builds a stack and times it to its first acknowledged write.
std::unique_ptr<KvStack> build(const KvSpec& spec, std::uint64_t seed,
                               const std::string& dir, Probes* probes,
                               Report& report, double* setup_ms) {
  const double t0 = now_ms();
  auto stack = std::make_unique<KvStack>(spec, seed, dir, probes);
  stack->svc().start();
  rsm::Client c = stack->svc().client(spec.first_home);
  const std::string r = c.execute(zdc::core::kv_put("setup", "ready"));
  *setup_ms = now_ms() - t0;
  report.ops(1, r == "ok" ? 0 : 1);
  if (r != "ok") report.check("setup_write_acknowledged", false, r);
  return stack;
}

/// One client session per `spec.sessions`, each owning its generated keys.
std::vector<std::unique_ptr<Session>> make_sessions(const KvSpec& spec,
                                                    rsm::ServiceGroup& svc,
                                                    std::uint64_t seed) {
  // Generated inputs only: keys and values come from the seed.
  zdc::common::Rng seeder(seed);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < spec.sessions; ++s) {
    std::vector<std::string> keys;
    for (int k = 0; k < spec.keys_per_session; ++k) {
      std::string key = "s";
      key += std::to_string(s);
      key += '/';
      key += random_text(seeder, 8);
      key += std::to_string(k);
      keys.push_back(std::move(key));
    }
    const ProcessId home =
        (spec.first_home + static_cast<ProcessId>(s)) % kReplicas;
    sessions.push_back(std::make_unique<Session>(
        svc.client(home), std::move(keys), seeder.next_u64()));
  }
  return sessions;
}

/// Runs `fn(session)` on one thread per session and waits for all.
template <typename Fn>
void on_every_session(std::vector<std::unique_ptr<Session>>& sessions,
                      Fn fn) {
  std::vector<std::thread> threads;
  for (auto& s : sessions) threads.emplace_back([&s, &fn] { fn(*s); });
  for (auto& t : threads) t.join();
}

/// kv-failover: crash the Ω leader at 30% of the run, hold it down for
/// another 30%, then restart it and wait for its catch-up.
void run_failover_timeline(rsm::ServiceGroup& svc, double t_start,
                           double seconds, std::atomic<double>& crash_at,
                           Phase& phase) {
  constexpr ProcessId kVictim = 0;  // Ω = lowest unsuspected id
  sleep_until_ms(t_start + 0.3 * seconds * 1e3);
  phase.crash_at = now_ms();
  crash_at.store(phase.crash_at);
  svc.crash(kVictim);
  auto& cluster = svc.replicas().cluster();
  while (now_ms() < phase.crash_at + 10'000.0) {
    bool all = true;
    for (ProcessId p = 0; p < kReplicas; ++p) {
      all = all && (p == kVictim ||
                    cluster.node(p).failure_detector().suspects(kVictim));
    }
    if (all) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  phase.fd_detect_ms = now_ms() - phase.crash_at;
  sleep_until_ms(phase.crash_at + 0.3 * seconds * 1e3);
  const double t0 = now_ms();
  static_cast<void>(svc.restart(kVictim));
  phase.restart_ms = now_ms() - t0;
  while (!svc.replicas().caught_up(kVictim) && now_ms() < t0 + 10'000.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  phase.catchup_ms = now_ms() - t0;
  sleep_until_ms(t_start + seconds * 1e3);
}

/// Storage totals at the start of the timed phase.
struct StorageMark {
  explicit StorageMark(StorageStats& st)
      : fsyncs(st.fsyncs.load()), env_bytes(st.env_bytes.load()),
        put_bytes(st.put_bytes.load()), ckpt(st.checkpoint_bytes.load()),
        busy_ns(st.busy_ns.load()) {
    static_cast<void>(st.fsync_ms.take());
  }
  std::uint64_t fsyncs, env_bytes, put_bytes, ckpt, busy_ns;
};

void report_storage(StorageStats& st, const StorageMark& m,
                    const Phase& phase, Report& report) {
  const double writes =
      std::max(1.0, static_cast<double>(phase.writes.count()));
  report.metric("storage.syncs_per_write",
                static_cast<double>(st.fsyncs.load() - m.fsyncs) / writes,
                "count");
  std::vector<double> fs = st.fsync_ms.take();
  report.metric("storage.sync_ms_p50", percentile(fs, 50), "ms");
  report.metric("storage.sync_ms_p99", percentile(fs, 99), "ms");
  report.metric("storage.busy_share",
                static_cast<double>(st.busy_ns.load() - m.busy_ns) / 1e6 /
                    (phase.elapsed_ms * kReplicas),
                "ratio");
  report.metric("storage.bytes_per_write",
                static_cast<double>(st.env_bytes.load() - m.env_bytes) / writes,
                "B");
  const auto put = static_cast<double>(st.put_bytes.load() - m.put_bytes);
  report.metric(
      "storage.checkpoint_byte_share",
      put > 0.0 ? static_cast<double>(st.checkpoint_bytes.load() - m.ckpt) / put
                : 0.0,
      "ratio");
}

/// The per-write layer budget from the ledger stamps: ordering (submit ->
/// a-delivery at the answering replica, the first to finish the apply),
/// storage (write-ahead record staged -> synced), apply (session layer and
/// state machine) and reply (apply end -> execute() returns).
Budget write_budget(Ledger& ledger) {
  Budget b;
  for (const OpStamps& op : ledger.take()) {
    if (op.submit < 0.0 || op.reply < 0.0) continue;
    std::size_t a = kMaxSlots;
    for (std::size_t i = 0; i < kMaxSlots; ++i) {
      if (op.apply_end[i] < 0.0 || op.apply_end[i] > op.reply) continue;
      if (a == kMaxSlots || op.apply_end[i] < op.apply_end[a]) a = i;
    }
    if (a == kMaxSlots) continue;
    const double arrive =
        op.deliver[a] >= 0.0 ? op.deliver[a] : op.apply_begin[a];
    const double synced = op.synced[a] >= 0.0 ? op.synced[a] : arrive;
    b.order.push_back(arrive - op.submit);
    b.storage.push_back(synced - arrive);
    b.apply.push_back(op.apply_end[a] - synced);
    b.reply.push_back(op.reply - op.apply_end[a]);
  }
  return b;
}

/// One stack lifetime: build (`setups` times, keeping the last), preload,
/// the timed phase and the output checks. With `probes`, also the
/// per-layer metrics.
Phase run_phase(const KvSpec& spec, const Args& args, Probes* probes,
                int setups, Report& report) {
  // Set-up: build the stack and time it to its first acknowledged write,
  // several times, keeping the last stack.
  Phase phase;
  std::vector<double> setup_ms;
  std::unique_ptr<KvStack> stack;
  const double t_builds = now_ms();
  for (int i = 0; more_setups(i, setups, now_ms() - t_builds); ++i) {
    stack.reset();
    const std::string dir = zdc::storage::join_path(
        args.work_dir,
        std::string(probes != nullptr ? "wal-t" : "wal-") + std::to_string(i));
    double ms = 0.0;
    stack = build(spec, args.seed * 1000 + static_cast<std::uint64_t>(i), dir,
                  probes, report, &ms);
    setup_ms.push_back(ms);
  }
  phase.setup_ms = percentile(setup_ms, 50);
  report.check("setup_writes_acknowledged", report.correct(),
               std::to_string(setup_ms.size()) + " builds");
  // Preload (untimed by the metrics): every key holds a value before the
  // timed phase.
  std::vector<std::unique_ptr<Session>> sessions =
      make_sessions(spec, stack->svc(), args.seed);
  const double t_preload = now_ms();
  on_every_session(sessions, [](Session& s) {
    for (const std::string& key : s.keys) s.put(key, nullptr, false);
  });
  phase.preload_ms = now_ms() - t_preload;
  rsm::ServiceGroup& svc = stack->svc();
  auto& cluster = svc.replicas().cluster();

  std::unique_ptr<RuntimeProbe> runtime_probe;
  std::unique_ptr<StorageMark> mark;
  Ledger* ledger = nullptr;
  if (probes != nullptr) {
    std::vector<zdc::obs::Gauge*> depth;
    for (ProcessId p = 0; p < kReplicas; ++p) {
      depth.push_back(&probes->registry.gauge("zdc_inproc_queue_depth",
                                              zdc::obs::process_label(p)));
    }
    static_cast<void>(probes->apply_us.take());
    mark = std::make_unique<StorageMark>(probes->storage);
    ledger = &probes->ledger;
    runtime_probe =
        std::make_unique<RuntimeProbe>(cluster.network(), std::move(depth));
  }

  const double cpu0 = cpu_ms();
  const double t_start = now_ms();
  const auto windows = static_cast<std::size_t>(args.seconds) + 1;
  std::atomic<double> crash_at{-1.0};
  for (auto& s : sessions) {
    s->writes.start(t_start, kWindowMs, windows);
    s->reads.start(t_start, kWindowMs, windows);
    if (spec.failover) s->crash_at = &crash_at;
  }
  std::atomic<bool> stop{false};
  // The timed phase ends when the sessions are told to stop; an operation
  // still in flight then (a write waiting out a retry) completes outside it.
  double t_stop = 0.0;
  {
    std::vector<std::thread> threads;
    for (auto& s : sessions) {
      threads.emplace_back([&s, &stop, &spec, ledger] {
        while (!stop.load(std::memory_order_relaxed)) {
          s->one_op(spec.read_share, ledger);
        }
      });
    }
    if (spec.failover) {
      run_failover_timeline(svc, t_start, args.seconds, crash_at, phase);
    } else {
      sleep_until_ms(t_start + args.seconds * 1e3);
    }
    t_stop = now_ms();
    stop.store(true);
    for (auto& t : threads) t.join();
  }
  phase.elapsed_ms = t_stop - t_start;
  phase.cpu_ms = cpu_ms() - cpu0;
  if (runtime_probe != nullptr) runtime_probe->stop();

  phase.start_ms = t_start;
  for (auto& s : sessions) {
    phase.writes.merge(s->writes);
    phase.reads.merge(s->reads);
    phase.all.merge(s->writes);
    phase.all.merge(s->reads);
  }
  phase.ok_ops = phase.all.count();
  for (auto& s : sessions) {
    phase.ok_ops -= std::min(phase.ok_ops, s->timed_failed);
  }
  if (spec.failover) {
    // Until the first reply to a write submitted after the crash: writes in
    // flight at the crash may still complete just after it.
    double first = -1.0;
    for (auto& s : sessions) {
      const double t = s->served_after_crash;
      if (t >= 0.0 && (first < 0.0 || t < first)) first = t;
    }
    phase.failover_ms = first - phase.crash_at;
  }

  // Output checks. 1) Replies: every PUT acknowledged, every read returned
  // the session's last acknowledged value, and each session's latest PUTs
  // read back through the client API.
  on_every_session(sessions, [](Session& s) {
    const std::size_t from =
        s.recent.size() > kReadBack ? s.recent.size() - kReadBack : 0;
    for (std::size_t i = from; i < s.recent.size(); ++i) {
      s.get(s.recent[i], false);
    }
  });
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  for (auto& s : sessions) {
    attempted += s->attempted;
    failed += s->failed;
    if (first_error.empty()) first_error = s->first_error;
  }
  report.ops(attempted, failed);
  report.check("client_replies_correct", failed == 0, first_error);

  // 2) Every replica, the restarted one too, settles on one state.
  const bool settled = settle(svc, 20'000.0);
  report.check("replicas_settle", settled);

  if (probes != nullptr) {
    report_storage(probes->storage, *mark, phase, report);
    const auto stats = svc.stats();
    const auto reads =
        static_cast<double>(stats.fast_reads + stats.ordered_reads);
    report.metric("service.fast_read_ratio",
                  reads > 0.0 ? static_cast<double>(stats.fast_reads) / reads
                              : 0.0,
                  "ratio");
    report.metric("service.retries_per_op",
                  static_cast<double>(stats.retries) /
                      std::max(1.0, static_cast<double>(attempted)),
                  "count");
    report.metric("recovery.catchup_entries",
                  static_cast<double>(counter_total(
                      probes->registry, "zdc_catchup_entries_applied_total")),
                  "count");
    report.metric("recovery.snapshots_installed",
                  static_cast<double>(svc.replicas().snapshots_installed(0)),
                  "count");
    report.metric("runtime.inproc_queue_depth_max", runtime_probe->depth_max(),
                  "count");
    report_schedule_delay(*runtime_probe, report);
    report_false_suspicions(cluster, report);
    report_cpu(phase.cpu_ms, phase.elapsed_ms,
               static_cast<double>(phase.ok_ops), report);
  }

  svc.shutdown();
  if (settled) {
    const std::string d0 = svc.replicas().digest(0);
    bool equal = true;
    for (ProcessId p = 1; p < kReplicas; ++p) {
      equal = equal && svc.replicas().digest(p) == d0;
    }
    report.check("replica_digests_equal", equal);
    // 3) Every acknowledged PUT is the value every replica holds.
    std::uint64_t missing = 0;
    for (ProcessId p = 0; p < kReplicas; ++p) {
      const zdc::core::KvStateMachine* kv = kv_of(svc, p);
      for (auto& s : sessions) {
        for (const auto& [key, value] : s->acked) {
          if (s->uncertain.count(key) != 0) continue;
          const auto got = kv != nullptr ? kv->lookup(key) : std::nullopt;
          if (!got || *got != value) ++missing;
        }
      }
    }
    report.check("acked_puts_on_every_replica", missing == 0,
                 std::to_string(missing) + " missing");
  }
  if (probes != nullptr) report_protocol(cluster, report);
  return phase;
}

struct EndToEnd {
  double ops_per_s = 0.0;
  double write_p50_ms = 0.0;
};

/// A phase's client-side numbers, as medians over its 1 s windows. The
/// end-to-end metrics go to `report` as metrics, the rest as info lines.
EndToEnd end_to_end(const KvSpec& spec, const Phase& phase, Report* report) {
  const double end = phase.start_ms + phase.elapsed_ms;
  EndToEnd e;
  e.ops_per_s = phase.all.rate(end);
  e.write_p50_ms = phase.writes.percentile(50, end);
  if (report == nullptr) return e;
  report->metric("setup_s", phase.setup_ms / 1e3, "s");
  report->metric("write_p50_ms", e.write_p50_ms, "ms");
  report->info("preload_s", phase.preload_ms / 1e3, "s");
  report->info("ops_per_s", e.ops_per_s, "1/s");
  report->metric("op_p50_ms", phase.all.percentile(50, end), "ms");
  report->info("write_p99_ms", phase.writes.percentile(99, end), "ms");
  report->info("writes", static_cast<double>(phase.writes.count()),
               "count");
  if (phase.reads.count() > 0) {
    report->info("reads", static_cast<double>(phase.reads.count()),
                 "count");
    report->info("read_p50_ms", phase.reads.percentile(50, end), "ms");
    report->info("read_p99_ms", phase.reads.percentile(99, end), "ms");
  }
  report->info("cpu_us_per_op",
               phase.cpu_ms * 1e3 /
                   std::max(1.0, static_cast<double>(phase.ok_ops)),
               "us");
  if (spec.failover) {
    report->info("failover_ms", phase.failover_ms, "ms");
    report->info("fd_detect_ms", phase.fd_detect_ms, "ms");
    report->info("restart_ms", phase.restart_ms, "ms");
    report->info("catchup_ms", phase.catchup_ms, "ms");
  }
  return e;
}

}  // namespace

void run_kv(const Args& args, Report& report) {
  const KvSpec spec = spec_for(args.workload);
  // End-to-end numbers come from an untraced stack; set-up is the median
  // over several builds (one in a traced run, which reports per-layer
  // metrics from a second, traced stack).
  const Phase plain =
      run_phase(spec, args, nullptr, args.trace ? 1 : kSetups, report);
  const EndToEnd e = end_to_end(spec, plain, &report);
  if (!args.trace) return;

  Probes probes;
  const Phase traced = run_phase(spec, args, &probes, 1, report);
  const EndToEnd t = end_to_end(spec, traced, nullptr);
  Budget b = write_budget(probes.ledger);
  report_budget(b, traced.writes.mean(), traced.writes.count(),
                kBudgetTolerance, report);
  report.metric("abcast.order_ms_p50", percentile(b.order, 50), "ms");
  report.metric("abcast.order_ms_p99", percentile(b.order, 99), "ms");
  report.metric("service.reply_ms_p50", percentile(b.reply, 50), "ms");
  std::vector<double> apply_us = probes.apply_us.take();
  report.metric("core.apply_us_p50", percentile(apply_us, 50), "us");
  report.metric("service.read_p50_ms", traced.reads.percentile_all(50),
                "ms");
  report.metric("service.read_p99_ms", traced.reads.percentile_all(99),
                "ms");
  if (spec.failover) {
    report.metric("recovery.restart_ms", traced.restart_ms, "ms");
    report.metric("recovery.catchup_ms", traced.catchup_ms, "ms");
    report.metric("recovery.failover_ms", traced.failover_ms, "ms");
    report.metric("runtime.fd_detect_ms", traced.fd_detect_ms, "ms");
  }
  report.metric("trace.overhead_write_p50_ms", t.write_p50_ms - e.write_p50_ms,
                "ms");
  report.metric("trace.overhead_ops_share",
                e.ops_per_s > 0.0 ? (e.ops_per_s - t.ops_per_s) / e.ops_per_s
                                  : 0.0,
                "ratio");
}

}  // namespace e2e
