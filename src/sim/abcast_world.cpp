#include "sim/abcast_world.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "abcast/batching.h"
#include "abcast/c_abcast.h"
#include "abcast/paxos_abcast.h"
#include "common/assert.h"
#include "common/log.h"

namespace zdc::sim {

namespace {

class AbcastWorld final : public FabricClient {
 public:
  AbcastWorld(const AbcastRunConfig& cfg, const SimAbcastFactory& factory)
      : cfg_(cfg),
        rng_(cfg.seed),
        fabric_(cfg, rng_.fork(0x22), cfg.fault_plan, *this),
        workload_rng_(rng_.fork(0x33)) {
    build(factory);
  }

  AbcastRunResult run();

 private:
  struct Host final : abcast::AbcastHost {
    Host(AbcastWorld& world, ProcessId self) : world_(world), self_(self) {}
    void send(ProcessId to, std::string bytes) override {
      world_.fabric_.unicast(self_, to, std::move(bytes));
    }
    void broadcast(std::string bytes) override {
      world_.fabric_.broadcast(self_, std::move(bytes));
    }
    void w_broadcast(InstanceId k, std::string payload) override {
      world_.fabric_.w_broadcast(self_, k, std::move(payload));
    }
    void a_deliver(const abcast::AppMessage& m) override {
      world_.record_delivery(self_, m);
    }
    AbcastWorld& world_;
    ProcessId self_;
  };

  struct Node {
    std::unique_ptr<Host> host;
    std::unique_ptr<abcast::AtomicBroadcast> protocol;
    std::vector<abcast::MsgId> history;  ///< delivery order
    std::set<abcast::MsgId> delivered;
    bool duplicate_delivery = false;
    bool altered_delivery = false;  ///< a payload differing from the sent one
  };

  void on_message(ProcessId from, ProcessId to,
                  const std::string& bytes) override {
    nodes_[to].protocol->on_message(from, bytes);
  }
  void on_w_deliver(ProcessId from, ProcessId to, std::uint64_t stage,
                    const std::string& body) override {
    nodes_[to].protocol->on_w_deliver(stage, from, body);
  }
  void on_fd_change(ProcessId p) override {
    // The detectors' t=0 output arrives before the protocols exist.
    if (nodes_[p].protocol != nullptr) nodes_[p].protocol->on_fd_change();
  }

  void build(const SimAbcastFactory& factory);
  void schedule_workload();
  void record_delivery(ProcessId p, const abcast::AppMessage& m);
  [[nodiscard]] bool workload_complete() const;

  const AbcastRunConfig& cfg_;
  common::Rng rng_;
  Fabric fabric_;
  common::Rng workload_rng_;
  std::vector<Node> nodes_;
  /// Processes crashed by either CrashSpec or the fault plan — such senders'
  /// messages are not owed to everyone unless actually delivered somewhere.
  std::vector<bool> ever_crashes_;

  struct Tracked {
    TimePoint broadcast_time = 0.0;
    TimePoint first_delivery = -1.0;
    TimePoint sender_delivery = -1.0;
    std::uint32_t index = 0;  ///< submission index, for warmup filtering
    std::string payload;      ///< as a-broadcast, for the integrity check
  };
  std::map<abcast::MsgId, Tracked> tracked_;
  /// Messages every correct process must eventually deliver: everything sent
  /// by a process that never crashes, plus everything delivered anywhere.
  std::set<abcast::MsgId> expected_;
  std::uint32_t submitted_ = 0;
};

void AbcastWorld::build(const SimAbcastFactory& factory) {
  const std::uint32_t n = cfg_.group.n;
  ZDC_ASSERT_MSG(!cfg_.fault_plan.has(fault::FaultKind::kRestart),
                 "AbcastWorld is crash-stop; no restart support");
  nodes_.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    nodes_[p].host = std::make_unique<Host>(*this, p);
  }
  fabric_.start(cfg_.crashes);
  // Protocols are created after the FD holds its t=0 output: Paxos-Abcast
  // reads Ω in its constructor.
  for (ProcessId p = 0; p < n; ++p) {
    nodes_[p].protocol = factory(p, cfg_.group, *nodes_[p].host,
                                 fabric_.fd().omega_view(p),
                                 fabric_.fd().suspect_view(p));
    // Batching knobs: the factory signature is protocol-agnostic, so the
    // world applies them via the concrete types (defaults = legacy).
    abcast::configure_batching(*nodes_[p].protocol, cfg_.batching);
  }

  ever_crashes_.assign(n, false);
  for (const CrashSpec& c : cfg_.crashes) {
    ZDC_ASSERT_MSG(c.restart_time < 0.0,
                   "AbcastWorld is crash-stop; no restart support");
    ever_crashes_[c.p] = true;
  }
  fabric_.schedule_crashes(cfg_.crashes);
  for (const fault::FaultAction& a : cfg_.fault_plan.actions) {
    if (a.kind == fault::FaultKind::kCrash) ever_crashes_[a.p] = true;
  }
  fabric_.schedule_plan();

  schedule_workload();
}

void AbcastWorld::schedule_workload() {
  const double mean_gap_ms = 1000.0 / cfg_.throughput_per_s;
  TimePoint t = 1.0;  // small offset so FD initialization settles first
  for (std::uint32_t i = 0; i < cfg_.message_count; ++i) {
    t += workload_rng_.exponential(mean_gap_ms);
    const std::uint32_t index = i;
    fabric_.events().at(t, [this, index] {
      // Uniform random sender among the currently-alive eligible processes
      // (paused processes cannot execute, so they cannot originate either).
      std::vector<ProcessId> alive;
      if (cfg_.workload_senders.empty()) {
        for (ProcessId p = 0; p < nodes_.size(); ++p) {
          if (!fabric_.crashed(p) && !fabric_.paused(p)) alive.push_back(p);
        }
      } else {
        for (ProcessId p : cfg_.workload_senders) {
          if (p < nodes_.size() && !fabric_.crashed(p) && !fabric_.paused(p)) {
            alive.push_back(p);
          }
        }
      }
      if (alive.empty()) return;
      const ProcessId sender =
          alive[workload_rng_.next_below(alive.size())];
      std::string payload(cfg_.payload_bytes, 'x');
      fabric_.trace(TraceKind::kPropose, sender, kNoProcess,
                    "#" + std::to_string(index));
      Tracked tr;
      tr.broadcast_time = fabric_.now();
      tr.index = index;
      tr.payload = payload;
      const abcast::MsgId id =
          nodes_[sender].protocol->a_broadcast(std::move(payload));
      tracked_.emplace(id, std::move(tr));
      ++submitted_;
      // The sender is alive now; if it never crashes the message is owed to
      // every correct process. Senders with a scheduled future crash (spec or
      // fault plan) are handled by the "delivered anywhere" rule in
      // record_delivery.
      if (!ever_crashes_[sender]) expected_.insert(id);
    });
  }
}

void AbcastWorld::record_delivery(ProcessId p, const abcast::AppMessage& m) {
  Node& node = nodes_[p];
  if (!node.delivered.insert(m.id).second) {
    node.duplicate_delivery = true;  // Integrity violation
    return;
  }
  node.history.push_back(m.id);
  fabric_.trace(TraceKind::kDecide, p, m.id.sender,
                "s" + std::to_string(m.id.sender) + "/" +
                    std::to_string(m.id.seq));
  expected_.insert(m.id);  // agreement: once delivered anywhere, owed to all

  auto it = tracked_.find(m.id);
  if (it != tracked_.end()) {
    Tracked& tr = it->second;
    if (m.payload != tr.payload) node.altered_delivery = true;
    if (tr.first_delivery < 0.0) tr.first_delivery = fabric_.now();
    if (m.id.sender == p) tr.sender_delivery = fabric_.now();
  }
}

bool AbcastWorld::workload_complete() const {
  if (submitted_ < cfg_.message_count) return false;
  for (ProcessId p = 0; p < nodes_.size(); ++p) {
    const Node& node = nodes_[p];
    if (fabric_.crashed(p)) continue;
    // delivered ⊆ expected always holds, so size equality means coverage.
    if (node.delivered.size() < expected_.size()) return false;
  }
  return true;
}

AbcastRunResult AbcastWorld::run() {
  AbcastRunResult result;
  result.events_executed = fabric_.run(cfg_.time_limit_ms, cfg_.event_limit,
                                       [this] { return workload_complete(); });
  result.duration_ms = fabric_.now();

  // Latency samples (post-warmup messages that were delivered).
  const auto warmup_cutoff = static_cast<std::uint32_t>(
      cfg_.warmup_fraction * static_cast<double>(cfg_.message_count));
  obs::Histogram* latency_hist =
      cfg_.metrics == nullptr
          ? nullptr
          : &cfg_.metrics->histogram("zdc_sim_delivery_latency_ms", {});
  for (const auto& [id, tr] : tracked_) {
    if (tr.index < warmup_cutoff) continue;
    if (tr.first_delivery >= 0.0) {
      result.latency_ms.add(tr.first_delivery - tr.broadcast_time);
      // tracked_ is an ordered map, so histogram sums accumulate in a
      // deterministic order — part of the byte-identical-export contract.
      if (latency_hist != nullptr) {
        latency_hist->observe(tr.first_delivery - tr.broadcast_time);
      }
    }
    if (tr.sender_delivery >= 0.0) {
      result.sender_latency_ms.add(tr.sender_delivery - tr.broadcast_time);
    }
  }

  // Property checks over the complete histories.
  std::set<abcast::MsgId> delivered_union;
  for (Node& node : nodes_) {
    if (node.duplicate_delivery || node.altered_delivery) {
      result.integrity_ok = false;
    }
    for (const abcast::MsgId& id : node.history) {
      if (tracked_.find(id) == tracked_.end()) result.integrity_ok = false;
      delivered_union.insert(id);
    }
  }
  result.delivered_unique = delivered_union.size();

  // Total order: pairwise prefix consistency of delivery histories.
  for (std::size_t a = 0; a < nodes_.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes_.size(); ++b) {
      const auto& ha = nodes_[a].history;
      const auto& hb = nodes_[b].history;
      const std::size_t common_len = std::min(ha.size(), hb.size());
      for (std::size_t i = 0; i < common_len; ++i) {
        if (ha[i] != hb[i]) {
          result.total_order_ok = false;
          break;
        }
      }
    }
  }

  // Agreement / validity: every correct process holds every expected message.
  for (ProcessId p = 0; p < nodes_.size(); ++p) {
    const Node& node = nodes_[p];
    if (fabric_.crashed(p)) continue;
    for (const abcast::MsgId& id : expected_) {
      if (node.delivered.find(id) == node.delivered.end()) {
        ++result.undelivered;
        result.agreement_ok = false;
      }
    }
  }

  static_cast<CorruptionLedger&>(result) = fabric_.ledger();
  ProcessId metric_p = 0;
  for (Node& node : nodes_) {
    node.protocol->finalize_metrics();
    const abcast::AbcastMetrics& m = node.protocol->metrics();
    result.totals.a_broadcasts += m.a_broadcasts;
    result.totals.a_deliveries += m.a_deliveries;
    result.totals.w_broadcasts += m.w_broadcasts;
    result.totals.consensus_instances += m.consensus_instances;
    result.totals.transport += m.transport;
    result.totals.corrupt_frames_dropped += m.corrupt_frames_dropped;
    result.corrupt_frames_dropped += m.corrupt_frames_dropped;
    if (cfg_.metrics != nullptr) {
      cfg_.metrics
          ->counter("zdc_sim_rounds_total", obs::process_label(metric_p))
          .inc(m.consensus_instances);
    }
    ++metric_p;
  }
  result.histories.reserve(nodes_.size());
  for (Node& node : nodes_) result.histories.push_back(std::move(node.history));
  return result;
}

}  // namespace

SimAbcastFactory abcast_factory_by_name(const std::string& name) {
  if (name == "c-l") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView& omega, const fd::SuspectView&) {
      return abcast::make_c_abcast_l(self, group, host, omega);
    };
  }
  if (name == "c-p") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView&, const fd::SuspectView& suspects) {
      return abcast::make_c_abcast_p(self, group, host, suspects);
    };
  }
  if (name == "wabcast") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView&, const fd::SuspectView&) {
      return abcast::make_wabcast(self, group, host);
    };
  }
  if (name == "paxos") {
    return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
              const fd::OmegaView& omega, const fd::SuspectView&) {
      return std::make_unique<abcast::PaxosAbcast>(self, group, host, omega);
    };
  }
  ZDC_ASSERT_MSG(false, "unknown abcast protocol name");
  return {};
}

AbcastRunResult run_abcast(const AbcastRunConfig& cfg,
                           const SimAbcastFactory& factory) {
  AbcastWorld world(cfg, factory);
  return world.run();
}

}  // namespace zdc::sim
