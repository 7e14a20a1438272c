#include "sim/fabric.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "fault/corrupt.h"

namespace zdc::sim {

namespace {

/// The fault plan, checked against the group size before anything indexes
/// a per-process table with it.
fault::FaultPlan checked_plan(fault::FaultPlan plan, std::uint32_t n) {
  std::string error;
  if (!fault::check_plan(plan, n, &error)) {
    ZDC_ASSERT_MSG(false, error.c_str());
  }
  return plan;
}

const char* trace_kind_family(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPropose: return "zdc_sim_proposals_total";
    case TraceKind::kSend: return "zdc_sim_messages_sent_total";
    case TraceKind::kDeliver: return "zdc_sim_messages_delivered_total";
    case TraceKind::kWabSend: return "zdc_sim_wab_sent_total";
    case TraceKind::kWabDeliver: return "zdc_sim_wab_delivered_total";
    case TraceKind::kDecide: return "zdc_sim_decisions_total";
    case TraceKind::kCrash: return "zdc_sim_crashes_total";
    case TraceKind::kFdChange: return "zdc_sim_fd_changes_total";
    case TraceKind::kFault: return "zdc_sim_faults_total";
  }
  return "zdc_sim_unknown_total";
}

}  // namespace

void FabricClient::on_w_deliver(ProcessId /*from*/, ProcessId /*to*/,
                                std::uint64_t /*stage*/,
                                const std::string& /*body*/) {
  ZDC_ASSERT_MSG(false, "this world carries no oracle traffic");
}

void FabricClient::on_restart(ProcessId /*p*/) {
  ZDC_ASSERT_MSG(false, "this world is crash-stop; no restart support");
}

Fabric::Fabric(const RunOptions& opts, common::Rng lan_rng,
               fault::FaultPlan plan, FabricClient& client)
    : opts_(opts),
      plan_(checked_plan(std::move(plan), opts.group.n)),
      client_(client),
      n_(opts.group.n),
      lan_(opts.net, opts.group.n, lan_rng),
      fd_(opts.fd, opts.group.n, events_,
          [this](ProcessId p) {
            run_on_node(p, [this, p] { client_.on_fd_change(p); });
          }),
      policy_(opts.group.n),
      crashed_(opts.group.n, 0),
      truncations_(opts.group.n),
      blocked_(static_cast<std::size_t>(opts.group.n) * opts.group.n),
      paused_work_(opts.group.n) {
  lan_.set_link_policy(&policy_);
  if (opts.metrics == nullptr) return;
  for (std::size_t k = 0; k < kind_counters_.size(); ++k) {
    for (ProcessId p = 0; p < n_; ++p) {
      kind_counters_[k].push_back(&opts.metrics->counter(
          trace_kind_family(static_cast<TraceKind>(k)),
          obs::process_label(p)));
    }
  }
}

void Fabric::start(const std::vector<CrashSpec>& crashes) {
  std::vector<bool> initially_crashed(n_, false);
  for (const CrashSpec& c : crashes) {
    ZDC_ASSERT(c.p < n_);
    if (c.initial) {
      initially_crashed[c.p] = true;
      crashed_[c.p] = 1;
    }
  }
  fd_.initialize(initially_crashed);
}

void Fabric::schedule_crashes(const std::vector<CrashSpec>& crashes) {
  for (const CrashSpec& c : crashes) {
    if (c.initial) continue;
    if (c.truncate_broadcast_index > 0) {
      truncations_[c.p] = {c.truncate_broadcast_index, c.partial_targets, 0};
      continue;
    }
    events_.at(c.time, [this, p = c.p] { crash(p); });
    if (c.restart_time >= 0.0) {
      ZDC_ASSERT_MSG(c.restart_time > c.time,
                     "restart must come after the crash");
      events_.at(c.restart_time, [this, p = c.p] { restart(p); });
    }
  }
}

void Fabric::schedule_plan() {
  for (const fault::FaultAction& a : plan_.actions) {
    events_.at(a.time, [this, a] { apply_fault(a); });
  }
}

std::uint64_t Fabric::run(TimePoint time_limit, std::uint64_t event_limit,
                          const std::function<bool()>& done) {
  std::uint64_t executed = 0;
  while (executed < event_limit && !events_.empty() &&
         events_.now() <= time_limit) {
    events_.run_next();
    ++executed;
    if (done()) break;
  }
  return executed;
}

void Fabric::unicast(ProcessId from, ProcessId to, std::string bytes) {
  ZDC_ASSERT(to < n_);
  if (crashed(from)) return;
  trace(TraceKind::kSend, from, to);
  auto payload = std::make_shared<const std::string>(std::move(bytes));
  if (from == to) {
    send_to_self(from, payload);
  } else {
    send_remote(from, to, payload);
  }
}

void Fabric::broadcast(ProcessId from, std::string bytes) {
  if (crashed(from)) return;
  Truncation& cut = truncations_[from];
  const bool truncated = cut.at != 0 && ++cut.done == cut.at;
  auto payload = std::make_shared<const std::string>(std::move(bytes));
  // Equivocation (duplicate-divergent-send): this broadcast also puts a
  // divergent duplicate on the wire to every remote receiver, each copy
  // corrupted differently (the flipped bit varies by receiver). With frame
  // checksums on, every duplicate is a detectable drop; the total-order and
  // agreement oracles confirm the originals still carry the run.
  const bool equivocating = policy_.consume_equivocation(from);

  for (ProcessId to = 0; to < n_; ++to) {
    if (truncated && std::find(cut.targets.begin(), cut.targets.end(), to) ==
                         cut.targets.end()) {
      continue;
    }
    trace(TraceKind::kSend, from, to);
    if (to == from) {
      send_to_self(from, payload);
      continue;
    }
    const TimePoint tx_end = send_remote(from, to, payload);
    if (equivocating) {
      ++ledger_.equivocations;
      auto divergent = std::make_shared<const std::string>(
          fault::bit_flip_copy(*payload, fault::kMiddleByte, to % 8u));
      const TimePoint tx2 = lan_.occupy_medium(tx_end, divergent->size());
      transmit(from, to, tx2, divergent);
    }
  }

  if (truncated) crash(from);
}

void Fabric::w_broadcast(ProcessId from, std::uint64_t stage,
                         std::string payload, ProcessId only) {
  if (crashed(from)) return;
  trace(TraceKind::kWabSend, from);
  // The oracle is UDP broadcast: one CPU cost, one medium occupancy, and
  // independent per-receiver jitter — the jitter is what produces collisions
  // (different receivers seeing different firsts) under load. The sender
  // receives its own datagram through the same medium path (multicast echo):
  // this is what correlates the delivery order across *all* processes, the
  // physical basis of spontaneous order.
  auto body = std::make_shared<const std::string>(std::move(payload));
  const TimePoint sent = lan_.occupy_sender_cpu(from, events_.now());
  const TimePoint tx_end = lan_.occupy_medium(sent, body->size());
  for (ProcessId to = 0; to < n_; ++to) {
    if (only != kNoProcess && to != only) continue;
    if (to != from && lan_.drop_wab_datagram()) continue;
    // Best-effort datagrams on a cut or lossy link are simply gone — the
    // oracle has no retransmission (and does not need one).
    if (to != from && lan_.drop_best_effort(from, to)) continue;
    const TimePoint arrival =
        lan_.wab_arrival_time(tx_end) + lan_.best_effort_extra_delay_ms(from, to);
    events_.at(arrival, [this, from, to, stage, body] {
      run_on_node(to, [this, from, to, stage, body] {
        const TimePoint handled = lan_.occupy_receiver_cpu(to, events_.now());
        events_.at(handled, [this, from, to, stage, body] {
          run_on_node(to, [this, from, to, stage, body] {
            trace(TraceKind::kWabDeliver, to, from);
            client_.on_w_deliver(from, to, stage, *body);
          });
        });
      });
    });
  }
}

void Fabric::send_to_self(ProcessId p, const Bytes& bytes) {
  const TimePoint sent = lan_.occupy_sender_cpu(p, events_.now());
  events_.at(lan_.local_delivery(sent), [this, p, bytes] {
    run_on_node(p, [this, p, bytes] { deliver(p, p, bytes); });
  });
}

TimePoint Fabric::send_remote(ProcessId from, ProcessId to,
                              const Bytes& bytes) {
  const TimePoint sent = lan_.occupy_sender_cpu(from, events_.now());
  const TimePoint tx_end = lan_.occupy_medium(sent, bytes->size());
  transmit(from, to, tx_end, bytes);
  return tx_end;
}

void Fabric::transmit(ProcessId from, ProcessId to, TimePoint tx_end,
                      const Bytes& bytes) {
  if (policy_.link(from, to).blocked) {
    // TCP semantics: the connection stalls across the cut and resumes after
    // the heal — the bytes are parked, not lost (release_unblocked).
    blocked_[static_cast<std::size_t>(from) * n_ + to].push_back(bytes);
    return;
  }
  fault::CorruptSpec spec;
  if (policy_.consume_corruption(from, to, &spec)) {
    // Surface-then-retransmit: the corrupted frame arrives first (the
    // receiver's integrity layer sees — and drops — real garbage), and the
    // clean original follows one retransmission quantum later. The reliable
    // channel never loses data, so corruption costs latency, not liveness.
    ++ledger_.frames_corrupted;
    auto corrupted = std::make_shared<const std::string>(
        fault::bit_flip_copy(*bytes, spec.byte, spec.bit));
    schedule_arrival(from, to, tx_end, corrupted);
    schedule_arrival(from, to, tx_end + lan_.config().reliable_retransmit_ms,
                     bytes);
    return;
  }
  schedule_arrival(from, to, tx_end, bytes);
}

void Fabric::schedule_arrival(ProcessId from, ProcessId to, TimePoint tx_end,
                              const Bytes& bytes) {
  const TimePoint arrival =
      lan_.arrival_time(tx_end) + lan_.reliable_link_penalty_ms(from, to);
  events_.at(arrival, [this, from, to, bytes] {
    run_on_node(to, [this, from, to, bytes] {
      const TimePoint handled = lan_.occupy_receiver_cpu(to, events_.now());
      events_.at(handled, [this, from, to, bytes] {
        run_on_node(to, [this, from, to, bytes] { deliver(from, to, bytes); });
      });
    });
  });
}

void Fabric::deliver(ProcessId from, ProcessId to, const Bytes& bytes) {
  trace(TraceKind::kDeliver, to, from);
  client_.on_message(from, to, *bytes);
}

void Fabric::crash(ProcessId p) {
  if (crashed(p)) return;
  trace(TraceKind::kCrash, p);
  crashed_[p] = 1;
  client_.on_crash(p);
  fd_.on_crash(p);
}

void Fabric::restart(ProcessId p) {
  if (!crashed(p)) return;
  crashed_[p] = 0;
  fd_.on_restart(p);
  client_.on_restart(p);
}

void Fabric::apply_fault(const fault::FaultAction& a) {
  trace(TraceKind::kFault, a.p < n_ ? a.p : kNoProcess, kNoProcess,
        fault::to_string(a));
  switch (a.kind) {
    case fault::FaultKind::kCrash:
      crash(a.p);
      break;
    case fault::FaultKind::kRestart:
      restart(a.p);
      break;
    case fault::FaultKind::kPause:
      fault::apply_to_policy(a, policy_);
      fd_.on_pause(a.p);
      break;
    case fault::FaultKind::kResume:
      fault::apply_to_policy(a, policy_);
      fd_.on_resume(a.p);
      release_paused(a.p);
      break;
    default:
      // Link-table edits (partition/heal/isolate/link) and corruption
      // budgets: apply, then re-inject any parked traffic whose link just
      // re-opened.
      fault::apply_to_policy(a, policy_);
      release_unblocked();
      break;
  }
}

void Fabric::run_on_node(ProcessId p, std::function<void()> fn) {
  if (crashed(p)) return;
  if (policy_.paused(p)) {
    paused_work_[p].push_back(std::move(fn));
    return;
  }
  // Tag assertion failures inside the handler with (node, sim time).
  detail::AssertContextScope scope(p, events_.now());
  fn();
}

void Fabric::release_unblocked() {
  for (ProcessId from = 0; from < n_; ++from) {
    for (ProcessId to = 0; to < n_; ++to) {
      auto& parked = blocked_[static_cast<std::size_t>(from) * n_ + to];
      if (parked.empty() || policy_.link(from, to).blocked) continue;
      // The stalled connection resumes: everything parked goes back on the
      // wire now, in original send order.
      std::vector<Bytes> batch;
      batch.swap(parked);
      for (const auto& bytes : batch) transmit(from, to, events_.now(), bytes);
    }
  }
}

void Fabric::release_paused(ProcessId p) {
  if (paused_work_[p].empty()) return;
  auto work = std::make_shared<std::vector<std::function<void()>>>(
      std::move(paused_work_[p]));
  paused_work_[p] = {};
  events_.at(events_.now(), [this, p, work] {
    for (auto& fn : *work) run_on_node(p, fn);
  });
}

}  // namespace zdc::sim
