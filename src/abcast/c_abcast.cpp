#include "abcast/c_abcast.h"

#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/log.h"
#include "consensus/l_consensus.h"
#include "consensus/p_consensus.h"
#include "consensus/wab_consensus.h"
#include "runtime/transport.h"

namespace zdc::abcast {

class CAbcast::InstanceHost final : public consensus::ConsensusHost {
 public:
  InstanceHost(CAbcast& outer, InstanceId k) : outer_(outer), k_(k) {}

  void send(ProcessId to, std::string bytes) override {
    outer_.host_.send(to, wrap(std::move(bytes)));
  }
  void broadcast(std::string bytes) override {
    outer_.host_.broadcast(wrap(std::move(bytes)));
  }
  void deliver_decision(const Value& v) override {
    outer_.on_instance_decided(k_, v);
  }

  void w_broadcast(std::uint64_t stage, std::string payload) override {
    // Consensus-internal oracle stages share the round's id space (stage 0 is
    // the round's own w-broadcast, so sub-stages start at 1).
    ZDC_ASSERT(stage > 0 && stage <= kStageMask);
    ++outer_.metrics_.w_broadcasts;
    outer_.host_.w_broadcast((k_ << kStageBits) | stage, std::move(payload));
  }

 private:
  /// Seals the whole frame, round id included: a flip in [kConsTag][k]
  /// must not re-route a valid body to another round's instance.
  [[nodiscard]] std::string wrap(std::string bytes) const {
    common::Encoder enc(1 + 8 + bytes.size());
    enc.put_u8(kConsTag);
    enc.put_u64(k_);
    enc.put_raw(bytes);
    return common::seal_frame(enc.take());
  }

  CAbcast& outer_;
  InstanceId k_;
};

struct CAbcast::Instance {
  explicit Instance(CAbcast& outer, InstanceId k) : host(outer, k) {}
  InstanceHost host;
  std::unique_ptr<consensus::Consensus> cons;
  std::optional<Value> decision;
  common::ProtocolMetrics final_metrics;  ///< captured at prune time
};

CAbcast::CAbcast(ProcessId self, GroupParams group, AbcastHost& host,
                 consensus::ConsensusFactory factory, std::string display_name)
    : AtomicBroadcast(self, group, host),
      factory_(std::move(factory)),
      display_name_(std::move(display_name)) {}

CAbcast::~CAbcast() = default;

CAbcast::Instance& CAbcast::instance(InstanceId k) {
  auto it = instances_.find(k);
  if (it == instances_.end()) {
    auto inst = std::make_unique<Instance>(*this, k);
    inst->cons = factory_(self_, group_, inst->host);
    // The C-Abcast frame carries the one seal (InstanceHost::wrap).
    inst->cons->set_frame_checksums(false);
    ++metrics_.consensus_instances;
    it = instances_.emplace(k, std::move(inst)).first;
  }
  return *it->second;
}

void CAbcast::submit(AppMessage m) {
  if (adelivered_.count(m.id) != 0) return;
  estimate_.emplace(m.id, std::move(m.payload));
  recheck_start_ = true;
  step();
}

void CAbcast::on_message(ProcessId from, std::string_view bytes) {
  std::string_view frame;
  if (!common::open_frame(bytes, &frame)) {
    ++metrics_.corrupt_frames_dropped;
    return;
  }
  common::Decoder dec(frame);
  const std::uint8_t tag = dec.get_u8();
  const InstanceId k = dec.get_u64();
  if (!dec.ok() || tag != kConsTag || k == 0) return;  // malformed
  if (k + kPruneWindow < round_) return;  // instance pruned, decision flooded
  Instance& inst = instance(k);
  if (inst.cons != nullptr) {
    call_instances([&] { inst.cons->on_message(from, dec.get_rest()); });
  }
  step();
}

void CAbcast::on_w_deliver(InstanceId raw, ProcessId origin,
                           const std::string& payload) {
  const InstanceId k = raw >> kStageBits;
  const InstanceId stage = raw & kStageMask;
  if (k == 0) return;  // malformed id
  if (stage != 0) {
    // Consensus-internal oracle traffic: route to the instance.
    if (k + kPruneWindow < round_) return;
    Instance& inst = instance(k);
    if (inst.cons != nullptr) {
      call_instances([&] { inst.cons->on_w_deliver(stage, origin, payload); });
    }
    step();
    return;
  }

  MsgSet batch;
  if (!decode_msg_set(payload, batch)) return;

  if (k >= round_) {
    // Record the round's first oracle output — the consensus proposal (line
    // 7) — and what the datagram carries, which is now in flight in round k.
    firsts_.emplace(k, payload);
    std::set<MsgId>& carried = in_flight_[k];
    for (const auto& [id, body] : batch) carried.insert(id);
  }

  // Line 16 (strengthened, see header): merge every w-delivered message that
  // has not been a-delivered into the estimate.
  for (auto& [id, body] : batch) {
    if (adelivered_.count(id) == 0) estimate_.emplace(id, std::move(body));
  }
  recheck_start_ = true;
  step();
}

void CAbcast::on_fd_change() {
  call_instances([&] {
    for (auto& [k, inst] : instances_) {
      if (inst->cons != nullptr) inst->cons->on_fd_change();
    }
  });
  step();
}

void CAbcast::on_instance_decided(InstanceId k, const Value& v) {
  // Always reached from inside call_instances: the caller's step() acts on it.
  Instance& inst = instance(k);
  inst.decision = v;
  if (inst.cons->decision_steps() == 1) {
    ++metrics_.one_step_decisions;
  } else {
    ++metrics_.slow_decisions;
  }
}

std::size_t CAbcast::encode_pending(InstanceId s, std::string* out) {
  // The sender rule (header): senders with an undelivered message in flight
  // in an earlier undecided round are held back, except for the messages
  // round s's own datagrams already carried.
  std::set<ProcessId> held;
  for (auto it = in_flight_.lower_bound(round_);
       it != in_flight_.end() && it->first < s; ++it) {
    for (const MsgId& id : it->second) {
      if (adelivered_.count(id) == 0) held.insert(id.sender);
    }
  }
  const auto seen_it = in_flight_.find(s);
  const std::set<MsgId>* seen =
      seen_it == in_flight_.end() ? nullptr : &seen_it->second;

  // Select the batch sender by sender in canonical order, skipping a held
  // sender's range of the estimate in one jump: under saturation every
  // sender is held and this costs O(senders), not O(estimate). Both caps
  // stop at the first message that does not fit, so each sender's share is
  // a prefix of its sequence (FIFO).
  constexpr std::size_t kMaxBatchBytes =
      runtime::kMaxMessageBytes - kFrameOverhead;
  std::vector<MsgSet::const_iterator> batch;
  std::size_t bytes = 4;
  bool full = false;
  const auto take = [&](MsgSet::const_iterator it) {
    const std::size_t grown = bytes + 16 + it->second.size();
    full = (max_batch_ != 0 && batch.size() >= max_batch_) ||
           (!batch.empty() && grown > kMaxBatchBytes);
    if (full) return;
    batch.push_back(it);
    bytes = grown;
  };
  for (auto it = estimate_.begin(); it != estimate_.end() && !full;) {
    const ProcessId sender = it->first.sender;
    const auto next_sender = estimate_.lower_bound(MsgId{sender + 1, 0});
    if (held.count(sender) == 0) {
      for (; it != next_sender && !full; ++it) take(it);
    } else if (seen != nullptr) {
      for (auto id = seen->lower_bound(MsgId{sender, 0});
           id != seen->end() && id->sender == sender && !full; ++id) {
        const auto pending = estimate_.find(*id);
        if (pending != estimate_.end()) take(pending);
      }
    }
    it = next_sender;
  }

  // Encode straight into a right-sized buffer; byte-identical to
  // encode_msg_set() of the equivalent MsgSet.
  common::Encoder enc(bytes);
  enc.put_u32(static_cast<std::uint32_t>(batch.size()));
  std::set<MsgId>& carried = in_flight_[s];
  for (const auto it : batch) {
    enc.put_u32(it->first.sender);
    enc.put_u64(it->first.seq);
    enc.put_string(it->second);
    carried.insert(it->first);
  }
  *out = enc.take();
  return batch.size();
}

void CAbcast::step() {
  if (driving_) return;  // re-entrancy from nested upcalls; outer loop resumes
  driving_ = true;
  for (;;) {
    // Lines 9-13: a stored decision for the next round to deliver completes
    // it, whether or not this process proposed — this is both the normal
    // completion and the catch-up path. Later rounds wait for it.
    const auto inst_it = instances_.find(round_);
    if (inst_it != instances_.end() && inst_it->second->decision.has_value()) {
      complete_round(*inst_it->second->decision);
      continue;
    }
    // propose may decide synchronously via a buffered DECIDE: re-evaluate.
    if (propose_ready()) continue;
    if (start_next_round()) continue;
    break;
  }
  driving_ = false;
}

bool CAbcast::propose_ready() {
  for (auto it = awaiting_first_.begin(); it != awaiting_first_.end(); ++it) {
    const InstanceId k = *it;
    const auto first_it = firsts_.find(k);
    if (first_it == firsts_.end()) continue;  // line 7: still waiting
    awaiting_first_.erase(it);
    Instance& inst = instance(k);
    // Line 8: propose the first oracle output of round k (unless a flooded
    // decision already settled it).
    if (inst.cons != nullptr && !inst.decision.has_value()) {
      inst.cons->propose(first_it->second);
    }
    return true;
  }
  return false;
}

bool CAbcast::start_next_round() {
  if (!recheck_start_ || next_start_ >= round_ + kPipelineWindow) {
    return false;
  }
  const InstanceId s = next_start_;
  // Lines 14-15: only start a round when there is something to order or
  // somebody else already started it.
  std::string batch;
  const std::size_t pending = encode_pending(s, &batch);
  if (pending == 0 && firsts_.find(s) == firsts_.end()) {
    recheck_start_ = false;
    return false;
  }
  // Line 6: w-broadcast the batch (possibly empty, if we were woken by
  // another process's round-s broadcast). Sub-stage 0 = the round itself.
  ++metrics_.w_broadcasts;
  host_.w_broadcast(s << kStageBits, std::move(batch));
  awaiting_first_.insert(s);
  ++next_start_;
  return true;
}

void CAbcast::complete_round(const Value& decision) {
  MsgSet batch;
  const bool ok = decode_msg_set(decision, batch);
  ZDC_ASSERT_MSG(ok, "consensus decided a malformed batch");

  // Lines 9-12: deliver the new messages atomically in canonical order.
  for (auto& [id, body] : batch) {
    if (adelivered_.count(id) != 0) continue;
    adelivered_.insert(id);
    estimate_.erase(id);
    AppMessage m;
    m.id = id;
    m.payload = std::move(body);
    deliver(m);
  }

  ++round_;
  if (next_start_ < round_) next_start_ = round_;  // caught up past them
  recheck_start_ = true;
  prune();
}

void CAbcast::prune() {
  while (!instances_.empty()) {
    auto it = instances_.begin();
    if (it->first + kPruneWindow >= round_) break;
    // Keep the transport accounting of pruned instances.
    metrics_.transport += it->second->cons != nullptr
                              ? it->second->cons->metrics()
                              : it->second->final_metrics;
    instances_.erase(it);
  }
  firsts_.erase(firsts_.begin(), firsts_.lower_bound(round_));
  in_flight_.erase(in_flight_.begin(), in_flight_.lower_bound(round_));
  awaiting_first_.erase(awaiting_first_.begin(),
                        awaiting_first_.lower_bound(round_));
}

void CAbcast::finalize_metrics() {
  for (auto& [k, inst] : instances_) {
    if (inst->cons == nullptr) continue;
    metrics_.transport += inst->cons->metrics();
    inst->final_metrics = inst->cons->metrics();
    inst->cons.reset();  // flush only at end of run; instances become inert
  }
}

std::unique_ptr<CAbcast> make_c_abcast_l(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::OmegaView& omega) {
  const fd::OmegaView* omega_ptr = &omega;
  consensus::ConsensusFactory factory =
      [omega_ptr](ProcessId s, GroupParams g, consensus::ConsensusHost& h) {
        return std::make_unique<consensus::LConsensus>(s, g, h, *omega_ptr);
      };
  return std::make_unique<CAbcast>(self, group, host, std::move(factory),
                                   "C-Abcast/L-Consensus");
}

std::unique_ptr<CAbcast> make_c_abcast_p(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::SuspectView& suspects) {
  const fd::SuspectView* suspects_ptr = &suspects;
  consensus::ConsensusFactory factory =
      [suspects_ptr](ProcessId s, GroupParams g, consensus::ConsensusHost& h) {
        return std::make_unique<consensus::PConsensus>(s, g, h, *suspects_ptr);
      };
  return std::make_unique<CAbcast>(self, group, host, std::move(factory),
                                   "C-Abcast/P-Consensus");
}

std::unique_ptr<CAbcast> make_wabcast(ProcessId self, GroupParams group,
                                      AbcastHost& host) {
  consensus::ConsensusFactory factory = [](ProcessId s, GroupParams g,
                                           consensus::ConsensusHost& h) {
    return std::make_unique<consensus::WabConsensus>(s, g, h);
  };
  return std::make_unique<CAbcast>(self, group, host, std::move(factory),
                                   "WABCast");
}

}  // namespace zdc::abcast
