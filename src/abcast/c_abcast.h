// C-Abcast — Algorithm 3 of the paper (Sec. 7).
//
// Reduces atomic broadcast to a sequence of consensus instances (one per
// round k), seeding each instance's proposals through the WAB ordering
// oracle so that, absent collisions, all processes propose the *same* batch
// and the one-step consensus path fires:
//
//   loop:
//     6:  w-broadcast(k, estimate)          — the pending-message batch
//     7:  wait for the first w-delivery of round k → v
//     8:  msgSet ← Consensus(k, v)
//     9-12: a-deliver msgSet − adelivered atomically in canonical order;
//           estimate ← estimate − adelivered
//     13: k ← k+1
//     14: if estimate = ∅: wait until a round-k w-delivery arrives or
//         estimate ≠ ∅                      — don't spin empty rounds
//   line 16 (concurrent): every w-delivered message joins the estimate, so no
//   a-broadcast message is ever lost.
//
// End-to-end latency: 1δ for the oracle + 1 consensus step when the oracle
// output collided nowhere (2δ total), + 1 more consensus step in stable runs
// with collisions (3δ total) — the headline rows of Table 1.
//
// The consensus module is pluggable (ConsensusFactory): L-Consensus and
// P-Consensus give the paper's protocol; WabConsensus gives the WABCast
// baseline; Paxos gives a CT-style reduction for ablations.
//
// Engineering notes (divergences documented in DESIGN.md):
//  * every w-delivered message is merged into the estimate (the paper merges
//    "the second, third, etc."); the proposed one is removed again when it is
//    a-delivered, and keeping it is what makes Validity robust to a process
//    skipping a round via a forwarded decision;
//  * decisions may arrive (via the DECIDE flood) for rounds this process has
//    not reached; they are stored and replayed in order — the catch-up path;
//  * consensus instances older than the current round are pruned; a laggard
//    never needs their PROPs because the round's decision was flooded;
//  * rounds are pipelined (divergence from the strictly sequential loop of
//    Alg. 3): up to kPipelineWindow rounds run their w-broadcast and
//    consensus at once, so a message that arrives while round k decides is
//    ordered in round k+1 instead of queueing behind k. Decisions are still
//    a-delivered strictly in round order. Per-sender FIFO is kept by the
//    sender rule: a new round s leaves out every message whose sender still
//    has a message in flight in an earlier undecided round (round_ <= r < s)
//    at this process, except the messages this process already saw in round
//    s's own datagrams (so a woken process proposes what the originator
//    did). A message counts as in flight in round r once any round-r
//    datagram carrying it is w-broadcast or w-delivered here. Under
//    saturation every sender has something in flight and the rule falls back
//    to sequential rounds by itself;
//  * a round's batch is capped in bytes so that its PROP frame fits
//    runtime::kMaxMessageBytes; the rest rides later rounds;
//  * the CRC seal (common::seal_frame) covers the whole frame, the
//    [kConsTag][k] header included, and the instances run unsealed: a flip
//    in the round id is a counted drop (metrics().corrupt_frames_dropped),
//    never a valid body handed to another round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "abcast/abcast.h"
#include "consensus/consensus.h"
#include "fd/failure_detector.h"

namespace zdc::abcast {

struct BatchingOptions;
void configure_batching(AtomicBroadcast& protocol, const BatchingOptions& opts);

class CAbcast final : public AtomicBroadcast {
 public:
  /// `factory` stamps one consensus instance per round; `display_name` keeps
  /// benches readable ("C-Abcast/L", "WABCast", ...).
  CAbcast(ProcessId self, GroupParams group, AbcastHost& host,
          consensus::ConsensusFactory factory, std::string display_name);
  ~CAbcast() override;

  void on_message(ProcessId from, std::string_view bytes) override;
  void on_w_deliver(InstanceId k, ProcessId origin,
                    const std::string& payload) override;
  void on_fd_change() override;

  [[nodiscard]] std::string name() const override { return display_name_; }

  /// Next round to a-deliver (1-based); for tests.
  [[nodiscard]] InstanceId current_round() const { return round_; }

  /// The per-round batch cap is configured exclusively through
  /// BatchingOptions::c_abcast_max_batch via abcast::configure_batching
  /// (see abcast/batching.h for the knob's semantics).
  friend void configure_batching(AtomicBroadcast& protocol,
                                 const BatchingOptions& opts);
  /// Aggregates transport metrics of all live consensus instances into
  /// metrics().transport; live instances become inert afterwards.
  void finalize_metrics() override;

 protected:
  void submit(AppMessage m) override;

 private:
  static constexpr std::uint8_t kConsTag = 1;
  /// Consensus instances this far behind the current round are pruned.
  static constexpr InstanceId kPruneWindow = 4;
  /// Rounds run at once: rounds [round_, round_ + kPipelineWindow) may be
  /// w-broadcast and deciding while round_ is not yet a-delivered.
  static constexpr InstanceId kPipelineWindow = 2;
  /// Room left in a frame for the C-Abcast and consensus headers around a
  /// batch (instance tag and id, wire seal, message tag, round, length,
  /// leader id), so a batch of at most kMaxMessageBytes - kFrameOverhead
  /// bytes keeps every PROP/DECIDE frame within the transport's limit.
  static constexpr std::size_t kFrameOverhead = 64;
  /// Oracle instance-id layout: the high bits carry the C-Abcast round, the
  /// low bits a consensus-internal sub-stage (0 = the round's own
  /// w-broadcast, >0 = WabConsensus recovery stages).
  static constexpr unsigned kStageBits = 20;
  static constexpr InstanceId kStageMask = (InstanceId{1} << kStageBits) - 1;

  struct Instance;
  /// ConsensusHost adapter framing instance traffic as
  /// seal([kConsTag][k][bytes]); the instances themselves run unsealed.
  class InstanceHost;

  Instance& instance(InstanceId k);
  void on_instance_decided(InstanceId k, const Value& v);
  /// Runs `fn` (a call into a consensus instance) with the step() guard
  /// held: a decision upcall only records the decision, and the caller's
  /// step() completes the rounds and prunes once no instance code is on the
  /// stack. Pruning inside the upcall would free the instance whose code is
  /// still running.
  template <typename Fn>
  void call_instances(Fn&& fn) {
    const bool outer = driving_;
    driving_ = true;
    fn();
    driving_ = outer;
  }
  /// Drives the state machine until it blocks on an external event.
  void step();
  /// Line 8 for the first started round whose first oracle output arrived;
  /// returns whether it proposed.
  bool propose_ready();
  /// Line 6 for round next_start_ (lines 14-15: only when there is something
  /// to order or another process started it); returns whether it started.
  bool start_next_round();
  void complete_round(const Value& decision);
  void prune();
  /// Encodes round s's batch straight into msg-set wire format and records
  /// its ids as in flight in round s. The batch is the estimate minus what
  /// the sender rule (see header) holds back, in canonical order, capped by
  /// max_batch_ and by the frame size. Returns the batch size.
  std::size_t encode_pending(InstanceId s, std::string* out);

  consensus::ConsensusFactory factory_;
  std::string display_name_;

  InstanceId round_ = 1;       ///< next round to a-deliver
  InstanceId next_start_ = 1;  ///< next round to w-broadcast (line 6)
  /// Started rounds still waiting for their first w-delivery (line 7).
  std::set<InstanceId> awaiting_first_;
  /// Set by every event that can make round next_start_ startable (a new
  /// message, an oracle delivery, a completed round); cleared when
  /// start_next_round finds nothing to start, so consensus traffic does not
  /// rescan the estimate.
  bool recheck_start_ = true;
  bool driving_ = false;  ///< re-entrancy guard for step()
  /// Per-round cap on messages w-broadcast (and hence ordered); 0 = whole
  /// estimate per round (the paper's algorithm). Excess messages stay in the
  /// estimate and ride later rounds — a batching-vs-latency design knob
  /// benched in bench_ablation_batch. Set via configure_batching.
  std::size_t max_batch_ = 0;

  /// Every known message not yet a-delivered (lines 12 and 16).
  MsgSet estimate_;
  std::set<MsgId> adelivered_;
  /// First w-delivered oracle value per instance (the consensus proposal).
  std::map<InstanceId, Value> firsts_;
  /// Per undelivered round: the ids carried by its datagrams that this
  /// process w-broadcast or w-delivered (the sender rule's input).
  std::map<InstanceId, std::set<MsgId>> in_flight_;
  std::map<InstanceId, std::unique_ptr<Instance>> instances_;
};

/// The paper's protocol stacks, by name.
std::unique_ptr<CAbcast> make_c_abcast_l(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::OmegaView& omega);
std::unique_ptr<CAbcast> make_c_abcast_p(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::SuspectView& suspects);
/// WABCast baseline: the same skeleton with the oracle-driven WabConsensus.
std::unique_ptr<CAbcast> make_wabcast(ProcessId self, GroupParams group,
                                      AbcastHost& host);

}  // namespace zdc::abcast
