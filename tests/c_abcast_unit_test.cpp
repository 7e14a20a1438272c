// Message-level unit tests for the C-Abcast skeleton (Algorithm 3): round
// progression, the empty-round gating of lines 14-15, estimate merging (line
// 16), catch-up through flooded decisions, instance pruning, round
// pipelining with the per-sender FIFO rule, and the frame-size batch cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/c_abcast.h"
#include "check/invariants.h"
#include "direct_abcast_harness.h"
#include "fault/corrupt.h"
#include "runtime/transport.h"

namespace zdc::testing {
namespace {

constexpr GroupParams kGroup{4, 1};

DirectAbcastNet::Factory c_abcast_l_factory() {
  return [](ProcessId self, GroupParams group, abcast::AbcastHost& host,
            const fd::OmegaView& omega, const fd::SuspectView&) {
    return abcast::make_c_abcast_l(self, group, host, omega);
  };
}

abcast::CAbcast& as_cabcast(abcast::AtomicBroadcast& p) {
  return static_cast<abcast::CAbcast&>(p);
}

TEST(CAbcastUnit, IdleUntilFirstBroadcast) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  // Nothing a-broadcast: nobody w-broadcasts, nobody sends (lines 14-15).
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.pending_wab(p), 0u);
    for (ProcessId q = 0; q < 4; ++q) EXPECT_EQ(net.pending(p, q), 0u);
  }
}

TEST(CAbcastUnit, SingleMessageFlowsThroughOneRound) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  const abcast::MsgId id = net.a_broadcast(2, "hello");
  // p2 w-broadcast its estimate for round 1.
  EXPECT_EQ(net.pending_wab(2), 1u);
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(net.delivered(p)[0].id, id);
    EXPECT_EQ(net.delivered(p)[0].payload, "hello");
    EXPECT_EQ(as_cabcast(net.protocol(p)).current_round(), 2u);
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, WokenProcessesParticipateWithEmptyEstimates) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.a_broadcast(0, "m");
  // Deliver only p0's w-broadcast; the idle processes wake (line 15) and
  // w-broadcast their empty estimates to participate in round 1.
  ASSERT_TRUE(net.deliver_wab(0));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(net.pending_wab(p), 1u) << "woken p" << p << " must w-broadcast";
  }
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 1u);
  }
}

TEST(CAbcastUnit, ConcurrentBroadcastsAllDelivered) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  std::vector<abcast::MsgId> ids;
  for (ProcessId p = 0; p < 4; ++p) {
    ids.push_back(net.a_broadcast(p, "from-" + std::to_string(p)));
  }
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 4u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  // Integrity: exactly the broadcast ids, no duplicates.
  auto history = net.delivered(0);
  std::sort(history.begin(), history.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(history[i].id, ids[i]);
  }
}

TEST(CAbcastUnit, BatchesAccumulateWhileRoundRuns) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.a_broadcast(0, "first");
  // While round 1 is still undelivered, more messages pile up at p0 and p1.
  net.a_broadcast(0, "second");
  net.a_broadcast(1, "third");
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 3u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, OracleCollisionStillDeliversConsistently) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.set_leader_everywhere(0);
  const abcast::MsgId a = net.a_broadcast(0, "a");
  const abcast::MsgId b = net.a_broadcast(3, "b");
  // Collision: p0's round-1 estimate reaches p0/p1 first, p3's reaches p2/p3
  // first — proposals for consensus 1 differ.
  const std::vector<ProcessId> left = {0, 1};
  const std::vector<ProcessId> right = {2, 3};
  ASSERT_TRUE(net.deliver_wab(0, &left));
  ASSERT_TRUE(net.deliver_wab(3, &right));
  net.settle();
  // Both messages end up delivered everywhere, in the same order.
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 2u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  const auto& h = net.delivered(0);
  EXPECT_TRUE((h[0].id == a && h[1].id == b) ||
              (h[0].id == b && h[1].id == a));
}

TEST(CAbcastUnit, LaggardCatchesUpThroughFloodedDecisions) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  // Cut p3 off from everything except eventually re-delivered traffic: run
  // two rounds among p0..p2 while p3 receives nothing.
  const abcast::MsgId m1 = net.a_broadcast(0, "one");
  // Deliver only among 0..2 and their oracle traffic to 0..2.
  const std::vector<ProcessId> trio = {0, 1, 2};
  for (int iter = 0; iter < 200; ++iter) {
    bool progressed = false;
    for (ProcessId from = 0; from < 4; ++from) {
      if (net.pending_wab(from) > 0 && net.deliver_wab(from, &trio)) {
        progressed = true;
      }
      for (ProcessId to : trio) {
        if (net.deliver_one(from, to)) progressed = true;
      }
    }
    if (!progressed) break;
  }
  for (ProcessId p : trio) {
    ASSERT_EQ(net.delivered(p).size(), 1u) << "p" << p;
  }
  EXPECT_TRUE(net.delivered(3).empty());

  // Now p3 hears the world again: the DECIDE floods and (if needed) the
  // instance traffic let it catch up without having proposed anything.
  net.settle();
  ASSERT_EQ(net.delivered(3).size(), 1u);
  EXPECT_EQ(net.delivered(3)[0].id, m1);
  EXPECT_TRUE(net.total_order_ok());
}

TEST(CAbcastUnit, ManyRoundsAdvanceAndPruneInstances) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  for (int round = 0; round < 12; ++round) {
    net.a_broadcast(static_cast<ProcessId>(round % 4),
                    "m" + std::to_string(round));
    net.settle();
  }
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 12u);
    EXPECT_EQ(as_cabcast(net.protocol(p)).current_round(), 13u);
  }
  EXPECT_TRUE(net.total_order_ok());
  // Stale traffic for long-pruned instances must be ignored, not crash.
  common::Encoder enc;
  enc.put_u8(1);   // kConsTag
  enc.put_u64(1);  // instance 1, far below round 13
  enc.put_raw("zz");
  net.protocol(0).on_message(1, common::seal_frame(enc.take()));
  EXPECT_EQ(net.delivered(0).size(), 12u);
}

TEST(CAbcastUnit, MalformedTransportAndOracleInputIgnored) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.protocol(0).on_message(1, "");
  net.protocol(0).on_message(1, "x");
  net.protocol(0).on_w_deliver(1 << 20, 1, "not-a-msgset");
  net.a_broadcast(0, "still-works");
  net.settle();
  EXPECT_EQ(net.delivered(0).size(), 1u);
}

// Records what one C-Abcast process puts on the wire.
struct CaptureHost final : abcast::AbcastHost {
  void send(ProcessId /*to*/, std::string bytes) override {
    frames.push_back(std::move(bytes));
  }
  void broadcast(std::string bytes) override {
    frames.push_back(std::move(bytes));
  }
  void w_broadcast(InstanceId k, std::string payload) override {
    datagrams.emplace_back(k, std::move(payload));
  }
  void a_deliver(const abcast::AppMessage& /*m*/) override {}
  std::vector<std::string> frames;
  std::vector<std::pair<InstanceId, std::string>> datagrams;
};

TEST(CAbcastUnit, EveryBitFlipOfAFrameIsDroppedBeforeRouting) {
  // The seal covers the whole frame, the [tag][round] header included: a
  // flipped round id must not hand a valid consensus body to another
  // round's instance, and a flipped body must not even create its round's
  // instance. Every single-bit flip is a counted drop; the clean frame then
  // goes through.
  DirectAbcastNet::Fd fd;
  CaptureHost sender_host;
  auto sender = abcast::make_c_abcast_l(0, kGroup, sender_host, fd.omega);
  sender->a_broadcast("m");
  ASSERT_EQ(sender_host.datagrams.size(), 1u);
  sender->on_w_deliver(sender_host.datagrams[0].first, 0,
                       sender_host.datagrams[0].second);
  ASSERT_FALSE(sender_host.frames.empty()) << "round 1 proposal not sent";
  const std::string frame = sender_host.frames[0];

  CaptureHost receiver_host;
  auto receiver = abcast::make_c_abcast_l(1, kGroup, receiver_host, fd.omega);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      receiver->on_message(0, fault::bit_flip_copy(frame, byte, bit));
    }
  }
  EXPECT_EQ(receiver->metrics().consensus_instances, 0u)
      << "a corrupted frame reached a consensus instance";
  EXPECT_EQ(receiver->metrics().corrupt_frames_dropped, 8 * frame.size());

  receiver->on_message(0, frame);
  EXPECT_EQ(receiver->metrics().consensus_instances, 1u);
  EXPECT_EQ(receiver->metrics().corrupt_frames_dropped, 8 * frame.size());
}

// Delivers oracle datagrams (to `group` only) and transport messages among
// `group` until nothing moves; traffic from or to anyone else stays queued.
void settle_among(DirectAbcastNet& net, const std::vector<ProcessId>& group) {
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (ProcessId from : group) {
      // A partial oracle delivery re-queues the datagram: deliver each
      // datagram queued now once.
      for (std::size_t i = net.pending_wab(from); i > 0; --i) {
        net.deliver_wab(from, &group);
      }
      for (ProcessId to : group) {
        while (net.deliver_one(from, to)) progressed = true;
      }
    }
  }
}

TEST(CAbcastUnit, LateMessageCompletingManyBufferedRoundsIsSafe) {
  // p3 proposes in round 1 and then hears only the decisions of rounds 2..6;
  // the late message that decides round 1 there moves its round past
  // 1 + kPruneWindow in one go. Pruning used to run inside the decision
  // upcall and free instance 1 while L-Consensus was still executing on it
  // (a heap-use-after-free under ASan).
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.set_leader_everywhere(0);
  const std::vector<ProcessId> trio = {0, 1, 2};
  net.a_broadcast(0, "m1");
  ASSERT_TRUE(net.deliver_wab(0));  // everyone proposes p0's batch
  settle_among(net, trio);          // round 1 decides among p0..p2
  for (ProcessId p : trio) ASSERT_EQ(net.delivered(p).size(), 1u);
  // p3 gets the round-1 PROPs of p0 and p1 (two of the three it needs) and
  // loses the rest of round 1, the DECIDEs included.
  ASSERT_TRUE(net.deliver_one(0, 3));
  ASSERT_TRUE(net.deliver_one(1, 3));
  for (ProcessId p : trio) net.drop_edge(p, 3);
  for (int k = 2; k <= 6; ++k) {
    net.a_broadcast(0, "m" + std::to_string(k));
    settle_among(net, trio);
  }
  for (ProcessId p : trio) ASSERT_EQ(net.delivered(p).size(), 6u);
  // Rounds 2..6 reach p3: their decisions are buffered behind round 1.
  for (ProcessId p : trio) {
    while (net.deliver_one(p, 3)) {
    }
  }
  EXPECT_TRUE(net.delivered(3).empty());
  // p3's own round-1 PROP completes its quorum: round 1 decides inside
  // L-Consensus, and rounds 1..6 complete at once.
  ASSERT_TRUE(net.deliver_one(3, 3));
  ASSERT_EQ(net.delivered(3).size(), 6u);
  EXPECT_EQ(as_cabcast(net.protocol(3)).current_round(), 7u);
  net.settle();
  EXPECT_TRUE(net.total_order_ok());
  EXPECT_FALSE(check::check_fifo(net.histories(), net.submitted()).has_value());
}

TEST(CAbcastUnit, SecondSenderStartsNextRoundBeforeFirstDecides) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.a_broadcast(0, "a");
  // Everyone w-delivers p0's round-1 batch and proposes it; the PROPs stay
  // queued, so round 1 is undecided everywhere.
  ASSERT_TRUE(net.deliver_wab(0));
  ASSERT_EQ(net.pending_wab(1), 1u);  // p1's round-1 datagram
  // p1's own message does not wait for round 1: p1 w-broadcasts round 2.
  net.a_broadcast(1, "b");
  EXPECT_EQ(net.pending_wab(1), 2u);
  // p0's next message does wait: its "a" is still in flight in round 1.
  net.a_broadcast(0, "a2");
  EXPECT_EQ(net.pending_wab(0), 0u);
  for (ProcessId p = 0; p < 4; ++p) EXPECT_TRUE(net.delivered(p).empty());
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_EQ(net.delivered(p).size(), 3u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  EXPECT_FALSE(check::check_fifo(net.histories(), net.submitted()).has_value());
}

TEST(CAbcastUnit, SenderFifoSurvivesLosingACollision) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  net.set_leader_everywhere(1);
  const abcast::MsgId a1 = net.a_broadcast(0, "a1");
  const abcast::MsgId c = net.a_broadcast(3, "c");
  // Round 1 collides: p1..p3 see p3's batch first (and decide it with their
  // leader p1), p0 sees its own.
  const std::vector<ProcessId> others = {1, 2, 3};
  const std::vector<ProcessId> self = {0};
  ASSERT_TRUE(net.deliver_wab(3, &others));
  ASSERT_TRUE(net.deliver_wab(0, &self));
  // p0's next message arrives while a1 is in flight in round 1. It must not
  // overtake a1, which round 1 is about to leave out.
  const abcast::MsgId a2 = net.a_broadcast(0, "a2");
  net.settle();
  for (ProcessId p = 0; p < 4; ++p) {
    const auto& h = net.delivered(p);
    ASSERT_EQ(h.size(), 3u) << "p" << p;
    EXPECT_EQ(h[0].id, c) << "p" << p;
    EXPECT_EQ(h[1].id, a1) << "p" << p;
    EXPECT_EQ(h[2].id, a2) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  EXPECT_FALSE(check::check_fifo(net.histories(), net.submitted()).has_value());
}

TEST(CAbcastUnit, BatchesStayWithinTheTransportFrameLimit) {
  DirectAbcastNet net(kGroup, c_abcast_l_factory());
  const std::string kib(1024, 'x');
  for (int i = 0; i < 200; ++i) {
    net.a_broadcast(static_cast<ProcessId>(i % 4), kib + std::to_string(i));
  }
  net.settle();
  EXPECT_LE(net.largest_frame(), runtime::kMaxMessageBytes);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(net.delivered(p).size(), 200u) << "p" << p;
  }
  EXPECT_TRUE(net.total_order_ok());
  EXPECT_FALSE(check::check_fifo(net.histories(), net.submitted()).has_value());
}

}  // namespace
}  // namespace zdc::testing
