// Tests for the loopback-UDP transport: basic delivery, the ARQ reliable
// channel under artificial datagram loss, unicast into a crashed process,
// and a full replicated-KV cluster running over real sockets. Timers, pause,
// restart and crash isolation are checked for both transports in
// transport_contract_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/kv_store.h"
#include "core/rsm.h"
#include "runtime/runtime_node.h"
#include "runtime/udp_net.h"

namespace zdc::runtime {
namespace {

UdpNetwork::Config udp_config(std::uint32_t n, double drop = 0.0) {
  UdpNetwork::Config cfg;
  cfg.n = n;
  cfg.seed = 77;
  cfg.retransmit_interval_ms = 5.0;
  cfg.drop_prob = drop;
  return cfg;
}

TEST(UdpNet, BindsDistinctLoopbackPorts) {
  UdpNetwork net(udp_config(4));
  std::set<std::uint16_t> ports;
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_GT(net.port(p), 0);
    ports.insert(net.port(p));
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(UdpNet, ReliableUnicastArrives) {
  UdpNetwork net(udp_config(2));
  std::atomic<int> got{0};
  std::string received;
  std::mutex mu;
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    std::lock_guard<std::mutex> lock(mu);
    received = d.bytes;
    ++got;
  });
  net.start();
  net.send(Channel::kProtocol, 0, 1, "over-the-wire");
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return got == 1; }, 10'000.0));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(received, "over-the-wire");
  net.shutdown();
}

TEST(UdpNet, ReliableChannelSurvivesHeavyLoss) {
  // 40% of all inbound datagrams (data AND acks) are dropped; the ARQ must
  // still deliver every reliable message exactly once.
  UdpNetwork net(udp_config(2, 0.4));
  constexpr int kMessages = 60;
  std::mutex mu;
  std::vector<std::string> received;
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    if (d.channel != Channel::kProtocol) return;
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(d.bytes);
  });
  net.start();
  for (int i = 0; i < kMessages; ++i) {
    net.send(Channel::kProtocol, 0, 1, "msg-" + std::to_string(i));
  }
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return received.size() >= kMessages;
      },
      30'000.0))
      << "ARQ failed to push messages through 40% loss";
  // Exactly once: no duplicates despite retransmissions.
  std::lock_guard<std::mutex> lock(mu);
  std::set<std::string> unique(received.begin(), received.end());
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(net.retransmissions(), 0u) << "loss must have forced retransmits";
  net.shutdown();
}

TEST(UdpNet, BestEffortChannelsDoNotRetransmit) {
  UdpNetwork net(udp_config(2, 1.0));  // everything inbound dropped
  std::atomic<int> got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery&) { ++got; });
  net.start();
  for (int i = 0; i < 10; ++i) {
    net.send(Channel::kWab, 0, 1, "oracle", 7);
    net.send(Channel::kHeartbeat, 0, 1, "");
  }
  // Give the stack a moment; nothing may arrive and nothing may queue up
  // for retransmission (best-effort channels carry no ARQ state).
  RuntimeCluster::wait_until([&] { return false; }, 100.0);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.retransmissions(), 0u);
  net.shutdown();
}

TEST(UdpNet, BroadcastReachesAllIncludingSelf) {
  UdpNetwork net(udp_config(3));
  std::vector<std::atomic<int>> got(3);
  for (ProcessId p = 0; p < 3; ++p) {
    net.set_handler(p, [&got, p](const Delivery&) { ++got[p]; });
  }
  net.start();
  net.broadcast(Channel::kProtocol, 1, "to-everyone");
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] { return got[0] == 1 && got[1] == 1 && got[2] == 1; }, 10'000.0));
  net.shutdown();
}

TEST(UdpNet, CrashStopsTraffic) {
  UdpNetwork net(udp_config(2));
  std::atomic<int> got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery&) { ++got; });
  net.start();
  net.crash(1);
  net.send(Channel::kProtocol, 0, 1, "into-the-void");
  RuntimeCluster::wait_until([&] { return false; }, 100.0);
  EXPECT_EQ(got, 0);
  EXPECT_TRUE(net.crashed(1));
  net.shutdown();
}

// The whole stack over real sockets: 4 replicas, C-Abcast/L, heartbeat ◇P,
// replicated KV — convergence to identical snapshots, even with datagram
// loss underneath the ARQ.
TEST(UdpCluster, ReplicatedKvConvergesOverRealSockets) {
  std::vector<std::unique_ptr<core::ReplicatedStateMachine>> rsms;
  for (int i = 0; i < 4; ++i) {
    rsms.push_back(std::make_unique<core::ReplicatedStateMachine>(
        std::make_unique<core::KvStateMachine>()));
  }
  RuntimeCluster::Config cfg;
  cfg.group = GroupParams{4, 1};
  cfg.transport = RuntimeCluster::TransportKind::kUdp;
  cfg.udp.retransmit_interval_ms = 5.0;
  cfg.udp.drop_prob = 0.05;  // a little real pain for the ARQ
  cfg.kind = ProtocolKind::kCAbcastL;
  cfg.fd.interval_ms = 10.0;
  cfg.fd.initial_timeout_ms = 200.0;  // loss-tolerant heartbeat timeout
  RuntimeCluster cluster(cfg,
                         [&rsms](ProcessId p, const abcast::AppMessage& m) {
                           rsms[p]->on_delivered(m);
                         });
  for (ProcessId p = 0; p < 4; ++p) {
    rsms[p]->bind_submit([&cluster, p](std::string cmd) {
      cluster.node(p).a_broadcast(std::move(cmd));
    });
  }
  cluster.start();

  constexpr int kWrites = 10;
  for (int i = 0; i < kWrites; ++i) {
    for (ProcessId p = 0; p < 4; ++p) {
      rsms[p]->submit(core::kv_put(
          "udp-" + std::to_string(p) + "-" + std::to_string(i), "v"));
    }
  }
  const std::uint64_t expected = kWrites * 4;
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] {
        for (const auto& rsm : rsms) {
          if (rsm->applied_count() < expected) return false;
        }
        return true;
      },
      60'000.0))
      << "replicas did not converge over UDP";
  cluster.shutdown();

  const std::string reference = rsms[0]->machine().snapshot();
  for (int p = 1; p < 4; ++p) {
    EXPECT_EQ(rsms[p]->machine().snapshot(), reference) << "replica " << p;
  }
}

}  // namespace
}  // namespace zdc::runtime
