// Unit tests for the threaded in-process network: delivery, per-process
// serial handlers and the oracle channel's loss knob. Timers, pause, restart
// and crash semantics are checked for both transports in
// transport_contract_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/inproc_net.h"
#include "runtime/runtime_node.h"

namespace zdc::runtime {
namespace {

InprocNetwork::Config fast_net(std::uint32_t n) {
  InprocNetwork::Config cfg;
  cfg.n = n;
  cfg.seed = 42;
  cfg.min_delay_ms = 0.01;
  cfg.max_delay_ms = 0.05;
  return cfg;
}

TEST(InprocNet, UnicastReachesExactlyTheDestination) {
  InprocNetwork net(fast_net(3));
  std::vector<std::atomic<int>> got(3);
  for (ProcessId p = 0; p < 3; ++p) {
    net.set_handler(p, [&got, p](const Delivery& d) {
      if (d.channel == Channel::kProtocol && d.bytes == "ping") ++got[p];
    });
  }
  net.start();
  net.send(Channel::kProtocol, 0, 2, "ping");
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return got[2] == 1; }, 5000.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[1], 0);
  net.shutdown();
}

TEST(InprocNet, BroadcastIncludesSender) {
  InprocNetwork net(fast_net(3));
  std::vector<std::atomic<int>> got(3);
  for (ProcessId p = 0; p < 3; ++p) {
    net.set_handler(p, [&got, p](const Delivery&) { ++got[p]; });
  }
  net.start();
  net.broadcast(Channel::kProtocol, 1, "all");
  ASSERT_TRUE(RuntimeCluster::wait_until(
      [&] { return got[0] == 1 && got[1] == 1 && got[2] == 1; }, 5000.0));
  net.shutdown();
}

TEST(InprocNet, WabChannelCarriesInstanceId) {
  InprocNetwork net(fast_net(2));
  std::atomic<std::uint64_t> seen{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&seen](const Delivery& d) {
    if (d.channel == Channel::kWab) seen = d.wab_instance;
  });
  net.start();
  net.broadcast(Channel::kWab, 0, "oracle", 777);
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return seen == 777; }, 5000.0));
  net.shutdown();
}

TEST(InprocNet, WabLossDropsRemoteDatagrams) {
  InprocNetwork::Config cfg = fast_net(2);
  cfg.wab_loss_prob = 1.0;  // every oracle datagram is lost
  InprocNetwork net(cfg);
  std::atomic<int> wab_got{0};
  std::atomic<int> tcp_got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery& d) {
    if (d.channel == Channel::kWab) ++wab_got;
    if (d.channel == Channel::kProtocol) ++tcp_got;
  });
  net.start();
  for (int i = 0; i < 20; ++i) net.send(Channel::kWab, 0, 1, "gone");
  net.send(Channel::kProtocol, 0, 1, "kept");  // reliable channel unaffected
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return tcp_got == 1; }, 5000.0));
  EXPECT_EQ(wab_got, 0);
  net.shutdown();
}

TEST(InprocNet, HandlersRunSeriallyPerProcess) {
  InprocNetwork net(fast_net(2));
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> handled{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&](const Delivery&) {
    if (inside.fetch_add(1) != 0) overlapped = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    inside.fetch_sub(1);
    ++handled;
  });
  net.start();
  for (int i = 0; i < 50; ++i) net.send(Channel::kProtocol, 0, 1, "m");
  ASSERT_TRUE(RuntimeCluster::wait_until([&] { return handled == 50; },
                                         10'000.0));
  EXPECT_FALSE(overlapped) << "per-process handlers must be single-threaded";
  net.shutdown();
}

TEST(InprocNet, ShutdownIsIdempotentAndStopsDelivery) {
  InprocNetwork net(fast_net(2));
  std::atomic<int> got{0};
  net.set_handler(0, [](const Delivery&) {});
  net.set_handler(1, [&got](const Delivery&) { ++got; });
  net.start();
  net.send(Channel::kProtocol, 0, 1, "pre");
  RuntimeCluster::wait_until([&] { return got == 1; }, 5000.0);
  net.shutdown();
  net.shutdown();  // idempotent
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace zdc::runtime
