// The runtime Transport contract, checked once over both implementations
// (in-process mailboxes and loopback UDP): what every layer above relies on
// from the executor lane each process runs on.
//   * timers run on the process's own thread (the one its handlers run on),
//     in due order;
//   * schedule(p, 0) from a foreign thread runs promptly — it wakes the lane
//     instead of waiting out a poll slice;
//   * a timer fires on its due time, not a timer-slack later;
//   * a reliable send to oneself is a local delivery: no injected delay, no
//     datagram; a best-effort self-send still takes the wire;
//   * pause freezes handlers and timers alike, and resume runs the backlog
//     at once;
//   * restart wipes everything the dead incarnation had queued;
//   * a crashed process neither sends nor receives, nor runs timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/inproc_net.h"
#include "runtime/transport.h"
#include "runtime/udp_net.h"
#include "test_sync.h"

namespace zdc::runtime {
namespace {

using std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

enum class Kind { kInproc, kUdp };

/// Median delay bound of a foreign-thread schedule(p, 0). A lane wakes on
/// the post; a transport that waits for its next poll instead (a 7 ms slice
/// at UDP's default retransmit interval) misses it by a wide margin.
constexpr double kForeignScheduleMedianMs = 3.0;
/// How soon after resume() a paused process's backlog must have run.
constexpr milliseconds kResumeBound{100};
/// Median lateness bound of a sub-millisecond lane timer. Linux's default
/// 50 us timer slack alone puts a lane that keeps it above this.
constexpr double kTimerLatenessMedianUs = 35.0;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

class TransportContract : public ::testing::TestWithParam<Kind> {
 protected:
  /// Default wire settings apart from short inproc delays (or
  /// `inproc_delay_ms` on every inproc hop, when set): the UDP ARQ runs at
  /// its stock retransmit interval.
  std::unique_ptr<Transport> make(std::uint32_t n,
                                  obs::MetricsRegistry* metrics = nullptr,
                                  double inproc_delay_ms = 0.0) const {
    if (GetParam() == Kind::kInproc) {
      InprocNetwork::Config cfg;
      cfg.n = n;
      cfg.seed = 42;
      cfg.min_delay_ms = inproc_delay_ms > 0.0 ? inproc_delay_ms : 0.01;
      cfg.max_delay_ms = inproc_delay_ms > 0.0 ? inproc_delay_ms : 0.05;
      cfg.metrics = metrics;
      return std::make_unique<InprocNetwork>(cfg);
    }
    UdpNetwork::Config cfg;
    cfg.n = n;
    cfg.seed = 77;
    cfg.metrics = metrics;
    return std::make_unique<UdpNetwork>(cfg);
  }
};

TEST_P(TransportContract, TimersFireOnTheOwnerThreadInDueOrder) {
  std::mutex mu;
  std::thread::id handler_thread;
  std::vector<std::pair<int, std::thread::id>> fired;
  auto net = make(2);
  net->set_handler(0, [&](const Delivery&) {
    std::lock_guard<std::mutex> lock(mu);
    handler_thread = std::this_thread::get_id();
  });
  net->set_handler(1, [](const Delivery&) {});
  net->start();
  net->send(Channel::kProtocol, 1, 0, "who-runs-p0");
  ASSERT_TRUE(testing::poll_until([&] {
    std::lock_guard<std::mutex> lock(mu);
    return handler_thread != std::thread::id();
  }));

  for (const int delay : {30, 1, 15, 5}) {
    net->schedule(0, delay, [&, delay] {
      std::lock_guard<std::mutex> lock(mu);
      fired.emplace_back(delay, std::this_thread::get_id());
    });
  }
  ASSERT_TRUE(testing::poll_until([&] {
    std::lock_guard<std::mutex> lock(mu);
    return fired.size() == 4;
  }));
  net->shutdown();

  std::lock_guard<std::mutex> lock(mu);
  std::vector<int> order;
  for (const auto& [delay, thread] : fired) {
    order.push_back(delay);
    EXPECT_EQ(thread, handler_thread) << "timer " << delay << " ms";
  }
  EXPECT_EQ(order, (std::vector<int>{1, 5, 15, 30}));
  EXPECT_NE(handler_thread, std::this_thread::get_id());
}

TEST_P(TransportContract, ForeignScheduleRunsPromptly) {
  auto net = make(2);
  net->set_handler(0, [](const Delivery&) {});
  net->set_handler(1, [](const Delivery&) {});
  net->start();
  std::vector<double> delays;
  for (int i = 0; i < 21; ++i) {
    auto ran = std::make_shared<std::promise<double>>();
    std::future<double> delay = ran->get_future();
    const Clock::time_point posted = Clock::now();
    net->schedule(0, 0.0,
                  [ran, posted] { ran->set_value(elapsed_ms(posted)); });
    ASSERT_EQ(delay.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    delays.push_back(delay.get());
  }
  net->shutdown();
  std::sort(delays.begin(), delays.end());
  EXPECT_LE(delays[delays.size() / 2], kForeignScheduleMedianMs)
      << "slowest " << delays.back() << " ms";
}

TEST_P(TransportContract, TimersFireOnTime) {
  auto net = make(1);
  net->set_handler(0, [](const Delivery&) {});
  net->start();
  // A chain of timers, each armed on the lane by its predecessor, so the
  // lane is idle in its timed wait when the next one comes due and the
  // lateness is the wait's own.
  constexpr int kTimers = 41;
  std::vector<double> late_us;
  std::promise<void> done;
  std::function<void(int)> arm = [&](int i) {
    const double delay_ms = 0.2 + 0.2 * i / (kTimers - 1);
    const Clock::time_point due =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(delay_ms));
    net->schedule(0, delay_ms, [&, i, due] {
      late_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      if (i + 1 < kTimers) {
        arm(i + 1);
      } else {
        done.set_value();
      }
    });
  };
  net->schedule(0, 0.0, [&] { arm(0); });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  net->shutdown();  // joins the lane: late_us is ours again
  std::sort(late_us.begin(), late_us.end());
  EXPECT_LE(late_us[late_us.size() / 2], kTimerLatenessMedianUs)
      << "p90 " << late_us[late_us.size() * 9 / 10] << " us";
}

TEST_P(TransportContract, ReliableSelfSendIsLocal) {
  // Every inproc wire hop costs 20 ms here, so only a local delivery beats a
  // 10 ms timer; on UDP a wire hop is a datagram the counter sees.
  obs::MetricsRegistry metrics;
  auto net = make(2, &metrics, 20.0);
  std::mutex mu;
  std::vector<std::string> log;
  const auto note = [&](std::string event) {
    std::lock_guard<std::mutex> lock(mu);
    log.push_back(std::move(event));
  };
  const auto logged = [&](std::size_t count) {
    return testing::poll_until([&] {
      std::lock_guard<std::mutex> lock(mu);
      return log.size() == count;
    });
  };
  net->set_handler(0, [&](const Delivery& d) { note(d.bytes); });
  net->set_handler(1, [](const Delivery&) {});
  net->start();
  const obs::Counter& datagrams = metrics.counter(
      "zdc_udp_datagrams_sent_total", obs::process_label(0));

  // Reliable channels: local, ahead of the timer, no datagram.
  const std::uint64_t before = datagrams.value();
  net->schedule(0, 10.0, [&] { note("timer"); });
  net->send(Channel::kProtocol, 0, 0, "protocol");
  net->send(Channel::kCatchup, 0, 0, "catchup");
  ASSERT_TRUE(logged(3));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(log, (std::vector<std::string>{"protocol", "catchup", "timer"}));
    log.clear();
  }
  EXPECT_EQ(datagrams.value(), before);

  // Best-effort: the WAB echo still crosses the wire.
  net->schedule(0, 10.0, [&] { note("timer"); });
  net->send(Channel::kWab, 0, 0, "wab", 7);
  ASSERT_TRUE(logged(2));
  {
    std::lock_guard<std::mutex> lock(mu);
    if (GetParam() == Kind::kInproc) {
      EXPECT_EQ(log, (std::vector<std::string>{"timer", "wab"}));
    }
    log.clear();
  }
  if (GetParam() == Kind::kUdp) {
    EXPECT_EQ(datagrams.value(), before + 1);
  }

  // A crashed sender hands itself nothing.
  net->crash(0);
  net->send(Channel::kProtocol, 0, 0, "dead");
  EXPECT_FALSE(testing::ever_within(
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return !log.empty();
      },
      milliseconds(30)));
  net->shutdown();
}

TEST_P(TransportContract, PauseFreezesHandlersAndTimersUntilResume) {
  std::atomic<int> delivered{0};
  std::atomic<int> timers{0};
  auto net = make(2);
  net->set_handler(0, [](const Delivery&) {});
  net->set_handler(1, [&](const Delivery& d) {
    if (d.channel == Channel::kProtocol) ++delivered;
  });
  net->start();

  net->links().pause(1);
  for (int i = 0; i < 5; ++i) {
    net->send(Channel::kProtocol, 0, 1, "m" + std::to_string(i));
  }
  for (int i = 0; i < 3; ++i) net->schedule(1, 1.0, [&] { ++timers; });
  EXPECT_FALSE(testing::ever_within(
      [&] { return delivered > 0 || timers > 0; }, milliseconds(100)))
      << "a paused process ran a handler or a timer";

  net->links().resume(1);
  EXPECT_TRUE(testing::poll_until(
      [&] { return delivered == 5 && timers == 3; }, kResumeBound))
      << "backlog after resume: " << delivered << "/5 messages, " << timers
      << "/3 timers";
  net->shutdown();
}

TEST_P(TransportContract, RestartWipesQueuedMessagesAndTimers) {
  std::atomic<int> old_work{0};
  std::atomic<int> new_work{0};
  auto net = make(2);
  net->set_handler(0, [](const Delivery&) {});
  net->set_handler(1, [&](const Delivery& d) {
    if (d.bytes == "old") ++old_work;
    if (d.bytes == "new") ++new_work;
  });
  net->start();

  // Queue messages and timers behind a pause, so they are still pending in
  // p1's lane when it crashes; give in-flight datagrams time to land there.
  net->links().pause(1);
  for (int i = 0; i < 3; ++i) net->send(Channel::kProtocol, 0, 1, "old");
  for (int i = 0; i < 2; ++i) net->schedule(1, 1.0, [&] { ++old_work; });
  EXPECT_FALSE(testing::ever_within([&] { return old_work > 0; },
                                    milliseconds(50)));
  net->crash(1);
  EXPECT_FALSE(testing::ever_within([&] { return old_work > 0; },
                                    milliseconds(20)));
  net->restart(1);
  net->links().resume(1);

  net->send(Channel::kProtocol, 0, 1, "new");
  net->schedule(1, 1.0, [&] { ++new_work; });
  ASSERT_TRUE(testing::poll_until([&] { return new_work == 2; }));
  EXPECT_FALSE(testing::ever_within([&] { return old_work > 0; },
                                    milliseconds(50)))
      << "the restarted incarnation ran work queued before the crash";
  net->shutdown();
}

TEST_P(TransportContract, CrashedProcessNeitherSendsNorReceives) {
  std::vector<std::atomic<int>> got(3);
  std::atomic<int> crashed_timers{0};
  auto net = make(3);
  for (ProcessId p = 0; p < 3; ++p) {
    net->set_handler(p, [&got, p](const Delivery&) { ++got[p]; });
  }
  net->start();
  net->crash(1);
  EXPECT_TRUE(net->crashed(1));
  EXPECT_FALSE(net->crashed(0));
  net->broadcast(Channel::kProtocol, 0, "x");  // 1 must not receive
  net->broadcast(Channel::kProtocol, 1, "y");  // 1 must not send
  net->send(Channel::kProtocol, 2, 1, "z");    // nor receive unicast
  net->schedule(1, 0.0, [&] { ++crashed_timers; });
  ASSERT_TRUE(
      testing::poll_until([&] { return got[0] == 1 && got[2] == 1; }));
  EXPECT_FALSE(testing::ever_within(
      [&] { return got[0] != 1 || got[1] != 0 || got[2] != 1; },
      milliseconds(30)));
  EXPECT_EQ(crashed_timers, 0);
  net->shutdown();
}

std::string kind_name(const ::testing::TestParamInfo<Kind>& param) {
  return param.param == Kind::kInproc ? "inproc" : "udp";
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportContract,
                         ::testing::Values(Kind::kInproc, Kind::kUdp),
                         kind_name);

}  // namespace
}  // namespace zdc::runtime
