// The per-process executor under both runtime transports.
//
// One lane per process: a thread, a (due, seq)-ordered heap of closures and
// the mutex + condition variable guarding it. Every handler, timer and
// transport task of process p runs on lane p's thread, so protocol objects
// need no locks; the transports keep only their wire code and post here.
//   * A post from any thread notifies the lane; the only timed wait is for
//     the heap's earliest due time. Nothing polls.
//   * A paused lane (fault::LinkPolicy::paused) blocks on its cv while its
//     heap fills; the resume hook installed on the policy wakes it.
//   * A crashed lane runs and accepts nothing; restart() wipes its heap.
//
// Locking: a lane's mutex guards its heap; closures run outside it. The lane
// reads LinkPolicy::paused() under its mutex (lane -> policy, the only
// order), and LinkPolicy calls the resume hook after releasing its own.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "fault/link_policy.h"
#include "obs/metrics.h"

namespace zdc::runtime {

class Executor {
 public:
  using Clock = std::chrono::steady_clock;
  using Task = std::function<void()>;

  /// Installs the resume hook on `links`, which must outlive the executor.
  Executor(std::uint32_t n, fault::LinkPolicy& links);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void start();
  /// Stops and joins every lane; queued closures never run. Idempotent.
  void shutdown();
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Runs `fn` on lane p after `delay_ms` (0 = as soon as the lane is
  /// free). Dropped while p is crashed.
  void schedule(ProcessId p, double delay_ms, Task fn);

  void crash(ProcessId p);
  [[nodiscard]] bool crashed(ProcessId p) const;
  /// Brings a crashed lane back with an empty heap; false if p was not
  /// crashed.
  bool restart(ProcessId p);

  /// Optional lane metrics, set before start(): `posted` counts accepted
  /// closures, `depth` follows the heap size.
  void set_metrics(ProcessId p, obs::Counter* posted, obs::Gauge* depth);

  [[nodiscard]] static Clock::time_point after_ms(double ms) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(ms));
  }

 private:
  struct Lane;

  void run(ProcessId p);

  fault::LinkPolicy& links_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
};

}  // namespace zdc::runtime
