#include "runtime/executor.h"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "common/assert.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace zdc::runtime {

namespace {

/// Lets the calling thread's timed waits end on their due time. Linux
/// otherwise grants each one 50 us of timer slack to coalesce wake-ups, and
/// every lane timer (an injected delay, a protocol timeout) would pay it.
void precise_timers() {
#if defined(__linux__)
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace

struct Executor::Lane {
  struct Entry {
    Clock::time_point due;
    std::uint64_t seq = 0;
    Task fn;
  };
  /// Heap order: the earliest (due, seq) on top.
  static bool later(const Entry& a, const Entry& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }

  common::Mutex mu;
  std::condition_variable cv;
  std::vector<Entry> heap ZDC_GUARDED_BY(mu);
  std::uint64_t next_seq ZDC_GUARDED_BY(mu) = 0;
  bool stopping ZDC_GUARDED_BY(mu) = false;
  /// Cleared under mu (a restart's wipe and un-crash are one step), read
  /// lock-free on the send path.
  std::atomic<bool> crashed{false};
  obs::Counter* posted_ctr = nullptr;
  obs::Gauge* depth_gauge = nullptr;

  void note_depth() ZDC_REQUIRES(mu) {
    if (depth_gauge != nullptr) {
      depth_gauge->set(static_cast<double>(heap.size()));
    }
  }

  /// Blocks until a closure is due on a running lane (moved into *task) or
  /// the executor stops (false).
  bool next(ProcessId p, const fault::LinkPolicy& links,
            common::MutexLock& lock, Task* task) ZDC_REQUIRES(mu) {
    for (;;) {
      if (stopping) return false;
      if (heap.empty() || crashed.load() || links.paused(p)) {
        cv.wait(lock.inner());  // a post, the resume hook or restart wakes us
        continue;
      }
      // A copy: wait_until reads its deadline again after relocking, and a
      // post meanwhile may have reallocated the heap.
      const Clock::time_point due = heap.front().due;
      if (due > Clock::now()) {
        cv.wait_until(lock.inner(), due);
      } else {
        std::pop_heap(heap.begin(), heap.end(), later);
        *task = std::move(heap.back().fn);
        heap.pop_back();
        note_depth();
        return true;
      }
    }
  }
};

Executor::Executor(std::uint32_t n, fault::LinkPolicy& links) : links_(links) {
  ZDC_ASSERT(n > 0 && n == links.size());
  for (std::uint32_t p = 0; p < n; ++p) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  links_.set_resume_hook([this](ProcessId p) {
    Lane& lane = *lanes_[p];
    // Notifying under the mutex orders the wake-up after any wait the lane
    // entered having seen p paused.
    common::MutexLock lock(lane.mu);
    lane.cv.notify_one();
  });
}

Executor::~Executor() {
  shutdown();
  links_.set_resume_hook(nullptr);
}

void Executor::set_metrics(ProcessId p, obs::Counter* posted,
                           obs::Gauge* depth) {
  ZDC_ASSERT(p < lanes_.size() && !running_.load());
  lanes_[p]->posted_ctr = posted;
  lanes_[p]->depth_gauge = depth;
}

void Executor::start() {
  ZDC_ASSERT(!running_.exchange(true));
  for (std::uint32_t p = 0; p < lanes_.size(); ++p) {
    threads_.emplace_back([this, p] { run(p); });
  }
}

void Executor::shutdown() {
  if (!running_.load()) return;
  for (auto& lane : lanes_) {
    common::MutexLock lock(lane->mu);
    lane->stopping = true;
    lane->cv.notify_one();
  }
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  running_.store(false);
}

void Executor::schedule(ProcessId p, double delay_ms, Task fn) {
  ZDC_ASSERT(p < lanes_.size());
  Lane& lane = *lanes_[p];
  {
    common::MutexLock lock(lane.mu);
    if (lane.crashed.load()) return;
    lane.heap.push_back(
        Lane::Entry{after_ms(delay_ms), lane.next_seq++, std::move(fn)});
    std::push_heap(lane.heap.begin(), lane.heap.end(), Lane::later);
    if (lane.posted_ctr != nullptr) lane.posted_ctr->inc();
    lane.note_depth();
  }
  lane.cv.notify_one();
}

void Executor::crash(ProcessId p) {
  ZDC_ASSERT(p < lanes_.size());
  lanes_[p]->crashed.store(true);  // a post racing this lands; restart wipes
}

bool Executor::crashed(ProcessId p) const {
  ZDC_ASSERT(p < lanes_.size());
  return lanes_[p]->crashed.load();
}

bool Executor::restart(ProcessId p) {
  ZDC_ASSERT(p < lanes_.size());
  Lane& lane = *lanes_[p];
  std::vector<Lane::Entry> wiped;  // destroyed after the unlock
  {
    common::MutexLock lock(lane.mu);
    if (!lane.crashed.load()) return false;
    // The dead incarnation's messages and timers are gone — a reboot keeps
    // nothing but stable storage. next_seq keeps counting.
    wiped.swap(lane.heap);
    lane.note_depth();
    lane.crashed.store(false);
  }
  lane.cv.notify_one();
  return true;
}

void Executor::run(ProcessId p) {
  precise_timers();
  Lane& lane = *lanes_[p];
  for (;;) {
    Task task;
    {
      common::MutexLock lock(lane.mu);
      if (!lane.next(p, links_, lock, &task)) return;
    }
    task();
  }
}

}  // namespace zdc::runtime
