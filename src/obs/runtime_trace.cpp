#include "obs/runtime_trace.h"

#include <utility>

namespace zdc::obs {

namespace {

// The observability layer is the one legitimate wall-time reader in the
// deterministic-linted tree: runtime traces exist to timestamp real threaded
// executions. Everything else must go through the seeded sim clock.
// zdc-analyze: allow(wall-clock): runtime tracing timestamps real threaded runs
using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds now_ns() {
  // zdc-analyze: allow(wall-clock): runtime tracing timestamps real threaded runs
  return Clock::now().time_since_epoch();
}

}  // namespace

RuntimeTraceRecorder::RuntimeTraceRecorder() : epoch_(now_ns()) {}

void RuntimeTraceRecorder::record(sim::TraceKind kind, ProcessId subject,
                                  ProcessId peer, std::string detail) {
  common::MutexLock lock(mu_);
  sim::TraceEvent ev;
  // Stamp under the lock: event times are monotone in vector order, so a
  // delivery recorded after its send can never appear to precede it.
  ev.time = std::chrono::duration<double, std::milli>(now_ns() - epoch_)
                .count();
  ev.kind = kind;
  ev.subject = subject;
  ev.peer = peer;
  ev.detail = std::move(detail);
  events_.push_back(std::move(ev));
}

std::size_t RuntimeTraceRecorder::size() const {
  common::MutexLock lock(mu_);
  return events_.size();
}

sim::TraceRecorder RuntimeTraceRecorder::freeze() const {
  common::MutexLock lock(mu_);
  sim::TraceRecorder out;
  for (const sim::TraceEvent& ev : events_) {
    out.record(ev.time, ev.kind, ev.subject, ev.peer, ev.detail);
  }
  return out;
}

}  // namespace zdc::obs
