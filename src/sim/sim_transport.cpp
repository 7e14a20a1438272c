#include "sim/sim_transport.h"

#include <utility>

#include "common/assert.h"
#include "common/codec.h"
#include "common/rng.h"

namespace zdc::sim {

SimTransport::SimTransport(const Config& cfg)
    : n_(cfg.n),
      opts_(RunOptions{}
                .with_group(cfg.n, 0)
                .with_net(cfg.lan)
                .with_seed(cfg.seed)
                .with_metrics(cfg.metrics)),
      fabric_(opts_, common::Rng(cfg.seed).fork(0x5e), fault::FaultPlan{},
              *this),
      handlers_(cfg.n),
      wiped_below_(cfg.n, 0) {
  // Direct LinkPolicy edits (a harness's pause/resume/heal) release what
  // the fabric froze or parked, as the executor's hooks do on threads.
  fabric_.links().set_resume_hook(
      [this](ProcessId p) { fabric_.release_paused(p); });
  fabric_.links().set_heal_hook([this] { fabric_.release_unblocked(); });
  fabric_.start({});
}

void SimTransport::set_handler(ProcessId p, Handler handler) {
  ZDC_ASSERT(p < n_);
  handlers_[p] = std::move(handler);
}

std::string SimTransport::frame(runtime::Channel channel,
                                InstanceId wab_instance,
                                const std::string& bytes) {
  common::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(channel));
  enc.put_u64(next_seq_++);
  enc.put_u64(wab_instance);
  enc.put_raw(bytes);
  return enc.take();
}

void SimTransport::send(runtime::Channel channel, ProcessId from, ProcessId to,
                        std::string bytes, InstanceId wab_instance) {
  ZDC_ASSERT(from < n_ && to < n_);
  if (stopped_ || fabric_.crashed(from)) return;
  if (runtime::is_local(channel, from, to)) {
    schedule(from, 0.0,
             [this, channel, from, bytes = std::move(bytes), wab_instance] {
               handlers_[from](
                   runtime::Delivery{channel, from, bytes, wab_instance});
             });
    return;
  }
  std::string framed = frame(channel, wab_instance, bytes);
  if (runtime::is_reliable(channel)) {
    fabric_.unicast(from, to, std::move(framed));
  } else {
    fabric_.w_broadcast(from, wab_instance, std::move(framed), to);
  }
}

void SimTransport::broadcast(runtime::Channel channel, ProcessId from,
                             std::string bytes, InstanceId wab_instance) {
  if (stopped_ || fabric_.crashed(from)) return;
  if (!runtime::is_reliable(channel)) {
    fabric_.w_broadcast(from, wab_instance,
                        frame(channel, wab_instance, bytes));
    return;
  }
  for (ProcessId to = 0; to < n_; ++to) {
    send(channel, from, to, bytes, wab_instance);
  }
}

void SimTransport::schedule(ProcessId p, double delay_ms,
                            std::function<void()> fn) {
  ZDC_ASSERT(p < n_);
  if (stopped_ || fabric_.crashed(p)) return;
  fabric_.events().after(
      delay_ms, [this, p, seq = next_seq_++, fn = std::move(fn)] {
        fabric_.run_on_node(p, [this, p, seq, fn] {
          if (!stopped_ && seq >= wiped_below_[p]) fn();
        });
      });
}

void SimTransport::crash(ProcessId p) {
  ZDC_ASSERT(p < n_);
  fabric_.crash(p);
}

bool SimTransport::crashed(ProcessId p) const { return fabric_.crashed(p); }

void SimTransport::restart(ProcessId p) {
  ZDC_ASSERT(p < n_);
  if (!fabric_.crashed(p)) return;
  wiped_below_[p] = next_seq_;
  fabric_.restart(p);
}

void SimTransport::after(double delay_ms, std::function<void()> fn) {
  fabric_.events().after(delay_ms, [this, fn = std::move(fn)] {
    if (!stopped_) fn();
  });
}

bool SimTransport::run_until(const std::function<bool()>& done,
                             double until_ms) {
  while (!done()) {
    if (stopped_ || fabric_.events().run(until_ms, 1) == 0) return false;
  }
  return true;
}

void SimTransport::on_message(ProcessId from, ProcessId to,
                              const std::string& framed) {
  if (stopped_) return;
  common::Decoder dec(framed);
  runtime::Delivery d;
  d.channel = static_cast<runtime::Channel>(dec.get_u8());
  const std::uint64_t seq = dec.get_u64();
  d.wab_instance = dec.get_u64();
  d.bytes = dec.get_rest();
  d.from = from;
  ZDC_ASSERT_MSG(dec.done(), "malformed sim transport frame");
  if (seq < wiped_below_[to]) return;  // sent to a dead incarnation
  handlers_[to](d);
}

}  // namespace zdc::sim
