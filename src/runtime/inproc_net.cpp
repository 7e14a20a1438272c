#include "runtime/inproc_net.h"

#include <utility>

#include "common/assert.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "fault/corrupt.h"

namespace zdc::runtime {

/// The receiving side of one process's wire: the delay/loss RNG senders on
/// any thread draw from, guarded by its own mutex (never held while posting).
struct InprocNetwork::Inbox {
  explicit Inbox(std::uint64_t seed) : rng(seed) {}

  common::Mutex mu;
  common::Rng rng ZDC_GUARDED_BY(mu);
  /// Null when metrics are off; an atomic counter, safe from any thread.
  obs::Counter* dropped_ctr = nullptr;

  void note_drop() const {
    if (dropped_ctr != nullptr) dropped_ctr->inc();
  }
};

InprocNetwork::InprocNetwork(Config cfg)
    : cfg_(cfg), links_(cfg.n), executor_(cfg.n, links_) {
  ZDC_ASSERT(cfg.n > 0);
  common::Rng seeder(cfg.seed);
  inboxes_.reserve(cfg.n);
  for (std::uint32_t p = 0; p < cfg.n; ++p) {
    inboxes_.push_back(std::make_unique<Inbox>(seeder.next_u64()));
    if (cfg.metrics != nullptr) {
      inboxes_.back()->dropped_ctr = &cfg.metrics->counter(
          "zdc_inproc_dropped_total", obs::process_label(p));
      executor_.set_metrics(
          p,
          &cfg.metrics->counter("zdc_inproc_messages_total",
                                obs::process_label(p)),
          &cfg.metrics->gauge("zdc_inproc_queue_depth",
                              obs::process_label(p)));
    }
  }
  handlers_.resize(cfg.n);
  {
    common::MutexLock lock(parked_mu_);
    parked_.resize(static_cast<std::size_t>(cfg.n) * cfg.n);
  }
  links_.set_heal_hook([this] { release_unblocked(); });
}

InprocNetwork::~InprocNetwork() { shutdown(); }

void InprocNetwork::set_handler(ProcessId p, Handler handler) {
  ZDC_ASSERT(p < cfg_.n);
  ZDC_ASSERT_MSG(!executor_.running(), "handlers must be set before start()");
  handlers_[p] = std::move(handler);
}

void InprocNetwork::push(ProcessId to, Delivery delivery) {
  Inbox& inbox = *inboxes_[to];
  double delay = 0.0;
  {
    common::MutexLock lock(inbox.mu);
    // Sampled with the receiver's RNG (deterministic given arrival order is
    // not required here — this is the concurrent runtime).
    if (delivery.channel == Channel::kWab && cfg_.wab_loss_prob > 0.0 &&
        inbox.rng.chance(cfg_.wab_loss_prob)) {
      inbox.note_drop();
      return;  // best-effort datagram lost
    }
    delay = inbox.rng.uniform(cfg_.min_delay_ms, cfg_.max_delay_ms);
    if (delivery.channel == Channel::kWab) {
      delay += inbox.rng.exponential(cfg_.wab_jitter_mean_ms);
    }
    const fault::LinkState link = links_.link(delivery.from, to);
    if (!link.clean()) {
      if (!is_reliable(delivery.channel) &&
          (link.blocked ||
           (link.drop_prob > 0.0 && inbox.rng.chance(link.drop_prob)))) {
        inbox.note_drop();
        return;  // best-effort traffic on a faulty link is simply lost
      }
      delay += link.extra_delay_ms;
      if (is_reliable(delivery.channel) && link.drop_prob > 0.0 &&
          link.drop_prob < 1.0) {
        // No datagram level here, so loss surfaces as retransmission
        // delay: one modeled RTO per lost attempt, geometric count.
        while (inbox.rng.chance(link.drop_prob)) delay += 1.0;
      }
      // A *blocked* reliable message is still posted; deliver() parks it
      // until the link heals (TCP stalls, it does not lose).
    }
  }
  post(to, delay, std::move(delivery));
}

void InprocNetwork::post(ProcessId to, double delay_ms, Delivery delivery) {
  executor_.schedule(to, delay_ms,
                     [this, to, d = std::move(delivery)]() mutable {
                       deliver(to, d);
                     });
}

void InprocNetwork::deliver(ProcessId to, Delivery& delivery) {
  if (links_.link(delivery.from, to).blocked) {
    // Re-checked under parked_mu_: the heal hook takes it after re-opening
    // the link, so a message is either delivered here or found by the hook.
    common::MutexLock lock(parked_mu_);
    if (links_.link(delivery.from, to).blocked) {
      // Best-effort traffic that came due on a cut link is lost.
      if (is_reliable(delivery.channel)) {
        parked_[static_cast<std::size_t>(delivery.from) * cfg_.n + to]
            .push_back(std::move(delivery));
      }
      return;
    }
  }
  if (handlers_[to]) handlers_[to](delivery);
}

void InprocNetwork::release_unblocked() {
  // Posts under parked_mu_, so a concurrent restart(to) either clears a
  // message first or finds it posted while to's lane was still crashed
  // (and so dropped): a dead incarnation's traffic never reaches the next.
  common::MutexLock lock(parked_mu_);
  for (ProcessId from = 0; from < cfg_.n; ++from) {
    for (ProcessId to = 0; to < cfg_.n; ++to) {
      auto& parked = parked_[static_cast<std::size_t>(from) * cfg_.n + to];
      if (parked.empty() || links_.link(from, to).blocked) continue;
      // The stalled connection resumes in order; each message paid its
      // delay before it was parked.
      for (auto& delivery : parked) {
        // zdc-analyze: allow(recursive-lock): post() only queues deliver() on to's lane, which runs it later without parked_mu_ held
        post(to, 0.0, std::move(delivery));
      }
      parked.clear();
    }
  }
}

void InprocNetwork::restart(ProcessId p) {
  if (!crashed(p)) return;
  {
    // Parked messages toward p belong to the dead incarnation's inbox; they
    // go before the lane is un-crashed, so a heal cannot hand them over.
    common::MutexLock lock(parked_mu_);
    for (ProcessId from = 0; from < cfg_.n; ++from) {
      parked_[static_cast<std::size_t>(from) * cfg_.n + p].clear();
    }
  }
  executor_.restart(p);
}

void InprocNetwork::send(Channel channel, ProcessId from, ProcessId to,
                         std::string bytes, InstanceId wab_instance) {
  ZDC_ASSERT(from < cfg_.n && to < cfg_.n);
  if (crashed(from) || crashed(to)) return;
  if (is_local(channel, from, to)) {
    // No wire, so no injected delay and no link faults.
    executor_.schedule(
        to, 0.0,
        [this, to, d = Delivery{channel, from, std::move(bytes), wab_instance}] {
          if (handlers_[to]) handlers_[to](d);
        });
    return;
  }
  fault::CorruptSpec spec;
  if (is_reliable(channel) && links_.consume_corruption(from, to, &spec)) {
    // Surface-then-retransmit: the receiver sees the corrupted copy AND the
    // clean original (TCP's checksummed retransmission eventually carries
    // the real bytes through), so corruption costs work, never liveness.
    push(to, Delivery{channel, from,
                      fault::bit_flip_copy(bytes, spec.byte, spec.bit),
                      wab_instance});
  }
  push(to, Delivery{channel, from, std::move(bytes), wab_instance});
}

void InprocNetwork::broadcast(Channel channel, ProcessId from,
                              std::string bytes, InstanceId wab_instance) {
  ZDC_ASSERT(from < cfg_.n);
  // Equivocation (duplicate-divergent-send): this broadcast also carries a
  // divergent duplicate to every remote receiver, each copy flipped in a
  // different bit so no two receivers see the same corrupted frame.
  const bool equivocating = is_reliable(channel) && !crashed(from) &&
                            links_.consume_equivocation(from);
  for (ProcessId to = 0; to < cfg_.n; ++to) {
    if (equivocating && to != from && !crashed(to)) {
      push(to, Delivery{channel, from,
                        fault::bit_flip_copy(bytes, fault::kMiddleByte, to % 8u),
                        wab_instance});
    }
    send(channel, from, to, bytes, wab_instance);
  }
}

}  // namespace zdc::runtime
