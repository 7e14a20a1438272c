#include "runtime/udp_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/assert.h"
#include "common/codec.h"
#include "fault/corrupt.h"
#include "common/mutex.h"
#include "common/rng.h"

namespace zdc::runtime {

namespace {

using Clock = Executor::Clock;

constexpr std::uint8_t kTypeData = 0;
constexpr std::uint8_t kTypeAck = 1;
/// Datagram header: type u8, channel u8, sender u32, seq u64, wab instance u64.
constexpr std::size_t kHeaderBytes = 22;
constexpr std::size_t kMaxDatagram = kMaxMessageBytes + kHeaderBytes;

}  // namespace

/// Everything one process owns besides its lane: socket and ARQ state.
struct UdpNetwork::Endpoint {
  int fd = -1;           // immutable after the constructor
  std::uint16_t port = 0;  // immutable after the constructor
  /// Written before start(), read only by the lane afterwards (enforced by
  /// the assertion in set_handler — no lock needed).
  Handler handler;
  /// Lane-only inbound dedupe per sender: everything <= watermark seen,
  /// plus stragglers.
  struct SeenFrom {
    std::uint64_t watermark = 0;
    std::set<std::uint64_t> above;
  };
  std::map<ProcessId, SeenFrom> seen;

  // Guards everything below (checked by -Wthread-safety): senders on any
  // thread and the lane take it briefly and never call out while holding it.
  common::Mutex mu;

  // Outbound reliable state: seq -> (destination, encoded datagram, due).
  struct Pending {
    ProcessId to = 0;
    std::string datagram;
    Clock::time_point next_retransmit;
    double backoff_ms = 0.0;  ///< next retry interval (doubles up to the cap)
  };
  std::map<std::uint64_t, Pending> unacked ZDC_GUARDED_BY(mu);
  std::uint64_t next_seq ZDC_GUARDED_BY(mu) = 1;


  /// Incarnation of the ARQ timer chain; restart() bumps it so a tick of
  /// the dead incarnation that was mid-run cannot re-arm a second chain.
  std::uint64_t arq_epoch ZDC_GUARDED_BY(mu) = 0;

  common::Rng rng ZDC_GUARDED_BY(mu){0};

  // Pre-registered metric handles, labeled by this endpoint's process; null
  // when metrics are off. Counters/gauges are atomics — safe from the
  // receive thread, the lane and senders alike.
  obs::Counter* sent_ctr = nullptr;
  obs::Counter* retrans_ctr = nullptr;
  obs::Counter* dropped_ctr = nullptr;
  obs::Gauge* unacked_gauge = nullptr;

  void note_drop() const {
    if (dropped_ctr != nullptr) dropped_ctr->inc();
  }

  void note_unacked_depth() ZDC_REQUIRES(mu) {
    if (unacked_gauge != nullptr) {
      unacked_gauge->set(static_cast<double>(unacked.size()));
    }
  }

  ~Endpoint() {
    if (fd >= 0) ::close(fd);
  }
};

UdpNetwork::UdpNetwork(Config cfg)
    : cfg_(cfg), links_(cfg.n), executor_(cfg.n, links_) {
  ZDC_ASSERT(cfg.n > 0);
  common::Rng seeder(cfg.seed);
  endpoints_.reserve(cfg.n);
  for (std::uint32_t p = 0; p < cfg.n; ++p) {
    auto ep = std::make_unique<Endpoint>();
    {
      // No concurrency yet (threads start in start()), but the analysis has
      // no escape analysis, so seed the guarded rng under its lock.
      common::MutexLock lock(ep->mu);
      ep->rng = common::Rng(seeder.next_u64());
    }
    ep->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ZDC_ASSERT_MSG(ep->fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // kernel-assigned port: no collisions, no config
    ZDC_ASSERT_MSG(::bind(ep->fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0,
                   "bind() failed");
    socklen_t len = sizeof addr;
    ZDC_ASSERT(::getsockname(ep->fd, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0);
    ep->port = ntohs(addr.sin_port);
    if (cfg.metrics != nullptr) {
      ep->sent_ctr = &cfg.metrics->counter("zdc_udp_datagrams_sent_total",
                                           obs::process_label(p));
      ep->retrans_ctr = &cfg.metrics->counter("zdc_udp_retransmissions_total",
                                              obs::process_label(p));
      ep->dropped_ctr = &cfg.metrics->counter("zdc_udp_dropped_total",
                                              obs::process_label(p));
      ep->unacked_gauge = &cfg.metrics->gauge("zdc_udp_unacked_depth",
                                              obs::process_label(p));
    }
    endpoints_.push_back(std::move(ep));
  }
}

UdpNetwork::~UdpNetwork() { shutdown(); }

std::uint16_t UdpNetwork::port(ProcessId p) const {
  ZDC_ASSERT(p < cfg_.n);
  return endpoints_[p]->port;
}

void UdpNetwork::set_handler(ProcessId p, Handler handler) {
  ZDC_ASSERT(p < cfg_.n);
  ZDC_ASSERT_MSG(!executor_.running(), "handlers must be set before start()");
  endpoints_[p]->handler = std::move(handler);
}

void UdpNetwork::start() {
  executor_.start();
  for (std::uint32_t p = 0; p < cfg_.n; ++p) {
    readers_.emplace_back([this, p] { read_socket(p); });
    executor_.schedule(p, 0.0, [this, p] { arq_tick(p, 0); });
  }
}

void UdpNetwork::shutdown() {
  if (!executor_.running()) return;
  stopping_.store(true);
  // SHUT_RD wakes a receive thread blocked in recvfrom() (Linux does this
  // even for unconnected datagram sockets) and makes every later call
  // return at once.
  for (auto& ep : endpoints_) ::shutdown(ep->fd, SHUT_RD);
  for (auto& reader : readers_) reader.join();
  readers_.clear();
  executor_.shutdown();
}

void UdpNetwork::raw_send(ProcessId from, ProcessId to,
                          const std::string& datagram) {
  // The nemesis chokepoint: every datagram — data, ack, retransmission —
  // passes through here, so a single policy check covers the whole fabric.
  const fault::LinkState link = links_.link(from, to);
  if (!link.clean()) {
    Endpoint& sender = *endpoints_[from];
    bool drop = link.blocked;  // cut link: raw datagrams die (ARQ retries)
    if (!drop && link.drop_prob > 0.0) {
      common::MutexLock lock(sender.mu);
      drop = sender.rng.chance(link.drop_prob);
    }
    if (drop) {
      sender.note_drop();
      return;
    }
    if (link.extra_delay_ms > 0.0) {
      // Delay spike: hold the datagram on the sender's lane. Bypasses the
      // policy re-check on fire — the spike was already paid.
      executor_.schedule(from, link.extra_delay_ms, [this, from, to, datagram] {
        raw_send_now(from, to, datagram);
      });
      return;
    }
  }
  raw_send_now(from, to, datagram);
}

void UdpNetwork::raw_send_now(ProcessId from, ProcessId to,
                              const std::string& datagram) {
  ZDC_ASSERT_MSG(datagram.size() <= kMaxDatagram, "datagram too large");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints_[to]->port);
  // sendto on the sender's fd is thread-safe; failures (e.g. ENOBUFS) are
  // treated as loss — the ARQ covers the reliable channel.
  (void)::sendto(endpoints_[from]->fd, datagram.data(), datagram.size(), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (endpoints_[from]->sent_ctr != nullptr) endpoints_[from]->sent_ctr->inc();
}

void UdpNetwork::send(Channel channel, ProcessId from, ProcessId to,
                      std::string bytes, InstanceId wab_instance) {
  ZDC_ASSERT(from < cfg_.n && to < cfg_.n);
  if (crashed(from) || crashed(to)) return;

  const auto encode = [&](std::uint64_t seq) {
    common::Encoder enc;
    enc.put_u8(kTypeData);
    enc.put_u8(static_cast<std::uint8_t>(channel));
    enc.put_u32(from);
    enc.put_u64(seq);
    enc.put_u64(wab_instance);
    enc.put_raw(bytes);
    return enc.take();
  };
  if (!is_reliable(channel)) {
    raw_send(from, to, encode(0));
    return;
  }
  std::string datagram;
  {
    // Sequence allocation and ARQ registration form ONE critical section:
    // when they were separate, a concurrent restart(from) could clear the
    // table between them and then inherit the dead incarnation's pending
    // entry, retransmitting a pre-crash datagram from the new incarnation.
    // The sequence space is shared across destinations at the sender
    // (simpler and correct: the receiver dedupes per sender).
    Endpoint& ep = *endpoints_[from];
    common::MutexLock lock(ep.mu);
    const std::uint64_t seq = ep.next_seq++;
    datagram = encode(seq);
    ep.unacked.emplace(
        seq, Endpoint::Pending{to, datagram,
                               Executor::after_ms(cfg_.retransmit_interval_ms),
                               cfg_.retransmit_interval_ms});
    ep.note_unacked_depth();
  }
  raw_send(from, to, datagram);
}

void UdpNetwork::broadcast(Channel channel, ProcessId from, std::string bytes,
                           InstanceId wab_instance) {
  // Equivocation (duplicate-divergent-send): the broadcast also carries a
  // divergent duplicate to every remote receiver, each copy flipped in a
  // different bit. The duplicate gets its own fresh sequence number and ARQ
  // entry — reusing the original's seq would let the receiver's dedupe
  // record the corrupted copy and reject the clean original as a duplicate.
  const bool equivocating = is_reliable(channel) && !crashed(from) &&
                            links_.consume_equivocation(from);
  for (ProcessId to = 0; to < cfg_.n; ++to) {
    send(channel, from, to, bytes, wab_instance);
    if (equivocating && to != from) {
      send(channel, from, to,
           fault::bit_flip_copy(bytes, fault::kMiddleByte, to % 8u),
           wab_instance);
    }
  }
}

void UdpNetwork::crash(ProcessId p) {
  ZDC_ASSERT(p < cfg_.n);
  executor_.crash(p);
  // Peers stop retransmitting towards p.
  for (std::uint32_t q = 0; q < cfg_.n; ++q) {
    Endpoint& ep = *endpoints_[q];
    common::MutexLock lock(ep.mu);
    for (auto it = ep.unacked.begin(); it != ep.unacked.end();) {
      it = it->second.to == p ? ep.unacked.erase(it) : std::next(it);
    }
    ep.note_unacked_depth();
  }
}

void UdpNetwork::restart(ProcessId p) {
  ZDC_ASSERT(p < cfg_.n);
  if (!crashed(p)) return;
  Endpoint& ep = *endpoints_[p];
  std::uint64_t epoch = 0;
  {
    common::MutexLock lock(ep.mu);
    // The dead incarnation's pending retransmissions died with it. next_seq
    // and the per-sender dedupe maps are kept monotonic across
    // incarnations, so peers' ack watermarks stay valid and pre-crash
    // stragglers are still rejected.
    ep.unacked.clear();
    ep.note_unacked_depth();
    epoch = ++ep.arq_epoch;
  }
  // The receive thread dropped every datagram posted while p was crashed;
  // the lane restart wipes its timers and un-crashes it in one step. The
  // new epoch leaves exactly one ARQ chain running.
  executor_.restart(p);
  executor_.schedule(p, 0.0, [this, p, epoch] { arq_tick(p, epoch); });
}

void UdpNetwork::handle_datagram(ProcessId p, const std::string& datagram) {
  Endpoint& ep = *endpoints_[p];
  common::Decoder dec(datagram);
  const std::uint8_t type = dec.get_u8();
  if (!dec.ok()) return;

  if (type == kTypeAck) {
    const ProcessId acker = dec.get_u32();
    const std::uint64_t seq = dec.get_u64();
    if (!dec.done() || acker >= cfg_.n) return;
    common::MutexLock lock(ep.mu);
    ep.unacked.erase(seq);
    ep.note_unacked_depth();
    return;
  }
  if (type != kTypeData) return;

  const auto channel = static_cast<Channel>(dec.get_u8());
  const ProcessId from = dec.get_u32();
  const std::uint64_t seq = dec.get_u64();
  const InstanceId wab_instance = dec.get_u64();
  std::string payload = dec.get_rest();
  if (from >= cfg_.n) return;

  // Byte-flip on the wire (flip/scorrupt budget): the receiver sees the
  // corrupted payload now, but neither acks nor dedupe-records the sequence
  // number — so the sender's ARQ retransmits and the clean original still
  // arrives. Detectable corruption costs one retransmission interval, never
  // the message.
  fault::CorruptSpec spec;
  if (is_reliable(channel) && links_.consume_corruption(from, p, &spec)) {
    fault::bit_flip(payload,
                    fault::resolve_flip_byte(spec.byte, payload.size()),
                    spec.bit);
  } else if (is_reliable(channel)) {
    // Ack unconditionally (duplicates included: the ack may have been lost).
    common::Encoder ack;
    ack.put_u8(kTypeAck);
    ack.put_u32(p);
    ack.put_u64(seq);
    raw_send(p, from, ack.take());
    auto& seen = ep.seen[from];  // dedupe per sender
    if (seq <= seen.watermark || seen.above.count(seq) != 0) return;
    seen.above.insert(seq);
    while (seen.above.count(seen.watermark + 1) != 0) {
      seen.above.erase(seen.watermark + 1);
      ++seen.watermark;
    }
  }
  if (ep.handler) ep.handler(Delivery{channel, from, std::move(payload),
                                      wab_instance});
}

void UdpNetwork::arq_tick(ProcessId p, std::uint64_t epoch) {
  Endpoint& ep = *endpoints_[p];
  const Clock::time_point now = Clock::now();
  // Retransmissions with exponential backoff: a datagram that keeps going
  // unacked (receiver slow, link cut) retries at doubling intervals up to
  // the cap instead of hammering at the base rate forever.
  std::vector<std::pair<ProcessId, std::string>> resend;
  {
    common::MutexLock lock(ep.mu);
    if (epoch != ep.arq_epoch) return;  // a dead incarnation's chain
    for (auto it = ep.unacked.begin(); it != ep.unacked.end();) {
      auto& pending = it->second;
      // Entries towards a crashed destination are purged here, not just
      // skipped: crash(to)'s purge races in-flight send()s, so an entry
      // registered just after it would otherwise sit in the table (and back
      // off against a corpse) until the destination restarts and acks.
      if (crashed(pending.to)) {
        it = ep.unacked.erase(it);
        continue;
      }
      if (pending.next_retransmit <= now) {
        resend.emplace_back(pending.to, pending.datagram);
        pending.backoff_ms =
            std::min(pending.backoff_ms * 2.0, cfg_.retransmit_cap_ms);
        pending.next_retransmit = Executor::after_ms(pending.backoff_ms);
      }
      ++it;
    }
    ep.note_unacked_depth();
  }
  for (const auto& [to, datagram] : resend) {
    retransmissions_.fetch_add(1, std::memory_order_relaxed);
    if (ep.retrans_ctr != nullptr) ep.retrans_ctr->inc();
    raw_send(p, to, datagram);
  }
  executor_.schedule(p, std::max(1.0, cfg_.retransmit_interval_ms / 2),
                     [this, p, epoch] { arq_tick(p, epoch); });
}

void UdpNetwork::read_socket(ProcessId p) {
  Endpoint& ep = *endpoints_[p];
  std::string buffer(kMaxDatagram + 1, '\0');
  for (;;) {
    const ssize_t got =
        ::recvfrom(ep.fd, buffer.data(), buffer.size(), 0, nullptr, nullptr);
    if (stopping_.load()) return;
    if (got <= 0) continue;
    if (cfg_.drop_prob > 0.0) {
      common::MutexLock lock(ep.mu);
      if (ep.rng.chance(cfg_.drop_prob)) {
        ep.note_drop();
        continue;
      }
    }
    // Handled on the lane: a paused process neither delivers nor acks, and
    // a crashed one drops the datagram (post() refuses it).
    executor_.schedule(
        p, 0.0,
        [this, p, datagram = buffer.substr(0, static_cast<std::size_t>(got))] {
          handle_datagram(p, datagram);
        });
  }
}

}  // namespace zdc::runtime
