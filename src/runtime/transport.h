// Abstract transport of the runtime stack (RuntimeCluster and everything
// built on it).
//
// Three implementations ship. Two run on threads, each keeping only its wire
// code on top of one runtime::Executor (executor.h):
//   * InprocNetwork — in-process delivery with injected delays (hermetic);
//   * UdpNetwork    — real loopback UDP sockets with a go-back-style ARQ for
//                     the reliable channel (the paper's TCP) and raw
//                     datagrams for heartbeats and the ordering oracle.
// The third runs the same stack single-threaded in virtual time:
//   * sim::SimTransport — every hop timed by the simulator's LAN model on
//                     sim::Fabric; byte-identical per seed (sim_transport.h).
//
// Contract (all three; tests/transport_contract_test.cpp):
//   * each process has one executor lane: its handlers and scheduled
//     callbacks all run on that lane, in due order — protocol objects need
//     no locking (on the simulator every lane is the one driving thread);
//   * nothing polls: schedule() from any thread wakes the lane at once, and
//     a paused process blocks until LinkPolicy::resume() wakes it;
//   * a timer runs on its due time, without the kernel's timer slack;
//   * now_ms() is the clock every timeout above the transport reads (the
//     wall clock on threads, virtual time on the simulator);
//   * kProtocol and kCatchup are reliable between correct processes (no
//     loss, no duplication); kHeartbeat and kWab are best-effort;
//   * a reliable send to oneself is a local delivery (no delay, no
//     datagram, no ARQ); best-effort self-sends take the wire;
//   * broadcast() delivers to every process including the sender;
//   * after crash(p), p neither sends nor receives nor runs timers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"
#include "fault/link_policy.h"

namespace zdc::runtime {

enum class Channel : std::uint8_t {
  kProtocol = 0,   ///< consensus/abcast traffic (reliable)
  kHeartbeat = 1,  ///< failure-detector heartbeats (best-effort)
  kWab = 2,        ///< WAB ordering-oracle datagrams (best-effort)
  kCatchup = 3,    ///< recovery state transfer (reliable; src/recovery)
};

/// Reliable channels get TCP semantics: no loss or duplication between
/// correct processes, blocked links stall them instead of dropping, and the
/// UDP transport runs them through its ARQ. Best-effort channels are raw
/// datagrams.
[[nodiscard]] constexpr bool is_reliable(Channel channel) {
  return channel == Channel::kProtocol || channel == Channel::kCatchup;
}

/// A reliable send to oneself never reaches the wire: it is a memory move
/// onto the sender's own executor lane, due at once (no injected delay, no
/// datagram, no ARQ). Best-effort self-sends take the wire, as the WAB echo
/// does in the simulator.
[[nodiscard]] constexpr bool is_local(Channel channel, ProcessId from,
                                      ProcessId to) {
  return from == to && is_reliable(channel);
}

/// Largest message one send/broadcast may carry. UdpNetwork puts each
/// message in one datagram (this plus its own header) and aborts on anything
/// larger; C-Abcast caps its batches so its w-broadcast and PROP frames stay
/// at or under it.
inline constexpr std::size_t kMaxMessageBytes = 60000;

struct Delivery {
  Channel channel = Channel::kProtocol;
  ProcessId from = 0;
  std::string bytes;
  InstanceId wab_instance = 0;  ///< meaningful on kWab only
};

class Transport {
 public:
  using Handler = std::function<void(const Delivery&)>;

  virtual ~Transport() = default;

  /// Must be called for every process before start().
  virtual void set_handler(ProcessId p, Handler handler) = 0;
  virtual void start() = 0;
  /// Stops all workers and discards undelivered traffic. Idempotent.
  virtual void shutdown() = 0;

  virtual void send(Channel channel, ProcessId from, ProcessId to,
                    std::string bytes, InstanceId wab_instance = 0) = 0;
  /// Delivers to all n processes including the sender.
  virtual void broadcast(Channel channel, ProcessId from, std::string bytes,
                         InstanceId wab_instance = 0) = 0;

  /// Runs `fn` on process p's worker thread after `delay_ms`.
  virtual void schedule(ProcessId p, double delay_ms,
                        std::function<void()> fn) = 0;

  /// Simulates a crash: p stops sending and receiving until restart(p).
  virtual void crash(ProcessId p) = 0;
  [[nodiscard]] virtual bool crashed(ProcessId p) const = 0;

  /// Crash-recovery: brings a crashed p back up with an empty inbox — traffic
  /// queued toward the dead incarnation is discarded (a reboot keeps nothing
  /// but stable storage), while sequence spaces stay monotonic so peers'
  /// dedupe state remains valid. The handler installed before start() stays;
  /// the caller is responsible for rebuilding the protocol stack behind it
  /// (see ConsensusRunner). No-op if p is not crashed.
  virtual void restart(ProcessId p) = 0;

  /// The nemesis fault table, consulted on every send/delivery:
  ///   * blocked links stall kProtocol traffic until healed (TCP semantics —
  ///     no loss, arbitrary delay) and silently eat kHeartbeat/kWab;
  ///   * drop_prob loses best-effort datagrams outright and costs reliable
  ///     traffic retransmission delay;
  ///   * paused processes stop executing handlers and timers (SIGSTOP
  ///     semantics: a slow process, not a dead one) until resumed; their
  ///     inbound traffic queues on their lane meanwhile.
  /// Mutate through this reference at any time; thread-safe.
  [[nodiscard]] virtual fault::LinkPolicy& links() = 0;

  [[nodiscard]] virtual std::uint32_t size() const = 0;

  /// The clock HeartbeatFd's timeouts and lease ages read, in ms (only
  /// differences mean anything): steady wall clock here, virtual time on
  /// the simulator.
  [[nodiscard]] virtual double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

}  // namespace zdc::runtime
