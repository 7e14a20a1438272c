// Atomic broadcast interface (paper Sec. 3.3) and the application-message
// model shared by every abcast protocol.
//
// Application messages are identified by (sender, sequence) pairs; batches of
// messages are serialized in canonical (sender, seq)-sorted order so that two
// processes holding the same set produce byte-identical consensus proposals —
// the property the one-step fast path hinges on.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/stats.h"
#include "common/types.h"

namespace zdc::abcast {

/// Unique identity of an a-broadcast application message.
struct MsgId {
  ProcessId sender = 0;
  std::uint64_t seq = 0;

  friend auto operator<=>(const MsgId&, const MsgId&) = default;
};

struct AppMessage {
  MsgId id;
  std::string payload;

  friend bool operator==(const AppMessage&, const AppMessage&) = default;
};

/// Canonically ordered message batch: the unit proposed to consensus.
using MsgSet = std::map<MsgId, std::string>;

/// Serializes a batch in canonical order (deterministic across processes).
std::string encode_msg_set(const MsgSet& set);
/// Parses a batch; returns false (leaving `out` empty) on malformed input.
bool decode_msg_set(std::string_view bytes, MsgSet& out);

/// Environment of an abcast protocol instance. broadcast() must deliver to
/// every process including the sender; w_broadcast feeds the WAB ordering
/// oracle (only C-Abcast/WABCast use it; Paxos-Abcast never calls it).
class AbcastHost {
 public:
  virtual ~AbcastHost() = default;
  virtual void send(ProcessId to, std::string bytes) = 0;
  virtual void broadcast(std::string bytes) = 0;
  virtual void w_broadcast(InstanceId k, std::string payload) = 0;
  /// Upcall: message delivered in the total order.
  virtual void a_deliver(const AppMessage& m) = 0;
};

struct AbcastMetrics {
  std::uint64_t a_broadcasts = 0;
  std::uint64_t a_deliveries = 0;
  std::uint64_t w_broadcasts = 0;
  std::uint64_t consensus_instances = 0;
  /// C-Abcast rounds decided here in one step (the fast path), or more.
  std::uint64_t one_step_decisions = 0;
  std::uint64_t slow_decisions = 0;
  common::ProtocolMetrics transport;  ///< unicasts/bytes incl. sub-consensus
  /// Frames whose integrity seal failed (common::open_frame) and were
  /// dropped before decoding; always 0 for protocols without a seal.
  std::uint64_t corrupt_frames_dropped = 0;
};

class AtomicBroadcast {
 public:
  AtomicBroadcast(ProcessId self, GroupParams group, AbcastHost& host)
      : self_(self), group_(group), host_(host) {}
  virtual ~AtomicBroadcast() = default;

  AtomicBroadcast(const AtomicBroadcast&) = delete;
  AtomicBroadcast& operator=(const AtomicBroadcast&) = delete;

  /// a-broadcast(m): assigns the next local sequence number and injects the
  /// message into the protocol. Returns the id (the harness keys latency
  /// measurements on it).
  MsgId a_broadcast(std::string payload);

  /// Feeds one transport message addressed to this protocol.
  virtual void on_message(ProcessId from, std::string_view bytes) = 0;
  /// Feeds one WAB oracle delivery (instance k, origin, oracle payload).
  virtual void on_w_deliver(InstanceId k, ProcessId origin,
                            const std::string& payload);
  /// Failure-detector output changed.
  virtual void on_fd_change() {}

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] const AbcastMetrics& metrics() const { return metrics_; }

  /// Folds any sub-protocol accounting into metrics(). Harnesses call this
  /// exactly once, after the run; the protocol may become inert afterwards.
  virtual void finalize_metrics() {}

 protected:
  /// Protocol-specific handling of a freshly a-broadcast message.
  virtual void submit(AppMessage m) = 0;

  void deliver(const AppMessage& m) {
    ++metrics_.a_deliveries;
    host_.a_deliver(m);
  }

  const ProcessId self_;
  const GroupParams group_;
  AbcastHost& host_;
  AbcastMetrics metrics_;

 private:
  std::uint64_t next_seq_ = 1;
};

}  // namespace zdc::abcast
