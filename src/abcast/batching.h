// Consolidated batching knobs for the abcast stacks — the ONLY way to set
// them. Run configs (sim AbcastRunConfig, the runtime cluster config and the
// shared zdc::RunOptions surface) carry a single `batching` member, and
// configure_batching() writes the protocol internals as a friend; the old
// per-protocol setters (PaxosAbcast::set_pipeline_window,
// CAbcast::set_max_batch) are gone. Defaults reproduce the legacy (unbatched)
// behaviour byte-for-byte: the golden-trace fingerprints are pinned at these
// defaults.
#pragma once

#include <cstddef>
#include <cstdint>

namespace zdc::abcast {

class AtomicBroadcast;

struct BatchingOptions {
  /// Leader pipeline cap for the Paxos-Abcast stack: at most this many
  /// proposed-but-undecided slots; surplus client messages batch into the
  /// next freed slot. 0 = legacy unlimited (one slot per message under load).
  std::uint32_t paxos_pipeline_window = 0;
  /// Per-round batch cap for the C-Abcast stacks: at most this many messages
  /// w-broadcast (and hence ordered) per round. 0 = whole estimate per round
  /// (the paper's algorithm), up to the frame-size cap every round obeys
  /// (runtime::kMaxMessageBytes).
  std::size_t c_abcast_max_batch = 0;

  [[nodiscard]] bool is_default() const {
    return paxos_pipeline_window == 0 && c_abcast_max_batch == 0;
  }
};

/// Applies whichever knob matches the protocol's concrete type; options for
/// other stacks are ignored (a C-Abcast run config may carry a Paxos window
/// and vice versa — harnesses pass one BatchingOptions to every protocol).
void configure_batching(AtomicBroadcast& protocol, const BatchingOptions& opts);

}  // namespace zdc::abcast
