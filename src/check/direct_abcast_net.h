// Direct-drive harness for atomic-broadcast protocols: like DirectNet for
// consensus, but with the oracle channel and per-process delivery histories —
// the caller controls exactly which transport message or oracle datagram
// arrives where and when. Moved from tests/direct_abcast_harness.h (which
// re-exports these names) so the schedule-space checker can drive it.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/abcast.h"
#include "check/invariants.h"
#include "common/types.h"
#include "fault/corrupt.h"
#include "fd/failure_detector.h"

namespace zdc::check {

class DirectAbcastNet {
 public:
  struct Fd {
    struct Omega final : fd::OmegaView {
      [[nodiscard]] ProcessId leader() const override { return value; }
      ProcessId value = 0;
    };
    struct Suspects final : fd::SuspectView {
      [[nodiscard]] bool suspects(ProcessId p) const override {
        return p < flags.size() && flags[p];
      }
      std::vector<bool> flags;
    };
    Omega omega;
    Suspects suspects;
  };

  using Factory = std::function<std::unique_ptr<abcast::AtomicBroadcast>(
      ProcessId self, GroupParams group, abcast::AbcastHost& host,
      const fd::OmegaView& omega, const fd::SuspectView& suspects)>;

  DirectAbcastNet(GroupParams group, const Factory& factory) : group_(group) {
    fds_.resize(group.n);
    hosts_.reserve(group.n);
    delivered_.resize(group.n);
    for (ProcessId p = 0; p < group.n; ++p) {
      fds_[p] = std::make_unique<Fd>();
      fds_[p]->suspects.flags.assign(group.n, false);
      hosts_.push_back(std::make_unique<Host>(*this, p));
    }
    for (ProcessId p = 0; p < group.n; ++p) {
      protocols_.push_back(factory(p, group, *hosts_[p], fds_[p]->omega,
                                   fds_[p]->suspects));
    }
  }

  [[nodiscard]] GroupParams group() const { return group_; }

  abcast::AtomicBroadcast& protocol(ProcessId p) { return *protocols_[p]; }
  Fd& fd(ProcessId p) { return *fds_[p]; }
  [[nodiscard]] const Fd& fd(ProcessId p) const { return *fds_[p]; }
  void set_leader_everywhere(ProcessId leader) {
    for (auto& fd : fds_) fd->omega.value = leader;
  }
  void notify_fd_change(ProcessId p) {
    if (!crashed(p)) protocols_[p]->on_fd_change();
  }
  void notify_fd_change_all() {
    for (ProcessId p = 0; p < group_.n; ++p) notify_fd_change(p);
  }

  abcast::MsgId a_broadcast(ProcessId p, std::string payload) {
    const abcast::MsgId id = protocols_[p]->a_broadcast(std::move(payload));
    submitted_.push_back(id);
    return id;
  }
  /// Every id handed out by a_broadcast — the ground truth for the
  /// No-creation invariant (check_no_creation / check_abcast).
  [[nodiscard]] const std::vector<abcast::MsgId>& submitted() const {
    return submitted_;
  }

  /// Delivery history at process p, in a-deliver order.
  [[nodiscard]] const std::vector<abcast::AppMessage>& delivered(
      ProcessId p) const {
    return delivered_[p];
  }
  [[nodiscard]] const std::vector<std::vector<abcast::AppMessage>>& histories()
      const {
    return delivered_;
  }

  /// Size of the largest transport message or oracle datagram any process
  /// has sent so far.
  [[nodiscard]] std::size_t largest_frame() const { return largest_frame_; }

  [[nodiscard]] std::size_t pending(ProcessId from, ProcessId to) const {
    const auto it = edges_.find({from, to});
    return it == edges_.end() ? 0 : it->second.size();
  }

  bool deliver_one(ProcessId from, ProcessId to) {
    const auto it = edges_.find({from, to});
    if (it == edges_.end() || it->second.empty()) return false;
    std::string bytes = std::move(it->second.front());
    it->second.pop_front();
    if (!crashed(to)) protocols_[to]->on_message(from, bytes);
    return true;
  }

  /// Takes the oldest oracle datagram of `from` and delivers it to every
  /// process (spontaneous order), or only to `targets` if given. A partial
  /// delivery re-queues the datagram at the back: the WAB oracle's Validity
  /// property promises *eventual* delivery to every correct process, so an
  /// adversary may delay and reorder oracle traffic but not destroy it
  /// (duplicates are fine — Uniform Integrity is the receiver's problem and
  /// every consumer in this codebase is idempotent).
  bool deliver_wab(ProcessId from,
                   const std::vector<ProcessId>* targets = nullptr) {
    const auto it = wab_out_.find(from);
    if (it == wab_out_.end() || it->second.empty()) return false;
    auto datagram = it->second.front();
    it->second.pop_front();
    for (ProcessId to = 0; to < group_.n; ++to) {
      if (targets != nullptr &&
          std::find(targets->begin(), targets->end(), to) == targets->end()) {
        continue;
      }
      if (!crashed(to)) {
        protocols_[to]->on_w_deliver(datagram.first, from, datagram.second);
      }
    }
    if (targets != nullptr) it->second.push_back(std::move(datagram));
    return true;
  }

  [[nodiscard]] std::size_t pending_wab(ProcessId from) const {
    const auto it = wab_out_.find(from);
    return it == wab_out_.end() ? 0 : it->second.size();
  }

  /// Drains transport edges and oracle datagrams until quiescent.
  void settle() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (ProcessId from = 0; from < group_.n; ++from) {
        while (deliver_wab(from)) progressed = true;
        for (ProcessId to = 0; to < group_.n; ++to) {
          if (deliver_one(from, to)) progressed = true;
        }
      }
    }
  }

  /// Arms the equivocating-sender mutant: every transport broadcast by p
  /// delivers per-receiver *divergent* bytes — the last byte of each remote
  /// copy is flipped in a receiver-specific bit (the last byte of a
  /// PaxosAbcast p2a/p2b frame is payload tail, so divergent copies decode
  /// fine and smuggle different app payloads into the same slot). The
  /// sender's own copy stays clean. This is the planted byzantine fault the
  /// Uniform Total Order oracle must catch.
  void arm_equivocation(ProcessId p) { equivocating_ = p; }

  void crash(ProcessId p) { crashed_[p] = true; }
  [[nodiscard]] bool crashed(ProcessId p) const {
    const auto it = crashed_.find(p);
    return it != crashed_.end() && it->second;
  }
  void drop_edge(ProcessId from, ProcessId to) { edges_.erase({from, to}); }

  /// Pairwise prefix consistency of the delivery histories (Uniform Total
  /// Order), via the shared invariant library.
  [[nodiscard]] bool total_order_ok() const {
    return !check_total_order(delivered_).has_value();
  }

 private:
  struct Host final : abcast::AbcastHost {
    Host(DirectAbcastNet& net, ProcessId self) : net_(net), self_(self) {}
    void send(ProcessId to, std::string bytes) override {
      net_.note_frame(bytes);
      if (!net_.crashed(self_)) {
        net_.edges_[{self_, to}].push_back(std::move(bytes));
      }
    }
    void broadcast(std::string bytes) override {
      net_.note_frame(bytes);
      if (net_.crashed(self_)) return;
      const bool equivocate =
          net_.equivocating_ == self_ && !bytes.empty();
      for (ProcessId to = 0; to < net_.group_.n; ++to) {
        if (equivocate && to != self_) {
          net_.edges_[{self_, to}].push_back(fault::bit_flip_copy(
              bytes, bytes.size() - 1, to % 8u));
        } else {
          net_.edges_[{self_, to}].push_back(bytes);
        }
      }
    }
    void w_broadcast(InstanceId k, std::string payload) override {
      net_.note_frame(payload);
      if (!net_.crashed(self_)) {
        net_.wab_out_[self_].emplace_back(k, std::move(payload));
      }
    }
    void a_deliver(const abcast::AppMessage& m) override {
      net_.delivered_[self_].push_back(m);
    }
    DirectAbcastNet& net_;
    ProcessId self_;
  };

  void note_frame(const std::string& bytes) {
    largest_frame_ = std::max(largest_frame_, bytes.size());
  }

  GroupParams group_;
  std::vector<std::unique_ptr<Fd>> fds_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<abcast::AtomicBroadcast>> protocols_;
  std::vector<std::vector<abcast::AppMessage>> delivered_;
  std::vector<abcast::MsgId> submitted_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<std::string>> edges_;
  std::map<ProcessId, std::deque<std::pair<InstanceId, std::string>>> wab_out_;
  std::map<ProcessId, bool> crashed_;
  /// kNoProcess = honest run; otherwise the armed equivocating sender.
  ProcessId equivocating_ = kNoProcess;
  std::size_t largest_frame_ = 0;
};

}  // namespace zdc::check
