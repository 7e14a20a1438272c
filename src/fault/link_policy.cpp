#include "fault/link_policy.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace zdc::fault {

LinkPolicy::LinkPolicy(std::uint32_t n)
    : n_(n),
      links_(static_cast<std::size_t>(n) * n),
      paused_(n, 0),
      corrupt_links_(static_cast<std::size_t>(n) * n),
      corrupt_inbound_(n),
      equivocate_(n, 0) {
  ZDC_ASSERT(n > 0);
}

LinkState LinkPolicy::link(ProcessId from, ProcessId to) const {
  ZDC_ASSERT(from < n_ && to < n_);
  if (!ever_faulted() || from == to) return LinkState{};
  common::MutexLock lock(mu_);
  return links_[static_cast<std::size_t>(from) * n_ + to];
}

void LinkPolicy::set_link(ProcessId from, ProcessId to, LinkState state) {
  ZDC_ASSERT(from < n_ && to < n_);
  {
    common::MutexLock lock(mu_);
    links_[static_cast<std::size_t>(from) * n_ + to] = state;
    touch();
  }
  run_heal_hook();
}

void LinkPolicy::partition(const std::vector<ProcessId>& side_a) {
  std::vector<bool> in_a(n_, false);
  for (ProcessId p : side_a) {
    ZDC_ASSERT(p < n_);
    in_a[p] = true;
  }
  common::MutexLock lock(mu_);
  for (ProcessId from = 0; from < n_; ++from) {
    for (ProcessId to = 0; to < n_; ++to) {
      if (in_a[from] != in_a[to]) {
        links_[static_cast<std::size_t>(from) * n_ + to].blocked = true;
      }
    }
  }
  touch();
}

void LinkPolicy::isolate(ProcessId p) {
  ZDC_ASSERT(p < n_);
  common::MutexLock lock(mu_);
  for (ProcessId q = 0; q < n_; ++q) {
    if (q == p) continue;
    links_[static_cast<std::size_t>(p) * n_ + q].blocked = true;
    links_[static_cast<std::size_t>(q) * n_ + p].blocked = true;
  }
  touch();
}

void LinkPolicy::heal() {
  {
    common::MutexLock lock(mu_);
    std::fill(links_.begin(), links_.end(), LinkState{});
    touch();
  }
  run_heal_hook();
}

void LinkPolicy::run_heal_hook() {
  std::function<void()> hook;
  {
    common::MutexLock lock(mu_);
    hook = heal_hook_;
  }
  // Outside mu_: the hook re-reads link() for every parked message.
  if (hook) hook();
}

void LinkPolicy::pause(ProcessId p) {
  ZDC_ASSERT(p < n_);
  common::MutexLock lock(mu_);
  paused_[p] = 1;
  touch();
}

void LinkPolicy::resume(ProcessId p) {
  ZDC_ASSERT(p < n_);
  std::function<void(ProcessId)> hook;
  {
    common::MutexLock lock(mu_);
    paused_[p] = 0;
    hook = resume_hook_;
  }
  // Outside mu_: the hook takes the executor's lane mutex, and lanes read
  // paused() under that mutex (lane -> policy is the one lock order).
  if (hook) hook(p);
}

void LinkPolicy::set_resume_hook(std::function<void(ProcessId)> hook) {
  common::MutexLock lock(mu_);
  resume_hook_ = std::move(hook);
}

void LinkPolicy::set_heal_hook(std::function<void()> hook) {
  common::MutexLock lock(mu_);
  heal_hook_ = std::move(hook);
}

bool LinkPolicy::paused(ProcessId p) const {
  ZDC_ASSERT(p < n_);
  if (!ever_faulted()) return false;
  common::MutexLock lock(mu_);
  return paused_[p] != 0;
}

void LinkPolicy::corrupt_link(ProcessId from, ProcessId to,
                              std::uint64_t count, CorruptSpec spec) {
  ZDC_ASSERT(from < n_ && to < n_);
  common::MutexLock lock(mu_);
  CorruptBudget& budget = corrupt_links_[static_cast<std::size_t>(from) * n_ + to];
  budget.count += count;
  budget.spec = spec;
  touch();
}

void LinkPolicy::corrupt_inbound(ProcessId to, std::uint64_t count,
                                 CorruptSpec spec) {
  ZDC_ASSERT(to < n_);
  common::MutexLock lock(mu_);
  corrupt_inbound_[to].count += count;
  corrupt_inbound_[to].spec = spec;
  touch();
}

void LinkPolicy::equivocate(ProcessId from, std::uint64_t count) {
  ZDC_ASSERT(from < n_);
  common::MutexLock lock(mu_);
  equivocate_[from] += count;
  touch();
}

bool LinkPolicy::consume_corruption(ProcessId from, ProcessId to,
                                    CorruptSpec* spec) const {
  ZDC_ASSERT(from < n_ && to < n_);
  // Self-links are never faulted (same rule as link()): a process's loopback
  // is a memory move, not a wire.
  if (!ever_faulted() || from == to) return false;
  common::MutexLock lock(mu_);
  CorruptBudget& link = corrupt_links_[static_cast<std::size_t>(from) * n_ + to];
  CorruptBudget& budget = link.count > 0 ? link : corrupt_inbound_[to];
  if (budget.count == 0) return false;
  --budget.count;
  *spec = budget.spec;
  return true;
}

bool LinkPolicy::consume_equivocation(ProcessId from) const {
  ZDC_ASSERT(from < n_);
  if (!ever_faulted()) return false;
  common::MutexLock lock(mu_);
  if (equivocate_[from] == 0) return false;
  --equivocate_[from];
  return true;
}

}  // namespace zdc::fault
