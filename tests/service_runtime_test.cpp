// End-to-end tests for rsm::ServiceGroup / rsm::Client on the threaded
// runtime: the stable client API (execute / read / close_session), dedup
// across duplicate submissions and across a kill-9 restart (WAL-backed),
// the read-index fast path actually serving without consensus, the
// downgrade path keeping reads correct through a leader crash, and a paused
// lease holder reopening its reign once it resumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/stable_storage.h"
#include "core/kv_store.h"
#include "core/rsm.h"
#include "fault/link_policy.h"
#include "obs/run_options.h"
#include "runtime/runtime_node.h"
#include "service/service_group.h"
#include "service/session.h"
#include "storage/durable_storage.h"
#include "storage/env.h"

namespace zdc::rsm {
namespace {

// Per-process MemEnvs standing in for disks; they outlive crashes and
// restarts, which is what makes WAL-backed dedup survival testable.
struct Disks {
  explicit Disks(std::uint32_t n) {
    for (std::uint32_t p = 0; p < n; ++p) {
      envs.push_back(std::make_unique<storage::MemEnv>());
    }
  }

  common::StorageFactory factory() {
    return [this](ProcessId p) -> std::unique_ptr<common::StableStorage> {
      std::unique_ptr<storage::DurableStableStorage> store;
      const storage::Status s =
          storage::DurableStableStorage::open(*envs[p], "db", {}, &store);
      ZDC_ASSERT_MSG(s.is_ok(), "WAL reopen failed");
      return store;
    };
  }

  std::vector<std::unique_ptr<storage::MemEnv>> envs;
};

// Inner machine whose double-apply is visible as state: applies_ counts
// real (non-deduped) executions and survives serialize/restore, so a WAL
// replay or snapshot transfer keeps the evidence.
class CountingMachine final : public core::StateMachine {
 public:
  std::string apply(const std::string& command) override {
    static_cast<void>(command);
    ++applies_;
    return "applied:" + std::to_string(applies_);
  }
  [[nodiscard]] std::string snapshot() const override {
    return std::to_string(applies_);
  }
  [[nodiscard]] std::string serialize() const override { return snapshot(); }
  [[nodiscard]] bool restore(const std::string& image) override {
    applies_ = std::stoull(image);
    return true;
  }
  [[nodiscard]] std::uint64_t applies() const { return applies_; }

 private:
  std::uint64_t applies_ = 0;
};

bool wait_ms(double ms) {
  return runtime::RuntimeCluster::wait_until([] { return false; }, ms);
}

TEST(ServiceRuntime, ExecuteReadCloseEndToEnd) {
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(3).with_sessions();
  ServiceGroup svc(opts,
                   [] { return std::make_unique<core::KvStateMachine>(); });
  svc.start();

  Client c = svc.client();
  EXPECT_EQ(c.execute(core::kv_put("k", "v1")), "ok");
  EXPECT_EQ(c.execute(core::kv_get("k")), "value:v1");
  // read_index off: every read is consensus-ordered, still linearizable.
  EXPECT_EQ(c.read(core::kv_get("k")), "value:v1");
  c.close_session();

  const ServiceGroup::PathStats s = svc.stats();
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.fast_reads, 0u);
  EXPECT_EQ(s.ordered_reads, 1u);
  svc.shutdown();
}

TEST(ServiceRuntime, DuplicateSubmissionsApplyExactlyOnce) {
  const auto opts =
      zdc::RunOptions{}.with_group(4, 1).with_seed(11).with_sessions();
  ServiceGroup svc(opts, [] { return std::make_unique<CountingMachine>(); });
  svc.start();

  // Hand-framed envelope injected twice at two replicas — the wire-level
  // shape of a client retry racing its original.
  const std::string framed = frame_request(1000, 1, "cmd");
  svc.replicas().submit(0, framed);
  svc.replicas().submit(1, framed);
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (svc.replicas().applied(p) < 2) return false;
        }
        return true;
      },
      20000.0));
  svc.shutdown();

  for (ProcessId p = 0; p < 4; ++p) {
    const auto* sm =
        static_cast<const SessionStateMachine*>(svc.replicas().machine(p));
    ASSERT_NE(sm, nullptr);
    EXPECT_EQ(static_cast<const CountingMachine&>(sm->inner()).applies(), 1u)
        << "replica " << p << " double-applied the retry";
    EXPECT_GE(sm->duplicates_suppressed(), 1u) << "replica " << p;
    EXPECT_EQ(svc.replicas().digest(p), svc.replicas().digest(0));
  }
}

TEST(ServiceRuntime, DedupSurvivesKill9Restart) {
  constexpr ProcessId kVictim = 2;
  Disks disks(4);
  const auto opts = zdc::RunOptions{}
                        .with_group(4, 1)
                        .with_seed(17)
                        .with_storage(disks.factory())
                        .with_sessions();
  ServiceGroup svc(opts, [] { return std::make_unique<CountingMachine>(); });
  svc.start();

  const std::string framed = frame_request(1000, 1, "cmd");
  svc.replicas().submit(0, framed);
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] { return svc.replicas().applied(kVictim) >= 1; }, 20000.0));

  // kill -9 the victim, reboot it from its WAL, then replay the client's
  // retry: the recovered dedup table must refuse it.
  svc.crash(kVictim);
  static_cast<void>(wait_ms(100.0));
  const std::uint64_t recovered = svc.restart(kVictim);
  EXPECT_GE(recovered, 1u) << "the dedup table must survive the kill -9";

  svc.replicas().submit(kVictim, framed);
  ASSERT_TRUE(runtime::RuntimeCluster::wait_until(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (svc.replicas().applied(p) < 2) return false;
        }
        return true;
      },
      20000.0));
  svc.shutdown();

  for (ProcessId p = 0; p < 4; ++p) {
    const auto* sm =
        static_cast<const SessionStateMachine*>(svc.replicas().machine(p));
    EXPECT_EQ(static_cast<const CountingMachine&>(sm->inner()).applies(), 1u)
        << "replica " << p;
    EXPECT_EQ(svc.replicas().digest(p), svc.replicas().digest(0));
  }
}

TEST(ServiceRuntime, ReadIndexServesFromLeaseHolder) {
  const auto opts = zdc::RunOptions{}
                        .with_group(4, 1)
                        .with_seed(7)
                        .with_sessions()
                        .with_read_index();
  ServiceGroup svc(
      opts, [] { return std::make_unique<core::KvStateMachine>(); });
  svc.start();

  Client c = svc.client();
  EXPECT_EQ(c.execute(core::kv_put("k", "v1")), "ok");
  // Early reads may downgrade (lease not yet established); once the
  // leader's barrier applies and its endorsement streak passes one lease,
  // reads go fast. Every reply must be correct either way.
  bool saw_fast = false;
  for (int i = 0; i < 400 && !saw_fast; ++i) {
    EXPECT_EQ(c.read(core::kv_get("k")), "value:v1");
    saw_fast = svc.stats().fast_reads > 0;
    if (!saw_fast) static_cast<void>(wait_ms(20.0));
  }
  EXPECT_TRUE(saw_fast) << "the lease gate never opened";
  c.close_session();
  svc.shutdown();
}

// Regression: a lease holder paused long enough for a peer to take Ω and
// order its own reign barrier gets Ω back on resume without ever seeing
// itself lose it. Unless it orders a new barrier, no replica holds the
// lease again — and with read-index on only the lease holder answers, so
// every later request would end in error:timeout.
TEST(ServiceRuntime, PausedLeaseHolderReopensItsReign) {
  const auto opts = zdc::RunOptions{}
                        .with_group(4, 1)
                        .with_seed(7)
                        .with_sessions()
                        .with_read_index();
  ServiceGroup::Config cfg;
  cfg.client_retry_ms = 300.0;
  ServiceGroup svc(
      opts, [] { return std::make_unique<core::KvStateMachine>(); }, cfg);
  svc.start();

  Client c = svc.client();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(c.execute(core::kv_put("k", "v" + std::to_string(i))), "ok");
  }
  fault::LinkPolicy& links = svc.replicas().cluster().network().links();
  links.pause(0);
  static_cast<void>(wait_ms(300.0));
  links.resume(0);
  static_cast<void>(wait_ms(1000.0));

  EXPECT_EQ(c.execute(core::kv_put("k", "after")), "ok");
  EXPECT_EQ(c.read(core::kv_get("k")), "value:after");
  EXPECT_EQ(c.execute(core::kv_get("k")), "value:after");
  svc.shutdown();
}

TEST(ServiceRuntime, ReadsStayCorrectThroughLeaderCrash) {
  const auto opts = zdc::RunOptions{}
                        .with_group(4, 1)
                        .with_seed(23)
                        .with_sessions()
                        .with_read_index();
  ServiceGroup svc(
      opts, [] { return std::make_unique<core::KvStateMachine>(); });
  svc.start();

  Client c = svc.client(/*home=*/1);
  EXPECT_EQ(c.execute(core::kv_put("k", "v1")), "ok");
  EXPECT_EQ(c.read(core::kv_get("k")), "value:v1");

  // Crash replica 0 (Ω converges to the lowest live id, so 0 is the
  // leader once the cluster settled). Reads must keep answering correctly
  // through the transition — downgraded or via the new lease holder.
  svc.crash(0);
  EXPECT_EQ(c.read(core::kv_get("k")), "value:v1");
  EXPECT_EQ(c.execute(core::kv_put("k", "v2")), "ok");
  EXPECT_EQ(c.read(core::kv_get("k")), "value:v2");

  // The new leader eventually serves fast again.
  const std::uint64_t fast_before = svc.stats().fast_reads;
  bool saw_fast = false;
  for (int i = 0; i < 400 && !saw_fast; ++i) {
    EXPECT_EQ(c.read(core::kv_get("k")), "value:v2");
    saw_fast = svc.stats().fast_reads > fast_before;
    if (!saw_fast) static_cast<void>(wait_ms(20.0));
  }
  EXPECT_TRUE(saw_fast) << "no fast reads after failover";

  // The rebooted ex-leader rejoins without disturbing correctness.
  static_cast<void>(svc.restart(0));
  EXPECT_EQ(c.read(core::kv_get("k")), "value:v2");
  c.close_session();
  svc.shutdown();
}

}  // namespace
}  // namespace zdc::rsm
