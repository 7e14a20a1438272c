// Nemesis fault-injection tests: the fault library itself (plan text form,
// generator, link-policy semantics), the simulator worlds under scripted and
// seeded-random fault schedules (safety always, liveness once the plan
// settles, byte-identical determinism), and the threaded runtime under
// wall-clock fault replay (partition/heal and crash/restart on both the
// mailbox and the UDP fabric).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stable_storage.h"
#include "consensus/recovering_paxos.h"
#include "fault/corrupt.h"
#include "fault/fault_plan.h"
#include "fault/link_policy.h"
#include "check/invariants.h"
#include "fault/nemesis.h"
#include "runtime/consensus_runner.h"
#include "runtime/inproc_net.h"
#include "runtime/udp_net.h"
#include "sim/abcast_world.h"
#include "sim/consensus_world.h"
#include "sim/trace.h"
#include "test_sync.h"

namespace zdc {
namespace {

// ---------------------------------------------------------------------------
// Fault library: text form, generator, link policy.

TEST(FaultPlanText, RoundTripsThroughTextForm) {
  const std::string text =
      "# a plan exercising every action kind\n"
      "@0 partition 0 1 | 2 3\n"
      "@2.5 link 1 2 drop=0.25 delay=1.5\n"
      "@3 pause 3\n"
      "@5 isolate 2\n"
      "@6 resume 3\n"
      "@7 crash 1\n"
      "@8 restart 1\n"
      "@10 heal\n";
  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan(text, &plan, &err)) << err;
  ASSERT_EQ(plan.actions.size(), 8u);
  EXPECT_TRUE(plan.has(fault::FaultKind::kPartition));
  EXPECT_TRUE(plan.has(fault::FaultKind::kLink));
  EXPECT_TRUE(plan.has(fault::FaultKind::kRestart));
  EXPECT_TRUE(plan.settles());
  EXPECT_TRUE(plan.crashed_at_end().empty()) << "crash 1 is restarted";

  // print -> parse -> print must be a fixed point.
  const std::string printed = fault::to_string(plan);
  fault::FaultPlan again;
  ASSERT_TRUE(fault::parse_fault_plan(printed, &again, &err)) << err;
  EXPECT_EQ(fault::to_string(again), printed);
  ASSERT_EQ(again.actions.size(), plan.actions.size());
  EXPECT_EQ(again.actions[1].drop_prob, 0.25);
  EXPECT_EQ(again.actions[1].extra_delay_ms, 1.5);
}

TEST(FaultPlanText, CorruptionGrammarRoundTrips) {
  const std::string text =
      "@1 flip 0 2 count=3 byte=4 bit=7\n"
      "@2 equivocate 1 count=2\n"
      "@3 scorrupt 2\n";
  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan(text, &plan, &err)) << err;
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_TRUE(plan.has(fault::FaultKind::kFlip));
  EXPECT_TRUE(plan.has(fault::FaultKind::kEquivocate));
  EXPECT_TRUE(plan.has(fault::FaultKind::kStateCorrupt));
  // Corruption budgets are transient by construction: they drain on delivery
  // and never leave a standing disturbance behind, so the plan settles.
  EXPECT_TRUE(plan.settles());
  EXPECT_EQ(plan.actions[0].count, 3u);
  EXPECT_EQ(plan.actions[0].byte, 4u);
  EXPECT_EQ(plan.actions[0].bit, 7u);
  EXPECT_EQ(plan.actions[1].count, 2u);
  // Defaults: count=1, byte=middle sentinel, bit=0.
  EXPECT_EQ(plan.actions[2].count, 1u);
  EXPECT_EQ(plan.actions[2].byte, fault::kMiddleByte);
  EXPECT_EQ(plan.actions[2].bit, 0u);

  const std::string printed = fault::to_string(plan);
  fault::FaultPlan again;
  ASSERT_TRUE(fault::parse_fault_plan(printed, &again, &err)) << err;
  EXPECT_EQ(fault::to_string(again), printed);
}

TEST(FaultPlanText, RejectsMalformedInput) {
  const std::vector<std::string> bad = {
      "@x heal",            // unparsable time
      "heal",               // missing @time
      "@5 bogus 1",         // unknown action
      "@1 link 0",          // missing 'to'
      "@1 partition 0 1",   // missing the '|' separator
      "@1 pause",           // missing process
      "@1 link 0 1 drop=2nonsense",
      "@1 flip 0",                 // missing 'to'
      "@1 equivocate 0 byte=2",    // the fabric picks the divergent bytes
      "@1 equivocate 0 bit=3",
      "@1 scorrupt",               // missing process
  };
  for (const std::string& text : bad) {
    fault::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(fault::parse_fault_plan(text, &plan, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

TEST(FaultPlanText, CheckPlanRejectsProcessesOutsideTheGroup) {
  const std::vector<std::string> bad = {
      "@0.1 crash 7",          "@0.1 partition 0 9 |", "@0.1 link 0 4",
      "@0.1 flip 4 0",         "@0.1 isolate 4",       "@0.1 pause 5",
      "@0.1 equivocate 4",     "@0.1 scorrupt 4",      "@0.1 restart 4",
  };
  for (const std::string& text : bad) {
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::parse_fault_plan(text, &plan, &err)) << err;
    EXPECT_FALSE(fault::check_plan(plan, 4, &err)) << text;
    EXPECT_NE(err.find("out of range for n=4"), std::string::npos) << err;
  }
  fault::FaultPlan good;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan(
      "@0.1 partition 0 1 | 2 3\n@0.2 link 3 2 delay=1\n@0.3 heal\n"
      "@0.4 flip 0 3\n@0.5 crash 3\n",
      &good, &err))
      << err;
  EXPECT_TRUE(fault::check_plan(good, 4, &err)) << err;
}

TEST(NemesisGenerator, DeterministicAndSurvivable) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    fault::NemesisConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.disturbances = 1 + seed % 4;
    cfg.allow_restart = (seed % 2 == 0);
    const fault::FaultPlan a = fault::random_fault_plan(cfg, seed);
    const fault::FaultPlan b = fault::random_fault_plan(cfg, seed);
    EXPECT_EQ(fault::to_string(a), fault::to_string(b))
        << "same (config, seed) must yield the same plan";
    EXPECT_TRUE(a.settles()) << "settle=true plans must settle, seed " << seed;
    EXPECT_LE(a.crashed_at_end().size(), cfg.f) << "seed " << seed;
    for (const fault::FaultAction& act : a.actions) {
      if (act.p != kNoProcess) {
        EXPECT_LT(act.p, cfg.n);
      }
      if (act.q != kNoProcess) {
        EXPECT_LT(act.q, cfg.n);
      }
      for (ProcessId m : act.group) {
        EXPECT_LT(m, cfg.n);
      }
    }
  }
}

TEST(LinkPolicy, PartitionHealAndPauseSemantics) {
  fault::LinkPolicy policy(4);
  EXPECT_FALSE(policy.ever_faulted());

  policy.partition({0, 1});
  EXPECT_TRUE(policy.ever_faulted());
  EXPECT_TRUE(policy.link(0, 2).blocked);
  EXPECT_TRUE(policy.link(2, 0).blocked);
  EXPECT_FALSE(policy.link(0, 1).blocked) << "intra-side links stay up";
  EXPECT_FALSE(policy.link(2, 3).blocked);
  EXPECT_TRUE(policy.link(2, 2).clean()) << "self-links are never faulted";

  policy.pause(2);
  policy.heal();
  EXPECT_TRUE(policy.link(0, 2).clean());
  EXPECT_TRUE(policy.paused(2)) << "heal mends links, not processes";
  policy.resume(2);
  EXPECT_FALSE(policy.paused(2));
}

TEST(LinkPolicy, CorruptionBudgetsDrainOnDelivery) {
  fault::LinkPolicy policy(4);
  fault::CorruptSpec spec;
  EXPECT_FALSE(policy.consume_corruption(0, 1, &spec));

  policy.corrupt_link(0, 1, 2, fault::CorruptSpec{5, 3});
  EXPECT_TRUE(policy.ever_faulted());
  ASSERT_TRUE(policy.consume_corruption(0, 1, &spec));
  EXPECT_EQ(spec.byte, 5u);
  EXPECT_EQ(spec.bit, 3u);
  EXPECT_TRUE(policy.consume_corruption(0, 1, &spec));
  EXPECT_FALSE(policy.consume_corruption(0, 1, &spec)) << "budget of 2 drained";
  EXPECT_FALSE(policy.consume_corruption(1, 0, &spec)) << "direction matters";

  // Inbound (scorrupt) budgets catch frames from any sender...
  policy.corrupt_inbound(2, 1, fault::CorruptSpec{});
  EXPECT_TRUE(policy.consume_corruption(3, 2, &spec));
  EXPECT_FALSE(policy.consume_corruption(0, 2, &spec));
  // ...but self-links are never faulted.
  policy.corrupt_inbound(3, 1, fault::CorruptSpec{});
  EXPECT_FALSE(policy.consume_corruption(3, 3, &spec));
  EXPECT_TRUE(policy.consume_corruption(0, 3, &spec));

  policy.equivocate(1, 1);
  EXPECT_TRUE(policy.consume_equivocation(1));
  EXPECT_FALSE(policy.consume_equivocation(1)) << "budget of 1 drained";
  EXPECT_FALSE(policy.consume_equivocation(0));
}

TEST(SimCorruption, SettledCorruptionPlanIsDetectableDropOnly) {
  // Byte-flips, inbound corruption and equivocation against a deciding run:
  // with frame checksums on, every corrupted frame (and every per-receiver
  // divergent equivocation copy) must surface as a CRC drop — and the clean
  // retransmissions keep the run safe and live.
  for (const char* protocol : {"p", "paxos"}) {
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = 11;
    cfg.proposals = {"alpha", "alpha", "alpha", "alpha"};
    // Propose after the budgets arm, so every corruption window sees traffic.
    cfg.propose_times = {0.5, 0.5, 0.5, 0.5};
    std::string err;
    ASSERT_TRUE(fault::parse_fault_plan("@0.1 flip 0 1 count=2\n"
                                        "@0.1 flip 1 0 count=1 byte=0 bit=5\n"
                                        "@0.2 scorrupt 2 count=2\n"
                                        "@0.3 equivocate 3 count=1\n",
                                        &cfg.fault_plan, &err))
        << err;
    const auto r = sim::run_consensus(
        cfg, sim::consensus_factory_by_name(protocol));
    EXPECT_TRUE(r.safe()) << protocol;
    EXPECT_TRUE(r.all_correct_decided) << protocol;
    EXPECT_GT(r.frames_corrupted, 0u) << protocol;
    EXPECT_GT(r.equivocations, 0u) << protocol;
    // The run stops at all-decided, not at quiescence, so a corrupted copy
    // can still be in flight — the drop ledger may lag the injection ledger
    // but can never exceed it (that would be a frame dropped twice or a
    // clean frame rejected). The model checker asserts exact equality at
    // true quiescence (check_corruption, tests/check_test.cpp).
    EXPECT_GT(r.corrupt_frames_dropped, 0u) << protocol;
    EXPECT_LE(r.corrupt_frames_dropped, r.frames_corrupted + r.equivocations)
        << protocol << ": more drops than injections";
  }
}

TEST(SimCorruption, CorruptedRunsStayDeterministic) {
  sim::ConsensusRunConfig cfg;
  cfg.group = GroupParams{4, 1};
  cfg.seed = 23;
  cfg.proposals = {"a", "b", "a", "b"};
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan(
      "@0.1 flip 0 1 count=3\n@0.2 equivocate 2 count=2\n", &cfg.fault_plan,
      &err))
      << err;
  const auto r1 = sim::run_consensus(cfg, sim::p_consensus_factory());
  const auto r2 = sim::run_consensus(cfg, sim::p_consensus_factory());
  EXPECT_EQ(r1.frames_corrupted, r2.frames_corrupted);
  EXPECT_EQ(r1.equivocations, r2.equivocations);
  EXPECT_EQ(r1.corrupt_frames_dropped, r2.corrupt_frames_dropped);
  EXPECT_EQ(r1.last_decision_time, r2.last_decision_time);
  EXPECT_EQ(r1.events_executed, r2.events_executed);
}

TEST(SimCorruption, ConvergenceOracleHoldsAfterBurst) {
  // Self-stabilization: after the last transient corruption, the run must be
  // back in a legal state (everyone decided, safely) within a bounded number
  // of further events. The sim is quiescent at run end, so the oracle reduces
  // to "the burst did not wedge the run" — checked through the real
  // check_convergence predicate rather than ad-hoc assertions.
  sim::ConsensusRunConfig cfg;
  cfg.group = GroupParams{4, 1};
  cfg.seed = 5;
  cfg.proposals = {"v", "v", "v", "v"};
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan("@0.05 flip 0 1 count=4\n"
                                      "@0.05 scorrupt 1 count=3\n"
                                      "@0.1 equivocate 0 count=2\n",
                                      &cfg.fault_plan, &err))
      << err;
  const auto r = sim::run_consensus(cfg, sim::p_consensus_factory());
  check::ConvergenceObs obs;
  obs.corrupt_injected = r.frames_corrupted + r.equivocations;
  ASSERT_GT(obs.corrupt_injected, 0u);
  obs.steps_since_last_injection = r.events_executed;
  obs.step_bound = 64;  // generous: the burst is over within a few events
  obs.legal_state = r.safe() && r.all_correct_decided;
  EXPECT_EQ(check::check_convergence(obs), std::nullopt)
      << "run did not converge after the corruption burst";
}

TEST(SimCorruption, RandomCorruptionPlansStaySafeAndLive) {
  // allow_corrupt mixes flip/equivocate/scorrupt windows into the generator's
  // draw (the bench_nemesis corruption table rides this); corruption budgets
  // drain on delivery, so every plan is survivable by construction and both
  // safety and settle-liveness must hold unconditionally.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = seed;
    cfg.proposals = {"a", "b", "a", "b"};
    for (std::uint32_t p = 0; p < cfg.group.n; ++p) {
      cfg.propose_times.push_back(0.25 * static_cast<double>(p));
    }
    fault::NemesisConfig ncfg;
    ncfg.n = 4;
    ncfg.f = 1;
    ncfg.horizon_ms = 15.0;
    ncfg.disturbances = 3;
    ncfg.allow_corrupt = true;
    cfg.fault_plan = fault::random_fault_plan(ncfg, seed * 271 + 5);

    const auto r = sim::run_consensus(cfg, sim::l_consensus_factory());
    ASSERT_TRUE(r.safe()) << "seed " << seed << "\n"
                          << fault::to_string(cfg.fault_plan);
    ASSERT_TRUE(r.all_correct_decided)
        << "seed " << seed << "\n" << fault::to_string(cfg.fault_plan);
    EXPECT_LE(r.corrupt_frames_dropped, r.frames_corrupted + r.equivocations)
        << "seed " << seed;
  }
}


// ---------------------------------------------------------------------------
// Simulator sweeps: >= 50 seeded random plans per protocol; safety must hold
// unconditionally, liveness once the plan settles.

const std::vector<std::string> kValuePool = {"alpha", "beta", "gamma"};

class SimNemesisSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SimNemesisSweep, SafeAlwaysLiveWhenSettled) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    common::Rng rng(seed * 6151);
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = seed;
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = rng.uniform(0.5, 6.0);
    for (std::uint32_t p = 0; p < cfg.group.n; ++p) {
      cfg.proposals.push_back(kValuePool[rng.next_below(kValuePool.size())]);
      cfg.propose_times.push_back(rng.uniform(0.0, 3.0));
    }

    fault::NemesisConfig ncfg;
    ncfg.n = cfg.group.n;
    ncfg.f = cfg.group.f;
    ncfg.horizon_ms = rng.uniform(10.0, 40.0);
    ncfg.disturbances = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    ncfg.settle = !rng.chance(0.25);  // a quarter of the plans never heal
    cfg.fault_plan = fault::random_fault_plan(ncfg, seed * 31 + 7);

    auto r = sim::run_consensus(cfg,
                                sim::consensus_factory_by_name(GetParam()));
    ASSERT_TRUE(r.agreement_ok) << GetParam() << " agreement, seed " << seed
                                << "\n" << fault::to_string(cfg.fault_plan);
    ASSERT_TRUE(r.validity_ok) << GetParam() << " validity, seed " << seed
                               << "\n" << fault::to_string(cfg.fault_plan);
    if (cfg.fault_plan.settles()) {
      ASSERT_TRUE(r.all_correct_decided)
          << GetParam() << " liveness after settle, seed " << seed << "\n"
          << fault::to_string(cfg.fault_plan);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SimNemesisSweep,
                         ::testing::Values("l", "p"));

/// Per-process stable storage owned outside the world so it survives
/// plan-driven restarts (same pattern as tests/recovery_test.cpp).
struct RecoveringFleet {
  explicit RecoveringFleet(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      storages.push_back(std::make_unique<common::InMemoryStableStorage>());
    }
  }
  sim::SimConsensusFactory factory() {
    return [this](ProcessId self, GroupParams group,
                  consensus::ConsensusHost& host, const fd::OmegaView& omega,
                  const fd::SuspectView&) {
      return std::make_unique<consensus::RecoveringPaxosConsensus>(
          self, group, host, omega, *storages[self]);
    };
  }
  std::vector<std::unique_ptr<common::InMemoryStableStorage>> storages;
};

TEST(SimNemesisSweep, RecPaxosSurvivesCrashRestartPlans) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    common::Rng rng(seed * 7727);
    RecoveringFleet fleet(4);
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = seed;
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = rng.uniform(0.5, 6.0);
    for (std::uint32_t p = 0; p < cfg.group.n; ++p) {
      cfg.proposals.push_back(kValuePool[rng.next_below(kValuePool.size())]);
      cfg.propose_times.push_back(rng.uniform(0.0, 3.0));
    }

    fault::NemesisConfig ncfg;
    ncfg.n = 4;
    ncfg.f = 1;
    ncfg.horizon_ms = rng.uniform(15.0, 40.0);
    ncfg.disturbances = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    ncfg.allow_restart = true;  // safe: the protocol is storage-backed
    cfg.fault_plan = fault::random_fault_plan(ncfg, seed * 131 + 3);

    auto r = sim::run_consensus(cfg, fleet.factory());
    ASSERT_TRUE(r.safe()) << "seed " << seed << "\n"
                          << fault::to_string(cfg.fault_plan);

    // Liveness for every process the plan never crashed. (A restarted
    // process may legitimately stay undecided when the stable leader never
    // needs it — same contract as the CrashSpec-driven recovery tests.)
    std::set<ProcessId> ever_crashed;
    for (const fault::FaultAction& a : cfg.fault_plan.actions) {
      if (a.kind == fault::FaultKind::kCrash) ever_crashed.insert(a.p);
    }
    for (ProcessId p = 0; p < cfg.group.n; ++p) {
      if (ever_crashed.count(p) != 0) continue;
      ASSERT_TRUE(r.outcomes[p].decided)
          << "p" << p << " undecided, seed " << seed << "\n"
          << fault::to_string(cfg.fault_plan);
    }
  }
}

TEST(AbcastNemesis, CAbcastStaysSafeAndConvergesUnderRandomPlans) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    common::Rng rng(seed * 4111);
    sim::AbcastRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = seed;
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 2.0;
    cfg.throughput_per_s = 2000.0;
    cfg.message_count = 120;
    cfg.payload_bytes = 32;

    fault::NemesisConfig ncfg;
    ncfg.n = 4;
    ncfg.f = 1;
    ncfg.horizon_ms = 40.0;
    ncfg.disturbances = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    ncfg.allow_crash = rng.chance(0.5);
    cfg.fault_plan = fault::random_fault_plan(ncfg, seed * 53 + 11);

    auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name("c-l"));
    ASSERT_TRUE(r.safe()) << "seed " << seed << "\n"
                          << fault::to_string(cfg.fault_plan);
    ASSERT_TRUE(r.agreement_ok) << "seed " << seed << "\n"
                                << fault::to_string(cfg.fault_plan);
    ASSERT_EQ(r.undelivered, 0u) << "seed " << seed << "\n"
                                 << fault::to_string(cfg.fault_plan);
  }
}

TEST(AbcastNemesis, CAbcastStaysSafeUnderRandomCorruptionPlans) {
  // allow_corrupt mixes flip/equivocate/scorrupt windows into the drawn
  // plans. The C-Abcast frame is sealed as a whole, so every corrupted copy
  // is a detectable drop and the clean retransmission carries the run.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    sim::AbcastRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = seed;
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 2.0;
    cfg.throughput_per_s = 2000.0;
    cfg.message_count = 120;
    cfg.payload_bytes = 32;

    fault::NemesisConfig ncfg;
    ncfg.n = 4;
    ncfg.f = 1;
    ncfg.horizon_ms = 40.0;
    ncfg.disturbances = 3;
    ncfg.allow_corrupt = true;
    cfg.fault_plan = fault::random_fault_plan(ncfg, seed * 97 + 3);

    auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name("c-l"));
    const std::string plan = fault::to_string(cfg.fault_plan);
    ASSERT_TRUE(r.safe()) << "seed " << seed << "\n" << plan;
    ASSERT_TRUE(r.agreement_ok) << "seed " << seed << "\n" << plan;
    ASSERT_EQ(r.undelivered, 0u) << "seed " << seed << "\n" << plan;
    EXPECT_LE(r.corrupt_frames_dropped, r.frames_corrupted + r.equivocations)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// One fabric under every sim world: a plan injects the same faults into the
// abcast world as into the consensus world.

fault::FaultPlan plan_from(const std::string& text) {
  fault::FaultPlan plan;
  std::string err;
  EXPECT_TRUE(fault::parse_fault_plan(text, &plan, &err)) << err;
  return plan;
}

sim::AbcastRunConfig corruption_abcast_config(std::uint64_t seed,
                                              const std::string& plan) {
  sim::AbcastRunConfig cfg;
  cfg.group = GroupParams{4, 1};
  cfg.seed = seed;
  cfg.throughput_per_s = 500.0;
  cfg.message_count = 100;
  cfg.fault_plan = plan_from(plan);
  return cfg;
}

TEST(AbcastCorruption, SealedStacksStaySafeAtEveryFlipByte) {
  // Flips at the frame head (seal, C-Abcast tag, round id), inside the
  // consensus header and in the body, plus sender equivocation: every
  // corrupted copy must be a counted drop, never a re-routed or altered
  // message.
  for (const char* protocol : {"c-l", "c-p", "wabcast"}) {
    for (const char* byte : {"0", "1", "2", "8", "12", "middle"}) {
      for (const char* bit : {"0", "7"}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          const std::string where =
              std::string(byte) == "middle"
                  ? std::string(" bit=") + bit
                  : std::string(" byte=") + byte + " bit=" + bit;
          const std::string plan = "@0.1 flip 0 1 count=5" + where +
                                   "\n@0.1 flip 2 0 count=5" + where +
                                   "\n@0.1 equivocate 2 count=3\n";
          const auto r = sim::run_abcast(corruption_abcast_config(seed, plan),
                                         sim::abcast_factory_by_name(protocol));
          const std::string ctx = std::string(protocol) + " seed " +
                                  std::to_string(seed) + "\n" + plan;
          ASSERT_TRUE(r.safe()) << ctx;
          ASSERT_TRUE(r.agreement_ok) << ctx;
          ASSERT_EQ(r.undelivered, 0u) << ctx;
          EXPECT_GT(r.frames_corrupted, 0u) << ctx;
          EXPECT_GT(r.corrupt_frames_dropped, 0u) << ctx;
          EXPECT_LE(r.corrupt_frames_dropped,
                    r.frames_corrupted + r.equivocations)
              << ctx;
        }
      }
    }
  }
}

/// The trace without the kFault lines, one string per event.
std::vector<std::string> effects(const sim::TraceRecorder& trace) {
  std::vector<std::string> out;
  for (const sim::TraceEvent& e : trace.events()) {
    if (e.kind == sim::TraceKind::kFault) continue;
    out.push_back(std::to_string(e.time) + "|" +
                  sim::trace_kind_name(e.kind) + "|" +
                  std::to_string(e.subject) + "|" + std::to_string(e.peer) +
                  "|" + e.detail);
  }
  return out;
}

TEST(AbcastCorruption, FlipPlanCostsRetransmissions) {
  // The plan from the fabric's regression: before the abcast world shared
  // the fabric it accepted this plan and ran exactly the fault-free
  // schedule. Now the corrupted copies surface and are dropped, and the
  // clean originals arrive one retransmission quantum later.
  const std::string plan =
      "@0.1 flip 0 1 count=5\n@0.1 equivocate 2 count=3\n";
  sim::AbcastRunConfig clean = corruption_abcast_config(3, "");
  sim::AbcastRunConfig faulty = corruption_abcast_config(3, plan);
  sim::TraceRecorder clean_trace;
  sim::TraceRecorder faulty_trace;
  clean.trace = &clean_trace;
  faulty.trace = &faulty_trace;
  const auto a = sim::run_abcast(clean, sim::abcast_factory_by_name("c-l"));
  const auto b = sim::run_abcast(faulty, sim::abcast_factory_by_name("c-l"));
  ASSERT_TRUE(a.safe() && a.agreement_ok);
  ASSERT_TRUE(b.safe() && b.agreement_ok);
  EXPECT_EQ(a.frames_corrupted + a.equivocations, 0u);
  EXPECT_EQ(b.frames_corrupted, 5u);
  EXPECT_GT(b.equivocations, 0u);
  EXPECT_EQ(b.corrupt_frames_dropped, b.frames_corrupted + b.equivocations);
  EXPECT_EQ(b.totals.corrupt_frames_dropped, b.corrupt_frames_dropped);
  // The retransmissions move the schedule: the runs differ in more than the
  // plan's own kFault lines.
  EXPECT_NE(effects(clean_trace), effects(faulty_trace));
}

TEST(AbcastCorruption, UnsealedPaxosAbcastFlipsAreCaughtByTheOracles) {
  // PaxosAbcast is the paper's baseline and keeps its unsealed wire, so a
  // middle-byte flip reaches its decoder and alters the a-delivered payload.
  // The integrity oracle compares every a-delivered payload with what was
  // a-broadcast, so the run is reported unsafe rather than passing.
  sim::AbcastRunConfig cfg = corruption_abcast_config(
      1, "@0.1 flip 1 0 count=5\n@0.1 flip 0 2 count=5\n");
  cfg.group = GroupParams{3, 1};
  const auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name("paxos"));
  EXPECT_EQ(r.frames_corrupted, 10u);
  EXPECT_EQ(r.corrupt_frames_dropped, 0u) << "PaxosAbcast has no seal";
  EXPECT_FALSE(r.integrity_ok);
  EXPECT_FALSE(r.safe());
}

TEST(SimFabric, PlansNamingProcessesOutsideTheGroupAreRejected) {
  sim::ConsensusRunConfig ccfg;
  ccfg.proposals = {"a", "b", "c", "d"};
  ccfg.fault_plan = plan_from("@0.1 crash 7\n");
  EXPECT_DEATH(sim::run_consensus(ccfg, sim::l_consensus_factory()),
               "out of range for n=4");
  sim::AbcastRunConfig acfg = corruption_abcast_config(1, "@0.1 isolate 4\n");
  EXPECT_DEATH(sim::run_abcast(acfg, sim::abcast_factory_by_name("c-l")),
               "out of range for n=4");
}

/// For one fault verb: a plan that sets the stage (empty for most verbs) and
/// the same plan plus the verb. Runs that differ only in the verb must
/// differ in more than the verb's own kFault trace line.
struct VerbCase {
  std::string base;
  std::string with_verb;
};

VerbCase verb_case(fault::FaultKind kind, double t1, double t2) {
  const std::string a = "@" + std::to_string(t1) + " ";
  const std::string b = "\n@" + std::to_string(t2) + " ";
  switch (kind) {
    case fault::FaultKind::kPartition:
      return {"", a + "partition 0 1 | 2 3"};
    case fault::FaultKind::kHeal:
      return {a + "partition 0 1 | 2 3", a + "partition 0 1 | 2 3" + b + "heal"};
    case fault::FaultKind::kIsolate:
      return {"", a + "isolate 0"};
    case fault::FaultKind::kLink:
      return {"", a + "link 0 1 delay=1"};
    case fault::FaultKind::kPause:
      return {"", a + "pause 3"};
    case fault::FaultKind::kResume:
      return {a + "pause 3", a + "pause 3" + b + "resume 3"};
    case fault::FaultKind::kCrash:
      return {"", a + "crash 0"};
    case fault::FaultKind::kRestart:
      return {a + "crash 0", a + "crash 0" + b + "restart 0"};
    case fault::FaultKind::kFlip:
      return {"", a + "flip 0 1 count=3"};
    case fault::FaultKind::kEquivocate:
      return {"", a + "equivocate 0 count=3"};
    case fault::FaultKind::kStateCorrupt:
      return {"", a + "scorrupt 1 count=3"};
  }
  return {};
}

constexpr fault::FaultKind kAllFaultKinds[] = {
    fault::FaultKind::kPartition, fault::FaultKind::kHeal,
    fault::FaultKind::kIsolate,   fault::FaultKind::kLink,
    fault::FaultKind::kPause,     fault::FaultKind::kResume,
    fault::FaultKind::kCrash,     fault::FaultKind::kRestart,
    fault::FaultKind::kFlip,      fault::FaultKind::kEquivocate,
    fault::FaultKind::kStateCorrupt,
};

TEST(SimFabric, EveryFaultVerbTakesEffectInTheConsensusWorld) {
  auto run = [](const std::string& plan) {
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.net = sim::calibrated_lan_2006();
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 1.0;
    cfg.seed = 9;
    cfg.proposals = {"a", "b", "c", "d"};
    cfg.propose_times = {0.5, 0.5, 0.5, 0.5};
    cfg.fault_plan = plan_from(plan);
    sim::TraceRecorder trace;
    cfg.trace = &trace;
    sim::run_consensus(cfg, sim::l_consensus_factory());
    return effects(trace);
  };
  for (fault::FaultKind kind : kAllFaultKinds) {
    const VerbCase c = verb_case(kind, 0.6, 1.5);
    EXPECT_NE(run(c.base), run(c.with_verb))
        << fault::fault_kind_name(kind) << " had no effect:\n" << c.with_verb;
  }
}

TEST(SimFabric, EveryFaultVerbTakesEffectInTheAbcastWorld) {
  auto run = [](const std::string& plan) {
    sim::AbcastRunConfig cfg = corruption_abcast_config(9, plan);
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 1.0;
    cfg.message_count = 40;
    sim::TraceRecorder trace;
    cfg.trace = &trace;
    sim::run_abcast(cfg, sim::abcast_factory_by_name("c-l"));
    return effects(trace);
  };
  for (fault::FaultKind kind : kAllFaultKinds) {
    const VerbCase c = verb_case(kind, 3.0, 9.0);
    if (kind == fault::FaultKind::kRestart) {
      // The one expected rejection: the abcast world is crash-stop.
      EXPECT_DEATH(run(c.with_verb), "crash-stop");
      continue;
    }
    EXPECT_NE(run(c.base), run(c.with_verb))
        << fault::fault_kind_name(kind) << " had no effect:\n" << c.with_verb;
  }
}

// ---------------------------------------------------------------------------
// Determinism: same seed + same plan => byte-identical trace and decisions.

TEST(NemesisDeterminism, SameSeedAndPlanReproduceTheRunExactly) {
  // A scripted plan whose disturbances all land *before* a decision is
  // possible (the partition at 0.2ms stalls both sides until the heal), so
  // every fault provably executes inside the traced run.
  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan("@0.2 partition 0 1 | 2 3\n"
                                      "@0.6 link 0 2 drop=0.5 delay=1\n"
                                      "@1 pause 3\n"
                                      "@6 resume 3\n"
                                      "@8 heal",
                                      &plan, &err))
      << err;

  auto run = [&plan](sim::TraceRecorder& trace) {
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = 99;
    cfg.fd.mode = sim::FdMode::kCrashTracking;
    cfg.fd.detection_delay_ms = 2.0;
    cfg.proposals = {"a", "b", "b", "c"};
    cfg.propose_times = {0.0, 0.5, 1.0, 1.5};
    cfg.fault_plan = plan;
    cfg.trace = &trace;
    return sim::run_consensus(cfg, sim::consensus_factory_by_name("l"));
  };

  sim::TraceRecorder t1;
  sim::TraceRecorder t2;
  const auto r1 = run(t1);
  const auto r2 = run(t2);

  EXPECT_GT(t1.count(sim::TraceKind::kFault), 0u);
  EXPECT_TRUE(t1.causally_consistent());
  ASSERT_EQ(t1.events().size(), t2.events().size());
  for (std::size_t i = 0; i < t1.events().size(); ++i) {
    const sim::TraceEvent& a = t1.events()[i];
    const sim::TraceEvent& b = t2.events()[i];
    ASSERT_EQ(a.time, b.time) << "event " << i;
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.subject, b.subject) << "event " << i;
    ASSERT_EQ(a.peer, b.peer) << "event " << i;
    ASSERT_EQ(a.detail, b.detail) << "event " << i;
  }
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t p = 0; p < r1.outcomes.size(); ++p) {
    EXPECT_EQ(r1.outcomes[p].decided, r2.outcomes[p].decided);
    EXPECT_EQ(r1.outcomes[p].decision, r2.outcomes[p].decision);
    EXPECT_EQ(r1.outcomes[p].decide_time, r2.outcomes[p].decide_time);
  }
}

TEST(NemesisDeterminism, FaultFreePlanDoesNotPerturbTheSchedule) {
  // Injecting a no-op fault plan (or none) must not consume randomness:
  // the runs must be identical event for event.
  auto run = [](bool with_noop_plan, sim::TraceRecorder& trace) {
    sim::ConsensusRunConfig cfg;
    cfg.group = GroupParams{4, 1};
    cfg.seed = 7;
    cfg.proposals = {"a", "a", "b", "b"};
    cfg.trace = &trace;
    if (with_noop_plan) {
      fault::FaultAction heal;
      heal.time = 1.0;
      heal.kind = fault::FaultKind::kHeal;
      cfg.fault_plan.actions.push_back(heal);
    }
    return sim::run_consensus(cfg, sim::consensus_factory_by_name("l"));
  };
  sim::TraceRecorder t1;
  sim::TraceRecorder t2;
  run(false, t1);
  run(true, t2);
  // The only difference may be the kFault trace line itself.
  std::vector<sim::TraceEvent> e2;
  for (const sim::TraceEvent& e : t2.events()) {
    if (e.kind != sim::TraceKind::kFault) e2.push_back(e);
  }
  ASSERT_EQ(t1.events().size(), e2.size());
  for (std::size_t i = 0; i < e2.size(); ++i) {
    ASSERT_EQ(t1.events()[i].time, e2[i].time) << "event " << i;
    ASSERT_EQ(t1.events()[i].kind, e2[i].kind) << "event " << i;
    ASSERT_EQ(t1.events()[i].detail, e2[i].detail) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// Threaded runtime: wall-clock fault replay over real transports.

runtime::HeartbeatFd::Config fast_fd() {
  runtime::HeartbeatFd::Config fd;
  fd.interval_ms = 5.0;
  fd.initial_timeout_ms = 40.0;
  return fd;
}

TEST(RuntimeNemesis, InprocPartitionBlocksThenHealDecides) {
  runtime::InprocNetwork::Config ncfg;
  ncfg.n = 4;
  ncfg.seed = 17;
  ncfg.min_delay_ms = 0.02;
  ncfg.max_delay_ms = 0.2;
  runtime::InprocNetwork net(ncfg);
  runtime::ConsensusRunner runner(GroupParams{4, 1}, net, fast_fd());
  runner.start();

  // 2|2 split: no majority on either side, so nobody can decide.
  fault::FaultPlan cut;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan("@0 partition 0 1 | 2 3", &cut, &err))
      << err;
  ASSERT_TRUE(fault::apply_to_policy(cut.actions[0], net.links()));

  for (ProcessId p = 0; p < 4; ++p) {
    runner.propose(p, "v" + std::to_string(p));
  }
  // Watch the whole window instead of sleeping through it: a decision that
  // appears at any point during the partition is a violation, even one a
  // later state change would mask.
  EXPECT_FALSE(testing::ever_within(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (runner.decided(p)) return true;
        }
        return false;
      },
      std::chrono::milliseconds(150)))
      << "a process decided across a majority-less partition";

  fault::FaultPlan healPlan;
  ASSERT_TRUE(fault::parse_fault_plan("@0 heal", &healPlan, &err)) << err;
  runtime::NemesisDriver healer(net, healPlan);
  healer.run();

  ASSERT_TRUE(runner.wait_decided({0, 1, 2, 3}, 15000.0))
      << "no decision after heal";
  EXPECT_FALSE(runner.agreement_violated());
  const Value v = runner.decision(0);
  std::set<std::string> proposals = {"v0", "v1", "v2", "v3"};
  EXPECT_EQ(proposals.count(v), 1u) << "validity: " << v;
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(runner.decision(p), v);
}

TEST(RuntimeNemesis, InprocLeaderCrashRestartRejoinsAndDecides) {
  runtime::InprocNetwork::Config ncfg;
  ncfg.n = 3;
  ncfg.seed = 23;
  runtime::InprocNetwork net(ncfg);
  runtime::ConsensusRunner runner(GroupParams{3, 1}, net, fast_fd());
  runner.start();
  for (ProcessId p = 0; p < 3; ++p) {
    runner.propose(p, "w" + std::to_string(p));
  }

  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(
      fault::parse_fault_plan("@2 crash 0\n@250 restart 0", &plan, &err))
      << err;
  runtime::NemesisDriver driver(
      net, plan, [&runner](ProcessId p) { runner.crash(p); },
      [&runner](ProcessId p) { runner.restart(p); });
  driver.run();

  // Survivors decide around the dead leader; the restarted leader reloads
  // its storage, drives a fresh ballot and converges on the same value.
  ASSERT_TRUE(runner.wait_decided({0, 1, 2}, 15000.0));
  EXPECT_FALSE(runner.agreement_violated());
  EXPECT_EQ(runner.decision(0), runner.decision(1));
  EXPECT_EQ(runner.decision(1), runner.decision(2));
}

TEST(RuntimeNemesis, UdpCrashRestartWithLossyLinkConverges) {
  runtime::UdpNetwork::Config ncfg;
  ncfg.n = 3;
  ncfg.seed = 31;
  ncfg.retransmit_interval_ms = 10.0;
  runtime::UdpNetwork net(ncfg);
  runtime::ConsensusRunner runner(GroupParams{3, 1}, net, fast_fd());
  runner.start();
  for (ProcessId p = 0; p < 3; ++p) {
    runner.propose(p, "u" + std::to_string(p));
  }

  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan(
                  "@0 link 1 2 drop=0.3\n@2 crash 0\n@250 restart 0\n@400 heal",
                  &plan, &err))
      << err;
  runtime::NemesisDriver driver(
      net, plan, [&runner](ProcessId p) { runner.crash(p); },
      [&runner](ProcessId p) { runner.restart(p); });
  driver.run();

  ASSERT_TRUE(runner.wait_decided({0, 1, 2}, 20000.0));
  EXPECT_FALSE(runner.agreement_violated());
  const Value v = runner.decision(0);
  EXPECT_EQ(runner.decision(1), v);
  EXPECT_EQ(runner.decision(2), v);
  // The write-ahead acceptors must have synced something on the way.
  std::uint64_t syncs = 0;
  for (ProcessId p = 0; p < 3; ++p) syncs += runner.storage(p).sync_count();
  EXPECT_GE(syncs, 1u);
}

TEST(RuntimeNemesis, InprocPauseCausesFalseSuspicionAndRecovers) {
  runtime::InprocNetwork::Config ncfg;
  ncfg.n = 3;
  ncfg.seed = 41;
  runtime::InprocNetwork net(ncfg);
  runtime::ConsensusRunner runner(GroupParams{3, 1}, net, fast_fd());
  runner.start();

  // Pause the leader before anyone proposes: ~P must falsely suspect it,
  // the group must make progress without it, and the resumed leader (slow,
  // not dead — full state intact) must still learn the decision.
  fault::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_fault_plan("@0 pause 0\n@300 resume 0", &plan, &err))
      << err;
  runtime::NemesisDriver driver(net, plan);

  std::thread nemesis([&driver] { driver.run(); });
  // Proposals must not race the pause: wait until the link policy really
  // shows p0 paused rather than guessing a sleep long enough. (Assert only
  // after joining — bailing out with a live thread would terminate.)
  const bool paused = testing::poll_until([&] { return net.links().paused(0); });
  for (ProcessId p = 0; p < 3; ++p) {
    runner.propose(p, "q" + std::to_string(p));
  }
  nemesis.join();
  ASSERT_TRUE(paused) << "nemesis never applied the pause";

  ASSERT_TRUE(runner.wait_decided({0, 1, 2}, 15000.0));
  EXPECT_FALSE(runner.agreement_violated());
  EXPECT_EQ(runner.decision(0), runner.decision(1));
  EXPECT_EQ(runner.decision(1), runner.decision(2));
}

}  // namespace
}  // namespace zdc
