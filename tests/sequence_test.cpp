// Tests for the repeated-consensus (recovery-run) harness and the
// zero-degradation claims it demonstrates.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "sim/sequence_world.h"
#include "sim/trace.h"

namespace zdc::sim {
namespace {

SequenceConfig base_sequence(std::uint32_t instances) {
  SequenceConfig cfg;
  cfg.group = GroupParams{4, 1};
  cfg.net = calibrated_lan_2006();
  cfg.fd.mode = FdMode::kCrashTracking;
  cfg.fd.detection_delay_ms = 3.0;
  cfg.seed = 77;
  cfg.instances = instances;
  cfg.divergent_proposals = true;
  return cfg;
}

TEST(SequenceWorld, CompletesFailureFreeSequence) {
  auto cfg = base_sequence(8);
  auto r = run_consensus_sequence(cfg, l_consensus_factory());
  ASSERT_EQ(r.instances.size(), 8u);
  EXPECT_TRUE(r.all_complete);
  EXPECT_TRUE(r.all_safe);
  for (const auto& inst : r.instances) {
    EXPECT_DOUBLE_EQ(inst.mean_steps, 2.0);  // divergent + stable = 2 steps
    EXPECT_GT(inst.first_decision, 0.0);
  }
}

TEST(SequenceWorld, InstancesRunBackToBack) {
  auto cfg = base_sequence(5);
  auto r = run_consensus_sequence(cfg, l_consensus_factory());
  ASSERT_TRUE(r.all_complete);
  for (std::size_t i = 1; i < r.instances.size(); ++i) {
    EXPECT_GE(r.instances[i].start_time,
              r.instances[i - 1].start_time +
                  r.instances[i - 1].last_decision)
        << "instance " << i << " started before its predecessor finished";
  }
}

// The zero-degradation story (paper Sec. 1): after the crash blip, L and P
// return to 2 steps; single-decree Paxos with its ballot-0 owner dead pays
// phase 1 in every later instance.
TEST(SequenceWorld, ZeroDegradingProtocolsRecover) {
  for (const char* proto : {"l", "p"}) {
    auto cfg = base_sequence(10);
    cfg.crash_process = 0;
    cfg.crash_before_instance = 4;
    auto r = run_consensus_sequence(cfg, consensus_factory_by_name(proto));
    ASSERT_TRUE(r.all_complete) << proto;
    ASSERT_TRUE(r.all_safe) << proto;
    for (std::size_t i = 0; i < r.instances.size(); ++i) {
      if (i == 4) continue;  // the recovery instance may pay the FD delay
      EXPECT_DOUBLE_EQ(r.instances[i].mean_steps, 2.0)
          << proto << " instance " << i;
    }
  }
}

TEST(SequenceWorld, SingleDecreePaxosDegradesPermanently) {
  auto cfg = base_sequence(10);
  cfg.crash_process = 0;  // the ballot-0 owner
  cfg.crash_before_instance = 4;
  auto r = run_consensus_sequence(cfg, paxos_factory());
  ASSERT_TRUE(r.all_complete);
  ASSERT_TRUE(r.all_safe);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.instances[i].mean_steps, 2.0) << "instance " << i;
  }
  for (std::size_t i = 5; i < r.instances.size(); ++i) {
    EXPECT_GE(r.instances[i].mean_steps, 4.0)
        << "instance " << i << ": phase 1 must recur forever";
  }
}

TEST(SequenceWorld, CtStaysAtThreeStepsThroughout) {
  auto cfg = base_sequence(8);
  cfg.crash_process = 0;
  cfg.crash_before_instance = 3;
  auto r = run_consensus_sequence(cfg, ct_consensus_factory());
  ASSERT_TRUE(r.all_complete);
  ASSERT_TRUE(r.all_safe);
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    if (i == 3) continue;  // recovery instance
    EXPECT_DOUBLE_EQ(r.instances[i].mean_steps, 3.0) << "instance " << i;
  }
}

TEST(SequenceWorld, UnanimousSequenceIsOneStepThroughout) {
  auto cfg = base_sequence(6);
  cfg.divergent_proposals = false;
  auto r = run_consensus_sequence(cfg, p_consensus_factory());
  ASSERT_TRUE(r.all_complete);
  for (const auto& inst : r.instances) {
    EXPECT_DOUBLE_EQ(inst.mean_steps, 1.0);
  }
}

// The sequence world runs on the shared fabric, so RunOptions::trace and the
// per-(kind, process) counters see its traffic like any other world's.
TEST(SequenceWorld, TraceAndKindCountersRecordTheRun) {
  auto cfg = base_sequence(4);
  cfg.crash_process = 3;
  cfg.crash_before_instance = 2;
  TraceRecorder trace;
  obs::MetricsRegistry registry;
  cfg.trace = &trace;
  cfg.metrics = &registry;
  auto r = run_consensus_sequence(cfg, l_consensus_factory());
  ASSERT_TRUE(r.all_complete);
  ASSERT_TRUE(r.all_safe);
  EXPECT_TRUE(trace.causally_consistent());
  // Four processes in instances 0-1, three after the crash.
  EXPECT_EQ(trace.count(TraceKind::kPropose), 4u + 4u + 3u + 3u);
  EXPECT_EQ(trace.count(TraceKind::kDecide), 4u + 4u + 3u + 3u);
  EXPECT_EQ(trace.count(TraceKind::kCrash), 1u);
  std::uint64_t sent = 0;
  std::uint64_t decided = 0;
  for (ProcessId p = 0; p < cfg.group.n; ++p) {
    sent += registry.counter("zdc_sim_messages_sent_total",
                             obs::process_label(p)).value();
    decided += registry.counter("zdc_sim_decisions_total",
                                obs::process_label(p)).value();
  }
  EXPECT_EQ(sent, trace.count(TraceKind::kSend));
  EXPECT_EQ(decided, trace.count(TraceKind::kDecide));
}

}  // namespace
}  // namespace zdc::sim
