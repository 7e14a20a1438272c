// Tests for the schedule-space model checker (src/check): the choice-token
// and replay-file formats, the shared invariant library, the sleep-set DFS
// explorer, the ddmin shrinker, seeded swarm mode — and the committed golden
// counterexample fixtures under tests/check_fixtures/, which must stay
// byte-identically canonical and keep reproducing their recorded violation.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/choice.h"
#include "check/consensus_system.h"
#include "check/explorer.h"
#include "check/invariants.h"
#include "check/replay.h"
#include "check/shrink.h"
#include "check/system.h"

namespace zdc::check {
namespace {

ScenarioSpec consensus_spec(std::string protocol, std::vector<Value> proposals,
                            std::string mutant = "") {
  ScenarioSpec spec;
  spec.kind = "consensus";
  spec.protocol = std::move(protocol);
  spec.group = GroupParams{static_cast<std::uint32_t>(proposals.size()), 1};
  spec.proposals = std::move(proposals);
  spec.mutant = std::move(mutant);
  return spec;
}

// --- choice tokens ---

TEST(ChoiceFormat, RoundtripsEveryKind) {
  const std::vector<Choice> samples = {
      {ChoiceKind::kDeliver, 2, 3, 0},    {ChoiceKind::kOracle, 1, 0, 0},
      {ChoiceKind::kOracleSubset, 0, 0, 11}, {ChoiceKind::kCrash, 3, 0, 0},
      {ChoiceKind::kLeaderFlip, 1, 2, 0}, {ChoiceKind::kSuspectFlip, 0, 3, 0},
      {ChoiceKind::kCrashDeliver, 0, 2, 0},
      {ChoiceKind::kCrashDeliver, 1, 0, 3},
      {ChoiceKind::kFlip, 0, 1, 2},
      {ChoiceKind::kFlip, 2, 0, 0},
      {ChoiceKind::kEquivocate, 1, 2, 0},
  };
  for (const Choice& c : samples) {
    const std::string token = format_choice(c);
    const auto parsed = parse_choice(token);
    ASSERT_TRUE(parsed.has_value()) << token;
    EXPECT_EQ(*parsed, c) << token;
    EXPECT_EQ(format_choice(*parsed), token);
  }
  // kSubmit's `b` (the submitting process) is derived from the scenario's
  // submission table, deliberately not serialized.
  const auto submit = parse_choice(format_choice({ChoiceKind::kSubmit, 4, 1, 0}));
  ASSERT_TRUE(submit.has_value());
  EXPECT_EQ(submit->kind, ChoiceKind::kSubmit);
  EXPECT_EQ(submit->a, 4u);
  EXPECT_EQ(submit->b, 0u);
}

TEST(ChoiceFormat, RejectsMalformedTokens) {
  for (const char* bad : {"", "x1", "d5", "d-1", "d1-", "o", "c", "s3", "s3m",
                          "l2", "f-", "d1-2-3x", "d99999999999-1", "u", "k1",
                          "k1-2", "k1-2m", "k1-2m9", "k-2m0", "x1-2",
                          "x1-2m", "x1-2m3", "x-2m0", "e1", "e1-"}) {
    EXPECT_FALSE(parse_choice(bad).has_value()) << bad;
  }
}

TEST(ChoiceIndependence, MatchesTouchedProcessModel) {
  const Choice d01{ChoiceKind::kDeliver, 0, 1, 0};
  const Choice d21{ChoiceKind::kDeliver, 2, 1, 0};
  const Choice d23{ChoiceKind::kDeliver, 2, 3, 0};
  const Choice crash1{ChoiceKind::kCrash, 1, 0, 0};
  const Choice flip3{ChoiceKind::kLeaderFlip, 3, 0, 0};
  const Choice oracle{ChoiceKind::kOracle, 0, 0, 0};
  // Same recipient → dependent; distinct recipients → independent.
  EXPECT_FALSE(choices_independent(d01, d21));
  EXPECT_TRUE(choices_independent(d01, d23));
  // A crash races with anything touching the crashed process.
  EXPECT_FALSE(choices_independent(crash1, d01));
  EXPECT_TRUE(choices_independent(crash1, d23));
  EXPECT_TRUE(choices_independent(crash1, flip3));
  // Oracle broadcasts touch everybody.
  EXPECT_FALSE(choices_independent(oracle, d23));
  EXPECT_FALSE(choices_independent(oracle, crash1));
  // Corrupt-delivery and equivocation commute like deliveries: dependent on
  // a shared recipient, independent across disjoint edges.
  const Choice x01{ChoiceKind::kFlip, 0, 1, 1};
  const Choice e23{ChoiceKind::kEquivocate, 2, 3, 0};
  EXPECT_FALSE(choices_independent(x01, d01));
  EXPECT_FALSE(choices_independent(x01, d21));
  EXPECT_TRUE(choices_independent(x01, d23));
  EXPECT_TRUE(choices_independent(x01, e23));
  EXPECT_FALSE(choices_independent(e23, d23));
  EXPECT_FALSE(choices_independent(e23, Choice{ChoiceKind::kCrash, 3, 0, 0}));
}

// --- invariant library ---

ConsensusObs unanimous_obs() {
  ConsensusObs obs;
  obs.group = GroupParams{4, 1};
  obs.proposals = {"a", "a", "a", "a"};
  obs.procs.resize(4);
  for (ProcessObs& p : obs.procs) p.proposed = true;
  return obs;
}

void decide(ProcessObs& p, const Value& v, std::uint32_t steps) {
  p.decided = true;
  p.decision = v;
  p.steps = steps;
  p.path = consensus::DecisionPath::kRound;
  p.decision_deliveries = 1;
}

TEST(Invariants, AgreementFlagsSplitDecisions) {
  ConsensusObs obs = unanimous_obs();
  decide(obs.procs[0], "a", 1);
  decide(obs.procs[3], "b", 1);
  const auto v = check_agreement(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "agreement");
  decide(obs.procs[3], "a", 1);
  EXPECT_FALSE(check_agreement(obs).has_value());
}

TEST(Invariants, ValidityFlagsInventedValues) {
  ConsensusObs obs = unanimous_obs();
  decide(obs.procs[1], "ghost", 1);
  const auto v = check_validity(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "validity");
}

TEST(Invariants, IntegrityFlagsDoubleDecisionDelivery) {
  ConsensusObs obs = unanimous_obs();
  decide(obs.procs[2], "a", 1);
  obs.procs[2].decision_deliveries = 2;
  const auto v = check_integrity(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "integrity");
}

TEST(Invariants, TerminationFlagsQuiescentUndecidedProposer) {
  ConsensusObs obs = unanimous_obs();
  for (ProcessId p = 0; p < 3; ++p) decide(obs.procs[p], "a", 1);
  obs.quiescent = true;
  const auto v = check_termination(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "termination");
  // Mid-flight (not quiescent) the same state is just "not yet".
  obs.quiescent = false;
  EXPECT_FALSE(check_termination(obs).has_value());
}

TEST(Invariants, StepBoundsApplyPerProtocolClaim) {
  // P promises one-step on equal proposals in *every* run; L only claims it
  // for stable runs (Theorem 1); Paxos never claims it.
  ConsensusObs obs = unanimous_obs();
  decide(obs.procs[0], "a", 2);
  obs.stable = false;
  EXPECT_TRUE(check_one_step(obs, step_bounds_for("p")).has_value());
  EXPECT_FALSE(check_one_step(obs, step_bounds_for("l")).has_value());
  EXPECT_FALSE(check_one_step(obs, step_bounds_for("paxos")).has_value());
  obs.stable = true;
  EXPECT_TRUE(check_one_step(obs, step_bounds_for("l")).has_value());
  obs.procs[0].steps = 1;
  EXPECT_FALSE(check_one_step(obs, step_bounds_for("p")).has_value());
}

TEST(Invariants, TotalOrderAndDuplicationCatchBrokenHistories) {
  const abcast::AppMessage m0{{0, 1}, "x"};
  const abcast::AppMessage m1{{1, 1}, "y"};
  EXPECT_TRUE(check_total_order({{m0, m1}, {m1, m0}}).has_value());
  EXPECT_FALSE(check_total_order({{m0, m1}, {m0}}).has_value());
  EXPECT_TRUE(check_no_duplicates({{m0, m0}}).has_value());
  EXPECT_TRUE(check_no_creation({{m0}}, {m1.id}).has_value());
  EXPECT_FALSE(check_no_creation({{m0}}, {m0.id, m1.id}).has_value());
}

TEST(Invariants, FifoCatchesReorderedAndSkippedSenderMessages) {
  const abcast::AppMessage a1{{0, 1}, "a1"};
  const abcast::AppMessage a2{{0, 2}, "a2"};
  const abcast::AppMessage b1{{1, 1}, "b1"};
  const std::vector<abcast::MsgId> submitted = {a1.id, b1.id, a2.id};
  EXPECT_FALSE(check_fifo({{a1, b1, a2}, {b1, a1}, {}}, submitted).has_value());
  EXPECT_TRUE(check_fifo({{a2, a1}}, submitted).has_value());  // reordered
  EXPECT_TRUE(check_fifo({{b1, a2}}, submitted).has_value());  // a1 skipped
}

// --- replay files ---

TEST(Invariants, CorruptionLedgerMustBalanceWhenChecksumsOn) {
  CorruptionObs obs;
  obs.frames_corrupted = 3;
  obs.corrupt_frames_dropped = 3;
  EXPECT_FALSE(check_corruption(obs).has_value());

  obs.corrupt_frames_dropped = 2;
  const auto v = check_corruption(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "undetected-corruption");

  // With checksums off the check is vacuous (corruption is *expected* to be
  // undetectable; the safety oracles carry the burden)...
  obs.checksums_enabled = false;
  EXPECT_FALSE(check_corruption(obs).has_value());
  // ...as it is when some corruption targeted an unsealed channel.
  obs.checksums_enabled = true;
  obs.all_on_sealed_channel = false;
  EXPECT_FALSE(check_corruption(obs).has_value());
}

TEST(Invariants, ConvergenceFlagsOnlyAfterTheBoundElapses) {
  ConvergenceObs obs;
  obs.corrupt_injected = 2;
  obs.step_bound = 10;
  obs.steps_since_last_injection = 9;
  obs.legal_state = false;
  // Bound not yet elapsed: the system is allowed to still be converging.
  EXPECT_FALSE(check_convergence(obs).has_value());

  obs.steps_since_last_injection = 10;
  const auto v = check_convergence(obs);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "convergence");

  obs.legal_state = true;
  EXPECT_FALSE(check_convergence(obs).has_value()) << "converged in time";
  obs.legal_state = false;
  obs.corrupt_injected = 0;
  EXPECT_FALSE(check_convergence(obs).has_value())
      << "vacuous without injections";
}

TEST(Replay, SerializeParseRoundtripIsByteIdentical) {
  ReplayFile file;
  file.spec = consensus_spec("p", {"a", "b", "b", "b"}, "skip-one-step-quorum");
  file.spec.omega = {0, 0, 0, 0};
  file.violation = "agreement";
  file.trace = {{ChoiceKind::kDeliver, 0, 0, 0},
                {ChoiceKind::kCrash, 2, 0, 0},
                {ChoiceKind::kOracleSubset, 1, 0, 5}};
  const std::string text = serialize_replay(file);
  std::string error;
  const auto parsed = parse_replay(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(serialize_replay(*parsed), text);
  EXPECT_EQ(parsed->spec.protocol, "p");
  EXPECT_EQ(parsed->spec.mutant, "skip-one-step-quorum");
  EXPECT_EQ(parsed->spec.proposals, file.spec.proposals);
  EXPECT_EQ(parsed->violation, "agreement");
  EXPECT_EQ(parsed->trace, file.trace);
}

TEST(Replay, ParseRejectsMalformedFiles) {
  ReplayFile file;
  file.spec = consensus_spec("paxos", {"x", "y", "z"});
  file.spec.omega = {0, 0, 0};
  const std::string good = serialize_replay(file);

  const auto expect_bad = [](std::string text, const char* what) {
    std::string error;
    EXPECT_FALSE(parse_replay(text, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  expect_bad("not-a-replay\n", "bad magic");
  expect_bad("", "empty");
  std::string wrong_count = good;
  wrong_count.replace(wrong_count.find("n: 3"), 4, "n: 4");
  expect_bad(wrong_count, "proposal count mismatch");
  std::string bad_token = good;
  bad_token.replace(bad_token.find("trace: -"), 8, "trace: zz");
  expect_bad(bad_token, "malformed trace token");
}

// --- explorer ---

TEST(Explorer, ExhaustsPaxosSpaceWithNoViolation) {
  const ScenarioSpec spec = consensus_spec("paxos", {"a", "a", "a"});
  const auto res = explore(make_system_factory(spec, {}), {});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violation.has_value());
  EXPECT_EQ(res.depth_cutoffs, 0u);
  EXPECT_GT(res.transitions, 0u);
  EXPECT_GT(res.paths, 0u);
}

TEST(Explorer, SleepSetsPruneWithoutChangingTheVerdict) {
  const ScenarioSpec spec = consensus_spec("l", {"a", "a", "a", "a"});
  ExploreConfig with;
  with.max_depth = 5;
  ExploreConfig without = with;
  without.sleep_sets = false;
  const auto reduced = explore(make_system_factory(spec, {}), with);
  const auto full = explore(make_system_factory(spec, {}), without);
  EXPECT_FALSE(reduced.violation.has_value());
  EXPECT_FALSE(full.violation.has_value());
  EXPECT_TRUE(reduced.complete);
  EXPECT_TRUE(full.complete);
  // The reduction must strictly prune this space (it has many commuting
  // delivery pairs) while staying sound.
  EXPECT_LT(reduced.transitions, full.transitions);
}

TEST(Explorer, DepthBoundTruncatesAndSaysSo) {
  const ScenarioSpec spec = consensus_spec("l", {"a", "a", "a", "a"});
  ExploreConfig cfg;
  cfg.max_depth = 2;
  const auto res = explore(make_system_factory(spec, {}), cfg);
  EXPECT_TRUE(res.complete);  // complete *up to the bound*...
  EXPECT_GT(res.depth_cutoffs, 0u);  // ...which the result discloses.
}

TEST(Explorer, TransitionBudgetAbortsAsIncomplete) {
  const ScenarioSpec spec = consensus_spec("l", {"a", "a", "a", "a"});
  ExploreConfig cfg;
  cfg.max_transitions = 10;
  const auto res = explore(make_system_factory(spec, {}), cfg);
  EXPECT_FALSE(res.complete);
  EXPECT_LE(res.transitions, 10u);
}

// --- corruption choice points (kFlip / kEquivocate) ---

TEST(Corruption, DetectableDropsKeepEveryExploredScheduleSafe) {
  // With frame checksums on, the corrupt-delivery choice points must never
  // produce a violation: the flipped copy is CRC-dropped (the corruption
  // ledger is checked at every quiescent leaf via check_corruption) and the
  // clean original still goes through. The budgets must also visibly widen
  // the search space.
  const ScenarioSpec spec = consensus_spec("paxos", {"a", "a", "a"});
  ExploreConfig cfg;
  cfg.max_depth = 6;
  const auto baseline = explore(make_system_factory(spec, {}), cfg);
  AdversaryBudgets flips;
  flips.flips = 1;
  const auto flipped = explore(make_system_factory(spec, flips), cfg);
  AdversaryBudgets equiv;
  equiv.equivocations = 1;
  const auto equivocated = explore(make_system_factory(spec, equiv), cfg);
  for (const auto* res : {&baseline, &flipped, &equivocated}) {
    EXPECT_TRUE(res->complete);
    EXPECT_FALSE(res->violation.has_value())
        << res->violation->invariant << " — " << res->violation->detail;
  }
  EXPECT_GT(flipped.transitions, baseline.transitions);
  EXPECT_GT(equivocated.transitions, baseline.transitions);
}

TEST(Corruption, FlipChoicesDisabledWithoutPendingFrames) {
  const ScenarioSpec spec = consensus_spec("paxos", {"a", "a", "a"});
  AdversaryBudgets budgets;
  budgets.flips = 1;
  budgets.equivocations = 1;
  ConsensusSystem sys(spec, budgets);
  // Proposals are made in the constructor, so frames are pending and both
  // corruption kinds are offered (three byte positions per edge for kFlip).
  bool saw_flip = false;
  bool saw_equivocate = false;
  for (const Choice& c : sys.enabled()) {
    saw_flip = saw_flip || c.kind == ChoiceKind::kFlip;
    saw_equivocate = saw_equivocate || c.kind == ChoiceKind::kEquivocate;
  }
  EXPECT_TRUE(saw_flip);
  EXPECT_TRUE(saw_equivocate);
  // Lenient replay of a flip on a drained edge must refuse, not corrupt
  // air. (Right after the constructor every edge holds the broadcast
  // proposals — self-edges included — so drain 0→1 first; p0 handles
  // nothing here, so nothing refills it.)
  ConsensusSystem fresh(spec, budgets);
  while (fresh.apply(Choice{ChoiceKind::kDeliver, 0, 1, 0})) {
  }
  EXPECT_FALSE(fresh.apply(Choice{ChoiceKind::kFlip, 0, 1, 1}));
  EXPECT_FALSE(fresh.apply(Choice{ChoiceKind::kEquivocate, 0, 1, 0}));
}

// --- the parallel engine: deterministic task-decomposed DFS ---

struct MutantCase {
  ScenarioSpec spec;
  std::uint32_t max_depth;
};

MutantCase p_mutant() {
  MutantCase c{consensus_spec("p", {"a", "b", "b", "b"},
                              "skip-one-step-quorum"),
               12};
  return c;
}

MutantCase paxos_mutant() {
  MutantCase c{consensus_spec("paxos", {"zero", "one", "two"},
                              "ignore-accepted"),
               20};
  c.spec.omega = {0, 0, 2};
  return c;
}

TEST(ParallelExplore, TotalsAreByteIdenticalForEveryThreadCount) {
  const ScenarioSpec spec = consensus_spec("paxos", {"a", "a", "a"});
  ExploreConfig cfg;
  cfg.max_depth = 6;
  cfg.threads = 1;
  const auto one = explore(make_system_factory(spec, {}), cfg);
  EXPECT_TRUE(one.complete);
  EXPECT_FALSE(one.violation.has_value());
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    cfg.threads = threads;
    const auto many = explore(make_system_factory(spec, {}), cfg);
    EXPECT_EQ(many.transitions, one.transitions) << threads << " threads";
    EXPECT_EQ(many.paths, one.paths) << threads << " threads";
    EXPECT_EQ(many.depth_cutoffs, one.depth_cutoffs) << threads << " threads";
    EXPECT_EQ(many.complete, one.complete) << threads << " threads";
  }
  // The sequential engine prunes the same space (identical verdict); only
  // its transition total differs (units pay an extra prefix replay).
  cfg.threads = 0;
  const auto seq = explore(make_system_factory(spec, {}), cfg);
  EXPECT_TRUE(seq.complete);
  EXPECT_EQ(seq.paths, one.paths);
  EXPECT_EQ(seq.depth_cutoffs, one.depth_cutoffs);
  EXPECT_LE(seq.transitions, one.transitions);
}

// A violating scenario whose *full* bounded space stays small: the parallel
// engine runs every unit to completion (no cross-task cancellation — that is
// what buys determinism), so hunting the paxos mutant at depth 20 would
// exhaust millions of schedules. The undetected-flip scenario violates at
// depth 5, where exhaustion is ~1.7 M transitions.
MutantCase flip_violation_case() {
  MutantCase c{consensus_spec("l", {"a", "a", "a", "a"}), 5};
  c.spec.frame_checksums = false;
  return c;
}

AdversaryBudgets one_flip() {
  AdversaryBudgets b;
  b.flips = 1;
  return b;
}

TEST(ParallelExplore, ViolationAndTraceIdenticalAtOneFourEightThreads) {
  const MutantCase mutant = flip_violation_case();
  const SystemFactory factory = make_system_factory(mutant.spec, one_flip());
  ExploreConfig cfg;
  cfg.max_depth = mutant.max_depth;
  const auto seq = explore(factory, cfg);
  ASSERT_TRUE(seq.violation.has_value());
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    cfg.threads = threads;
    const auto par = explore(factory, cfg);
    ASSERT_TRUE(par.violation.has_value()) << threads << " threads";
    // The parallel engine reports the preorder-first violation — exactly the
    // one the sequential DFS stops at, trace and all.
    EXPECT_EQ(par.violation->invariant, seq.violation->invariant);
    EXPECT_EQ(par.violation->detail, seq.violation->detail);
    EXPECT_EQ(format_trace(par.trace), format_trace(seq.trace))
        << threads << " threads";
  }
}

TEST(ParallelExplore, ParallelTraceReplaysByteIdenticallySingleThreaded) {
  const MutantCase mutant = flip_violation_case();
  const SystemFactory factory = make_system_factory(mutant.spec, one_flip());
  ExploreConfig cfg;
  cfg.max_depth = mutant.max_depth;
  cfg.threads = 4;
  const auto par = explore(factory, cfg);
  ASSERT_TRUE(par.violation.has_value());
  const auto replayed = replay_strict(factory, par.trace);
  ASSERT_TRUE(replayed.has_value())
      << "parallel-found trace not strictly replayable";
  ASSERT_TRUE(replayed->violation.has_value());
  EXPECT_EQ(replayed->violation->invariant, par.violation->invariant);
  EXPECT_EQ(replayed->violation->detail, par.violation->detail);
}

TEST(ParallelSwarm, RunsEverythingAndReportsTheLowestFailingRun) {
  const MutantCase mutant = paxos_mutant();
  const SystemFactory factory = make_system_factory(mutant.spec, {});
  SwarmConfig cfg;
  cfg.seed = 3;
  cfg.runs = 48;
  cfg.max_steps = 200;
  const auto seq = swarm(factory, cfg);
  ASSERT_TRUE(seq.violation.has_value()) << "pick a seed that fails";
  cfg.threads = 1;
  const auto par1 = swarm(factory, cfg);
  cfg.threads = 4;
  const auto par4 = swarm(factory, cfg);
  ASSERT_TRUE(par1.violation.has_value());
  ASSERT_TRUE(par4.violation.has_value());
  // Parallel mode executes ALL runs; the failing run and its trace match the
  // sequential sweep (which stops there), and totals are thread-invariant.
  EXPECT_EQ(par1.failing_run, seq.failing_run);
  EXPECT_EQ(par4.failing_run, seq.failing_run);
  EXPECT_EQ(format_trace(par1.trace), format_trace(seq.trace));
  EXPECT_EQ(format_trace(par4.trace), format_trace(par1.trace));
  EXPECT_EQ(par1.runs, cfg.runs);
  EXPECT_EQ(par4.runs, cfg.runs);
  EXPECT_EQ(par1.transitions, par4.transitions);
  EXPECT_GE(par1.transitions, seq.transitions);
}

// --- crash-during-delivery (kCrashDeliver, storage-backed rec-paxos) ---

TEST(CrashRestart, RecPaxosSurvivesCrashDuringDelivery) {
  const ScenarioSpec spec = consensus_spec("rec-paxos", {"a", "b", "c"});
  AdversaryBudgets budgets;
  budgets.crash_restarts = 1;
  ConsensusSystem sys(spec, budgets);
  // Ballot 0 belongs to p0, so proposing broadcasts a 2a straight away and
  // the crash-during-delivery choice is enabled on edge 0→1. m=2: p1's
  // accept hits stable storage, the 2b never leaves, p1 reboots.
  std::vector<Choice> trace;
  const Choice crash{ChoiceKind::kCrashDeliver, 0, 1, 2};
  ASSERT_TRUE(sys.apply(crash));
  trace.push_back(crash);
  EXPECT_FALSE(sys.observe().stable);
  // Drain every remaining delivery; the run must stay safe throughout.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const Choice& c : sys.enabled()) {
      if (c.kind != ChoiceKind::kDeliver) continue;
      ASSERT_TRUE(sys.apply(c));
      trace.push_back(c);
      ASSERT_FALSE(sys.violation().has_value());
      progressed = true;
      break;
    }
  }
  // p0 and p2's accepts form a majority for ballot 0, so everyone — the
  // rebooted p1 included — converges on p0's value.
  const ConsensusObs obs = sys.observe();
  for (ProcessId p = 0; p < obs.group.n; ++p) {
    EXPECT_TRUE(obs.procs[p].decided) << "p" << p;
    EXPECT_EQ(obs.procs[p].decision, "a") << "p" << p;
  }
  // The recorded schedule replays strictly and stays clean.
  const auto replayed = replay_strict(make_system_factory(spec, budgets),
                                      trace);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_FALSE(replayed->violation.has_value());
}

TEST(CrashRestart, MidWriteAliasRevertsThePut) {
  // m=1 (die mid-write) is never offered by enabled() — the torn record is
  // truncated on recovery, so its post-state equals m=0 — but replay accepts
  // it and must actually exercise the revert: the rebooted p1 cannot have
  // the accept that was "written" by the dying handler.
  const ScenarioSpec spec = consensus_spec("rec-paxos", {"a", "b", "c"});
  AdversaryBudgets budgets;
  budgets.crash_restarts = 1;
  ConsensusSystem sys(spec, budgets);
  ASSERT_TRUE(sys.apply({ChoiceKind::kCrashDeliver, 0, 1, 1}));
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const Choice& c : sys.enabled()) {
      if (c.kind != ChoiceKind::kDeliver) continue;
      ASSERT_TRUE(sys.apply(c));
      ASSERT_FALSE(sys.violation().has_value());
      progressed = true;
      break;
    }
  }
  EXPECT_FALSE(sys.violation().has_value());
}

TEST(CrashRestart, EnabledOnlyWithBudgetAndStorageBackedProtocol) {
  AdversaryBudgets budgets;
  budgets.crash_restarts = 1;
  const auto offers_crash_deliver = [](const ConsensusSystem& sys) {
    for (const Choice& c : sys.enabled()) {
      if (c.kind == ChoiceKind::kCrashDeliver) return true;
    }
    return false;
  };
  ConsensusSystem rec(consensus_spec("rec-paxos", {"a", "b", "c"}), budgets);
  EXPECT_TRUE(offers_crash_deliver(rec));
  // Volatile protocols have nothing to reboot from.
  ConsensusSystem paxos(consensus_spec("paxos", {"a", "b", "c"}), budgets);
  EXPECT_FALSE(offers_crash_deliver(paxos));
  // Zero budget: never offered, and enabled() never lists m=1.
  ConsensusSystem broke(consensus_spec("rec-paxos", {"a", "b", "c"}), {});
  EXPECT_FALSE(offers_crash_deliver(broke));
  for (const Choice& c : rec.enabled()) {
    if (c.kind == ChoiceKind::kCrashDeliver) {
      EXPECT_NE(c.mask, 1u);
    }
  }
}

TEST(CrashRestart, BoundedExploreWithCrashRestartsFindsNoViolation) {
  const ScenarioSpec spec = consensus_spec("rec-paxos", {"a", "a", "a"});
  AdversaryBudgets budgets;
  budgets.crash_restarts = 1;
  ExploreConfig cfg;
  cfg.max_depth = 5;
  cfg.max_transitions = 60000;
  const auto res = explore(make_system_factory(spec, budgets), cfg);
  EXPECT_FALSE(res.violation.has_value());
  EXPECT_GT(res.transitions, 0u);
}

TEST(CrashRestart, SwarmWithCrashRestartBudgetIsSafeAndDeterministic) {
  const ScenarioSpec spec = consensus_spec("rec-paxos", {"x", "y", "z"});
  AdversaryBudgets budgets;
  budgets.crash_restarts = 2;
  budgets.leader_flips = 1;
  const SystemFactory factory = make_system_factory(spec, budgets);
  SwarmConfig cfg;
  cfg.seed = 11;
  cfg.runs = 128;
  cfg.max_steps = 160;
  const auto a = swarm(factory, cfg);
  const auto b = swarm(factory, cfg);
  EXPECT_FALSE(a.violation.has_value());
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.runs, b.runs);
}

// --- mutants: find → shrink → replay, all through the library ---

void find_shrink_replay(const MutantCase& mutant) {
  const SystemFactory factory = make_system_factory(mutant.spec, {});
  ExploreConfig cfg;
  cfg.max_depth = mutant.max_depth;
  const auto res = explore(factory, cfg);
  ASSERT_TRUE(res.violation.has_value())
      << mutant.spec.mutant << ": a checker that can't fail is not a checker";
  EXPECT_EQ(res.violation->invariant, "agreement");

  const ShrinkResult shrunk = shrink(factory, res.trace,
                                     res.violation->invariant);
  EXPECT_LE(shrunk.trace.size(), res.trace.size());
  EXPECT_EQ(shrunk.violation.invariant, "agreement");

  // The minimized trace must replay *strictly* — every choice enabled when
  // its turn comes — and reach the same violation.
  const auto replayed = replay_strict(factory, shrunk.trace);
  ASSERT_TRUE(replayed.has_value());
  ASSERT_TRUE(replayed->violation.has_value());
  EXPECT_EQ(replayed->violation->invariant, "agreement");

  // 1-minimality: dropping any single choice loses the violation.
  for (std::size_t i = 0; i < shrunk.trace.size(); ++i) {
    std::vector<Choice> shorter = shrunk.trace;
    shorter.erase(shorter.begin() + static_cast<std::ptrdiff_t>(i));
    const ReplayOutcome out = replay_lenient(factory, shorter);
    EXPECT_TRUE(!out.violation.has_value() ||
                out.violation->invariant != "agreement")
        << "trace is not 1-minimal at choice " << i;
  }
}

TEST(Mutants, PSkipOneStepQuorumIsCaughtShrunkAndReplayable) {
  find_shrink_replay(p_mutant());
}

TEST(Mutants, PaxosIgnoreAcceptedIsCaughtShrunkAndReplayable) {
  find_shrink_replay(paxos_mutant());
}

// --- swarm ---

TEST(Swarm, IsDeterministicPerSeedAndCleanOnSafeProtocols) {
  ScenarioSpec spec = consensus_spec("p", {"a", "b", "b", "a"});
  AdversaryBudgets budgets;
  budgets.crashes = 1;
  const SystemFactory factory = make_system_factory(spec, budgets);
  SwarmConfig cfg;
  cfg.seed = 7;
  cfg.runs = 32;
  cfg.max_steps = 200;
  const auto a = swarm(factory, cfg);
  const auto b = swarm(factory, cfg);
  EXPECT_FALSE(a.violation.has_value());
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(Swarm, FindsTheSeededPaxosMutant) {
  const MutantCase mutant = paxos_mutant();
  const SystemFactory factory = make_system_factory(mutant.spec, {});
  SwarmConfig cfg;
  cfg.seed = 1;
  cfg.runs = 512;
  cfg.max_steps = 128;
  const auto res = swarm(factory, cfg);
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_EQ(res.violation->invariant, "agreement");
  EXPECT_FALSE(res.trace.empty());
}

// --- abcast systems ---

TEST(AbcastSystem, SwarmKeepsUniformTotalOrder) {
  ScenarioSpec spec;
  spec.kind = "abcast";
  spec.protocol = "c-l";
  spec.group = GroupParams{4, 1};
  spec.submissions = {{0, "alpha"}, {1, "beta"}};
  const SystemFactory factory = make_system_factory(spec, {});
  SwarmConfig cfg;
  cfg.seed = 3;
  cfg.runs = 24;
  cfg.max_steps = 300;
  const auto res = swarm(factory, cfg);
  EXPECT_FALSE(res.violation.has_value());
  EXPECT_GT(res.transitions, 0u);
}

// --- committed golden fixtures ---

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void check_fixture(const std::string& name,
                   const std::string& expected_violation = "agreement") {
  const std::string bytes = read_file(std::string(CHECK_FIXTURE_DIR) + "/" +
                                      name);
  ASSERT_FALSE(bytes.empty());
  std::string error;
  const auto file = parse_replay(bytes, &error);
  ASSERT_TRUE(file.has_value()) << error;
  // Canonical on disk: regenerate or fail, never hand-edit.
  EXPECT_EQ(serialize_replay(*file), bytes);
  EXPECT_EQ(file->violation, expected_violation);
  const auto replayed =
      replay_strict(make_system_factory(file->spec, {}), file->trace);
  ASSERT_TRUE(replayed.has_value()) << "fixture trace no longer strict";
  ASSERT_TRUE(replayed->violation.has_value());
  EXPECT_EQ(replayed->violation->invariant, file->violation);
}

TEST(Fixtures, PSkipOneStepQuorumStillReproduces) {
  check_fixture("p_skip_one_step_quorum.replay");
}

TEST(Fixtures, PaxosIgnoreAcceptedStillReproduces) {
  check_fixture("paxos_ignore_accepted.replay");
}

TEST(Fixtures, AbcastEquivocatingSenderStillReproduces) {
  // Net-level equivocation (per-receiver divergent p2a/p2b payload bytes)
  // splits PaxosAbcast learners and the total-order oracle catches it.
  check_fixture("abcast_equivocating_sender.replay", "total-order");
}

TEST(Fixtures, UndetectedFlipStillReproduces) {
  // With `checksums: off` a single wire flip (the x0-1m2 choice) corrupts a
  // forwarded DECIDE's step count undetected — the one-step oracle flags the
  // impossible step total. With checksums on the same trace is a clean
  // detectable drop; this fixture pins the *mutant configuration's* failure.
  check_fixture("l_undetected_flip.replay", "one-step");
}

}  // namespace
}  // namespace zdc::check
