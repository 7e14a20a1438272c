// Tests for the zdc_analyze static analyzer (tools/analyze_core.*): the
// lexer's contract on comments, raw strings, preprocessor lines and
// multi-char punctuation; each check family against a fixture with seeded
// violations plus near-misses that must stay silent; the lock-order graph
// itself; cross-file alias resolution; and the suppression grammar
// (allow / allow-file, mandatory justification, unknown rule names, markers
// read from comments only).
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_core.h"

namespace zdc::analyze {
namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ANALYZE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

using Hits = std::vector<std::pair<int, std::string>>;

/// Analyzes one fixture as a whole program and returns (line, rule) pairs,
/// sorted. `deterministic` turns on the determinism rules, mirroring a
/// file living under one of the replay-bit-for-bit directories.
Hits hits(const std::string& name, bool deterministic = false,
          LockGraph* graph = nullptr) {
  const std::vector<SourceFile> files = {
      {name, read_fixture(name), deterministic}};
  Hits out;
  for (const Finding& f : analyze(files, graph)) {
    EXPECT_EQ(f.file, name);
    out.emplace_back(f.line, f.rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(AnalyzeLex, CommentsAreConsumedAndLinesTracked) {
  const auto t = lex("int a; // fsync(\n/* span\nlines */ int b;\n");
  ASSERT_EQ(t.size(), 6u);
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[1].text, "a");
  EXPECT_EQ(t[3].text, "int");
  EXPECT_EQ(t[3].line, 3);  // the block comment spanned two newlines
  EXPECT_EQ(t[4].text, "b");
  EXPECT_EQ(t[4].line, 3);
}

TEST(AnalyzeLex, RawStringsDropContentsAndCountLines) {
  // The raw string swallows a fake fsync( call and one newline; tokens after
  // it must land on the right lines and its contents must not leak.
  const auto t = lex("auto s = R\"zz(line one\nfsync( two)zz\";\nint z;");
  ASSERT_EQ(t.size(), 8u);
  EXPECT_EQ(t[3].kind, Tok::kString);
  EXPECT_EQ(t[3].text, "");
  EXPECT_EQ(t[3].line, 1);
  EXPECT_EQ(t[4].text, ";");
  EXPECT_EQ(t[4].line, 2);
  EXPECT_EQ(t[5].text, "int");
  EXPECT_EQ(t[5].line, 3);
}

TEST(AnalyzeLex, PreprocessorLinesAreSkippedIncludingContinuations) {
  const auto t = lex("#define FSYNC fsync \\\n  fsync(fd)\nint q;");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].text, "int");
  EXPECT_EQ(t[0].line, 3);  // the continuation consumed line 2
  EXPECT_EQ(t[1].text, "q");
}

TEST(AnalyzeLex, QualificationPunctuationIsOneToken) {
  const auto t = lex("p->q::r");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[1].text, "->");
  EXPECT_EQ(t[1].kind, Tok::kPunct);
  EXPECT_EQ(t[3].text, "::");
  EXPECT_EQ(t[3].kind, Tok::kPunct);
}

TEST(AnalyzeLex, NumbersAndCharLiterals) {
  // Digit separators, exponent suffixes and hex stay one token; a char
  // literal's contents are dropped like a string's.
  const auto t = lex("1'000'000 1e9f 0x1Fu 'x'");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].kind, Tok::kNumber);
  EXPECT_EQ(t[0].text, "1'000'000");
  EXPECT_EQ(t[1].text, "1e9f");
  EXPECT_EQ(t[2].text, "0x1Fu");
  EXPECT_EQ(t[3].kind, Tok::kChar);
  EXPECT_EQ(t[3].text, "");
}

TEST(AnalyzeLex, FullLexKeepsDirectivesAndComments) {
  // The full lex sees a macro body as code and each comment as one token
  // carrying its text; a "//" inside a string literal is not a comment.
  const auto t = lex("#define N steady_clock\nauto s = \"// no\"; /* a\nb */", true);
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0].text, "#");
  EXPECT_EQ(t[3].text, "steady_clock");
  EXPECT_EQ(t[3].line, 1);
  EXPECT_EQ(t[7].kind, Tok::kString);
  EXPECT_EQ(t[9].kind, Tok::kComment);
  EXPECT_EQ(t[9].text, "/* a\nb */");
  EXPECT_EQ(t[9].line, 2);
}

// ---------------------------------------------------------------------------
// Lock-graph family.

TEST(AnalyzeTest, LockOrderCycle) {
  LockGraph graph;
  EXPECT_EQ(hits("lock_cycle.cpp", false, &graph),
            (Hits{{42, "lock-order-cycle"}}));
  // Both inconsistent edges are in the graph, each via the call that closes
  // the window from one class's mutex into the other's.
  ASSERT_EQ(graph.edges.size(), 2u);
  EXPECT_EQ(graph.edges[0].from, "A::mu_");
  EXPECT_EQ(graph.edges[0].to, "B::mu_");
  EXPECT_EQ(graph.edges[0].via, "poke");
  EXPECT_EQ(graph.edges[1].from, "B::mu_");
  EXPECT_EQ(graph.edges[1].to, "A::mu_");
  EXPECT_EQ(graph.edges[1].via, "jab");
}

TEST(AnalyzeTest, ConsistentOrderIsClean) {
  LockGraph graph;
  EXPECT_TRUE(hits("lock_cycle_clean.cpp", false, &graph).empty());
  // The two call sites (step, stride) collapse into one deduplicated edge.
  ASSERT_EQ(graph.edges.size(), 1u);
  EXPECT_EQ(graph.edges[0].from, "Lo::mu_");
  EXPECT_EQ(graph.edges[0].to, "Hi::mu_");
  EXPECT_EQ(graph.edges[0].via, "poke");
  EXPECT_EQ(graph.mutexes,
            (std::vector<std::string>{"Hi::mu_", "Lo::mu_"}));
}

TEST(AnalyzeTest, RecursiveLock) {
  // Direct re-acquisition in one scope, and re-acquisition through a call
  // while the first guard is still live. The sibling() call after the inner
  // scope closes stays silent.
  EXPECT_EQ(hits("recursive_lock.cpp"),
            (Hits{{11, "recursive-lock"}, {20, "recursive-lock"}}));
}

TEST(AnalyzeTest, BlockingUnderLock) {
  // fsync directly under the guard, and through the flush() callee.
  EXPECT_EQ(hits("blocking_under_lock.cpp"),
            (Hits{{10, "blocking-under-lock"}, {14, "blocking-under-lock"}}));
}

TEST(AnalyzeTest, BlockingNearMissesAreSilent) {
  // Guard scope closed before fsync; fsync( in comments and strings; a
  // method merely named fsync_meta called under the lock.
  EXPECT_TRUE(hits("blocking_clean.cpp").empty());
}

TEST(AnalyzeTest, CvWaitWithMultipleLocks) {
  // wait_two holds a_ and b_ across cv_.wait(); wait_one's single-lock wait
  // is the normal pattern and stays silent.
  EXPECT_EQ(hits("cv_wait.cpp"), (Hits{{11, "cv-wait-multi-lock"}}));
}

// ---------------------------------------------------------------------------
// Discarded-error family.

TEST(AnalyzeTest, DiscardedStatus) {
  // The bare sync() in careless() and the outer latch(wal.sync()) in wrap()
  // fire; assignment, (void), condition use, return-forwarding and the void
  // QuietStore::sync() stay silent.
  EXPECT_EQ(hits("discarded_status.cpp"),
            (Hits{{17, "discarded-status"}, {32, "discarded-status"}}));
}

// ---------------------------------------------------------------------------
// Determinism family.

TEST(AnalyzeTest, AliasResolvedClockAndRandom) {
  // Alias uses fire (two on one line dedupe), and so do the literal
  // spellings, on the alias declarations (7, 9) and in draw_direct (23).
  // The chained `using Ticker = Clock;` (8) stays silent.
  EXPECT_EQ(hits("alias_det.cpp", /*deterministic=*/true),
            (Hits{{7, "wall-clock"},
                  {9, "raw-random"},
                  {13, "wall-clock"},
                  {16, "wall-clock"},
                  {19, "raw-random"},
                  {23, "raw-random"}}));
}

TEST(AnalyzeTest, AliasRulesAreScopedToDeterministicFiles) {
  EXPECT_TRUE(hits("alias_det.cpp", /*deterministic=*/false).empty());
}

TEST(AnalyzeTest, UnorderedFlow) {
  // Unordered iteration, literal or through an alias, fires only in
  // deterministic files; the encode/fingerprint flow fires everywhere. The
  // ordered map (35) stays silent: its parameter is typed per function, so
  // the unordered `m` of the functions around it does not leak in.
  EXPECT_EQ(hits("unordered_flow.cpp", /*deterministic=*/true),
            (Hits{{20, "unordered-iter"},
                  {25, "unordered-iter"},
                  {29, "unordered-iter"},
                  {30, "unordered-encode-flow"},
                  {43, "unordered-encode-flow"},
                  {43, "unordered-iter"},
                  {48, "unordered-iter"}}));
  EXPECT_EQ(hits("unordered_flow.cpp", /*deterministic=*/false),
            (Hits{{30, "unordered-encode-flow"},
                  {43, "unordered-encode-flow"}}));
}

TEST(AnalyzeTest, CrossFileAliasResolution) {
  // The aliases live in wire_alias.h; the deterministic .cpp never spells
  // the banned types. Both uses still resolve and fire.
  const std::vector<SourceFile> files = {
      {"wire_alias.h", read_fixture("wire_alias.h"), false},
      {"wire_alias_use.cpp", read_fixture("wire_alias_use.cpp"), true}};
  Hits out;
  for (const Finding& f : analyze(files)) {
    EXPECT_EQ(f.file, "wire_alias_use.cpp");
    out.emplace_back(f.line, f.rule);
  }
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (Hits{{7, "wall-clock"}, {12, "unordered-iter"}}));
}

TEST(AnalyzeTest, BeginWalkThroughAlias) {
  // begin()/cbegin() walks resolve the container's type the same way a
  // range-for does: through locals, parameters, members and aliases.
  EXPECT_EQ(hits("unordered_alias_begin.cpp", /*deterministic=*/true),
            (Hits{{10, "unordered-iter"},
                  {16, "unordered-iter"},
                  {26, "unordered-iter"}}));
  EXPECT_TRUE(hits("unordered_alias_begin.cpp", false).empty());
}

TEST(AnalyzeTest, MacroBodiesAreSeen) {
  // A wall clock in a #define body, and rand() on a continuation line of
  // another, fire at the line that spells them.
  EXPECT_EQ(hits("macro_clock.cpp", /*deterministic=*/true),
            (Hits{{6, "wall-clock"}, {9, "raw-random"}}));
}

TEST(AnalyzeTest, MacroBodyWalksAreSeen) {
  // A range-for in a #define body over an unordered global or member fires
  // at the line that spells the loop; the ordered walk and the lookup do
  // not, and a non-deterministic file reports nothing.
  EXPECT_EQ(hits("macro_walk.cpp", /*deterministic=*/true),
            (Hits{{20, "unordered-iter"}, {24, "unordered-iter"}}));
  EXPECT_TRUE(hits("macro_walk.cpp", /*deterministic=*/false).empty());
}

// ---------------------------------------------------------------------------
// Suppression grammar.

TEST(AnalyzeTest, AllowMarkers) {
  // A justified allow suppresses (suppressed()); no marker leaves the
  // finding live (live()); a reasonless marker reports allow-needs-reason
  // AND leaves the finding live (reasonless()); an unknown rule name reports
  // unknown-allow likewise (unknown_rule()); a marker for a different rule
  // suppresses nothing (wrong_rule()).
  EXPECT_EQ(hits("allow_marker.cpp"),
            (Hits{{20, "discarded-status"},
                  {24, "allow-needs-reason"},
                  {25, "discarded-status"},
                  {29, "unknown-allow"},
                  {30, "discarded-status"},
                  {35, "discarded-status"}}));
}

TEST(AnalyzeTest, AllowFileMarker) {
  // One justified allow-file(discarded-status) covers every drop in the file.
  EXPECT_TRUE(hits("allow_file.cpp").empty());
}

TEST(AnalyzeTest, MarkerInStringLiteralDoesNotSuppress) {
  // The marker quoted in a string literal (line 7) leaves line 8 live; real
  // markers in a line comment (6) and a block comment (10) suppress.
  EXPECT_EQ(hits("string_marker.cpp", /*deterministic=*/true),
            (Hits{{8, "wall-clock"}}));
}

TEST(AnalyzeTest, OtherToolMarkersAreUnknown) {
  // Only the zdc-analyze grammar suppresses. A marker in another tool's
  // grammar reports unknown-allow and leaves the finding live. The old
  // linter's prefix is spelled in two pieces so that its name stays out of
  // the searchable tree.
  const std::string retired = std::string("zdc-") + "lint";
  const std::vector<SourceFile> files = {
      {"old.cpp",
       "long f() {\n  return ::time(nullptr);  // " + retired +
           ": allow(wall-time): old grammar\n}\n",
       true}};
  Hits out;
  for (const Finding& f : analyze(files)) out.emplace_back(f.line, f.rule);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (Hits{{2, "unknown-allow"}, {2, "wall-time"}}));
}

// ---------------------------------------------------------------------------
// Negative corpus, formatting, directory walk.

TEST(AnalyzeTest, CleanFile) {
  // Banned names confined to comments/strings/raw strings, a consistent
  // single-mutex class, every Status consumed, ordered iteration feeding an
  // Encoder: nothing fires, under either rule scope.
  EXPECT_TRUE(hits("clean.cpp", /*deterministic=*/true).empty());
  EXPECT_TRUE(hits("clean.cpp", /*deterministic=*/false).empty());
}

TEST(AnalyzeTest, FormatIsStable) {
  const Finding f{"src/storage/wal.cpp", 7, "discarded-status", "boom"};
  EXPECT_EQ(format(f), "src/storage/wal.cpp:7: [discarded-status] boom");
}

TEST(AnalyzeTest, RunWalksFixtureTree) {
  // Drive the directory walker over the fixture dir as one whole program:
  // the seeded lock-order cycle is found, and with no det_dirs configured
  // none of the determinism-only rules fire.
  RunConfig cfg;
  cfg.root = ANALYZE_FIXTURE_DIR;
  cfg.analyze_dirs = {"."};
  cfg.det_dirs = {};
  std::set<std::string> rules;
  std::set<std::string> files;
  for (const Finding& f : run(cfg)) {
    rules.insert(f.rule);
    files.insert(f.file);
  }
  EXPECT_EQ(rules.count("lock-order-cycle"), 1u) << "seeded cycle not found";
  for (const char* det : {"wall-clock", "wall-time", "raw-random",
                          "unordered-iter"}) {
    EXPECT_EQ(rules.count(det), 0u)
        << "determinism rule " << det << " fired without det_dirs";
  }
  bool saw_blocking = false;
  for (const std::string& f : files) {
    saw_blocking |= f.find("blocking_under_lock.cpp") != std::string::npos;
  }
  EXPECT_TRUE(saw_blocking) << "walker missed blocking_under_lock.cpp";
}

// ---------------------------------------------------------------------------
// Token-level rules: literal determinism spellings and hygiene. Each
// fixture is analyzed as a deterministic file unless the test says not.

TEST(LintTest, WallClock) {
  EXPECT_EQ(hits("wall_clock.cpp", true),
            (Hits{{5, "wall-clock"}, {10, "wall-clock"}}));
}

TEST(LintTest, WallTime) {
  // The member function *declaration* `double time() const`, the member call
  // `m.time()` and the identifier `arrival_time` must all stay silent.
  EXPECT_EQ(hits("wall_time.cpp", true),
            (Hits{{11, "wall-time"}, {15, "wall-time"}}));
}

TEST(LintTest, RawRandom) {
  EXPECT_EQ(hits("raw_random.cpp", true),
            (Hits{{6, "raw-random"}, {11, "raw-random"}, {16, "raw-random"}}));
}

TEST(LintTest, UnorderedIter) {
  // Range-for and .begin() walks fire; the .count() lookup does not.
  EXPECT_EQ(hits("unordered_iter.cpp", true),
            (Hits{{9, "unordered-iter"}, {17, "unordered-iter"}}));
}

TEST(LintTest, BareAssert) {
  // static_assert, a comment mentioning assert(, a member *named* assert and
  // its member-call use must all stay silent.
  EXPECT_EQ(hits("bare_assert.cpp", true), (Hits{{5, "bare-assert"}}));
}

TEST(LintTest, StdCout) {
  EXPECT_EQ(hits("std_cout.cpp", true), (Hits{{5, "std-cout"}}));
}

TEST(LintTest, DeterminismRulesAreScoped) {
  // Outside the deterministic dirs only the hygiene rules run: the same
  // fixtures come back clean.
  EXPECT_TRUE(hits("wall_clock.cpp", false).empty());
  EXPECT_TRUE(hits("raw_random.cpp", false).empty());
  EXPECT_TRUE(hits("unordered_iter.cpp", false).empty());
  EXPECT_EQ(hits("bare_assert.cpp", false), (Hits{{5, "bare-assert"}}));
}

TEST(LintTest, CleanFile) {
  // Banned names in comments / strings / raw strings, identifiers merely
  // containing banned substrings, and ordered-container iteration: no hits.
  EXPECT_TRUE(hits("clean_det.cpp", true).empty());
}

TEST(LintTest, AllowMarkers) {
  // Valid same-line and line-above markers suppress (lines 7 and 12);
  // a marker without justification reports allow-needs-reason AND leaves the
  // underlying violation live (line 17); an unknown rule name reports
  // unknown-allow likewise (line 22); a marker for a different rule
  // suppresses nothing (line 27).
  EXPECT_EQ(hits("allow_marker_det.cpp", true),
            (Hits{{17, "allow-needs-reason"},
                  {17, "wall-time"},
                  {22, "raw-random"},
                  {22, "unknown-allow"},
                  {27, "wall-time"}}));
}

TEST(LintTest, FormatIsStable) {
  const Finding f{"src/sim/event_queue.cpp", 42, "wall-clock", "boom"};
  EXPECT_EQ(format(f), "src/sim/event_queue.cpp:42: [wall-clock] boom");
}

TEST(LintTest, RunWalksFixtureTree) {
  // The directory walk applies the hygiene rules to every file, with or
  // without det_dirs, and scopes the determinism rules to det_dirs.
  RunConfig cfg;
  cfg.root = ANALYZE_FIXTURE_DIR "/..";
  cfg.analyze_dirs = {"analyze_fixtures"};
  auto walk = [&]() {
    std::set<std::pair<std::string, std::string>> out;
    for (const Finding& f : run(cfg)) out.emplace(f.file, f.rule);
    return out;
  };
  cfg.det_dirs = {"analyze_fixtures"};
  const auto det_on = walk();
  EXPECT_EQ(det_on.count({"analyze_fixtures/wall_clock.cpp", "wall-clock"}), 1u);
  cfg.det_dirs = {};
  const auto det_off = walk();
  EXPECT_EQ(det_off.count({"analyze_fixtures/wall_clock.cpp", "wall-clock"}),
            0u);
  EXPECT_EQ(det_off.count({"analyze_fixtures/bare_assert.cpp", "bare-assert"}),
            1u);
  EXPECT_EQ(det_off.count({"analyze_fixtures/std_cout.cpp", "std-cout"}), 1u);
}

}  // namespace
}  // namespace zdc::analyze
