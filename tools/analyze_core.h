// zdc_analyze core: the repo's one static analyzer. It lexes every
// translation unit, recovers a lightweight structural model (classes,
// members, methods, local/parameter types, using/typedef aliases) and runs
// four check families over it:
//
// Lock-graph family (rules: recursive-lock, lock-order-cycle,
// blocking-under-lock, cv-wait-multi-lock):
//   Every `common::MutexLock guard(expr)` acquisition site is harvested and
//   the guarded mutex is resolved to a declaration-level identity
//   ("Class::member" or "::global") through the structural model, the
//   ZDC_GUARDED_BY/ZDC_REQUIRES/ZDC_ACQUIRE annotations, and local/member
//   types. Acquisition order is propagated through the call graph (virtual
//   calls fan out over the recorded class hierarchy) into a lock-order graph;
//   cycles are potential deadlocks. Calls that can block (fsync, sendto,
//   sleeps, poll — directly or through callees) made while a mutex is held
//   are reported, as is a condition-variable wait entered with more than one
//   lock held (the wait releases only its own lock).
//
// Discarded-error family (rule: discarded-status):
//   Call sites that drop a must-use result (storage::Status,
//   WalRecoveryInfo) in statement position. Unlike [[nodiscard]], the check
//   sees through wrappers: `latch(wal->sync());` as a whole statement drops
//   latch()'s Status even though sync()'s was consumed. Receiver types are
//   resolved where possible so `store->sync()` (void override) is not
//   confused with `wal->sync()` (Status).
//
// Determinism family (rules: wall-clock, wall-time, raw-random,
// unordered-iter — deterministic dirs only; unordered-encode-flow —
// everywhere):
//   wall-clock      std::chrono clock types (steady_clock, system_clock, ...)
//   wall-time       C time calls: time(), clock(), gettimeofday(), ...
//   raw-random      unseeded/global randomness: std::random_device, rand(),
//                   mt19937 & friends — use common::Rng
//   unordered-iter  range-for or begin()/cbegin()/rbegin() walk over a
//                   std::unordered_map/set — iteration order is unspecified
//                   and breaks replayable schedules
//   Each fires on the literal spelling (in macro bodies too) and on any
//   using/typedef chain that grounds in a banned type; an alias declaration
//   that spells the banned type literally is itself a finding. Iteration
//   over an unordered container whose loop body feeds an Encoder or a trace
//   fingerprint is flagged in every file (unordered-encode-flow).
//
// Hygiene family (every analyzed file):
//   bare-assert     assert( — use ZDC_ASSERT (never compiled out, prints
//                   node/time context)
//   std-cout        std::cout — use zdc::log (leveled, thread-safe)
//
// Suppression grammar (docs/ANALYSIS.md), read from comments only:
//   // zdc-analyze: allow(<rule>): <justification>        this/next line
//   // zdc-analyze: allow-file(<rule>): <justification>   whole file
// The justification is mandatory (allow-needs-reason) and the rule must
// exist (unknown-allow); a marker in any other `zdc-<tool>:` grammar is
// unknown-allow too. Violations of the grammar are findings themselves.
//
// There is no clang dependency: the analyzer builds with the project and
// runs as an ordinary ctest (zdc_analyze_src). clang-tidy and the
// -Werror=thread-safety build remain the self-skipping complements.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace zdc::analyze {

// ---------------------------------------------------------------------------
// Lexer. Exposed so the unit tests can pin its behavior on comments, string
// and raw-string literals, numbers, preprocessor lines and multi-char
// punctuation.

enum class Tok {
  kIdent,
  kPunct,
  kNumber,
  kString,   ///< string literal (ordinary or raw), contents dropped
  kChar,     ///< character literal, contents dropped
  kComment,  ///< comment text, only with `full` lexing
};

struct Token {
  std::string text;  ///< empty for kString/kChar
  int line = 0;
  Tok kind = Tok::kPunct;
};

/// Lexes one translation unit: comments, preprocessor directives (with line
/// continuations) and literal contents are consumed; "::" and "->" are single
/// tokens so qualification stays one token wide. With `full` set, directive
/// bodies are lexed like code (the determinism and hygiene rules must see
/// macro bodies) and each comment becomes a kComment token holding its text
/// (allow markers are read from these only, never from string literals).
std::vector<Token> lex(const std::string& src, bool full = false);

// ---------------------------------------------------------------------------
// Analysis input / output.

struct SourceFile {
  std::string path;     ///< as reported in findings
  std::string content;  ///< raw bytes of the file
  /// Apply the determinism rules (wall-clock, wall-time, raw-random,
  /// unordered-iter). unordered-encode-flow and the hygiene rules run
  /// everywhere.
  bool deterministic = false;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One directed edge of the inferred lock-order graph: `from` was held when
/// `to` was acquired (directly, or through the call named in `via`).
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  std::string via;  ///< empty for a direct acquisition
};

struct LockGraph {
  std::vector<LockEdge> edges;            ///< deduplicated, stable order
  std::vector<std::string> mutexes;       ///< every resolved mutex identity
};

/// Whole-program analysis over a set of sources (tests drive this directly;
/// run() feeds it a directory walk). Findings come back sorted by
/// (file, line, rule) with suppressed ones already removed. `graph`, when
/// non-null, receives the lock-order graph for --dump-lock-graph.
std::vector<Finding> analyze(const std::vector<SourceFile>& files,
                             LockGraph* graph = nullptr);

struct RunConfig {
  /// Repository root; the directory lists below are relative to it.
  std::string root = ".";
  /// Directories whose .h/.hpp/.cc/.cpp files are analyzed. tools/ is
  /// included: the analyzer must keep its own error handling honest.
  std::vector<std::string> analyze_dirs = {"src", "tools"};
  /// Directories that additionally get the determinism rules: every
  /// simulator run must replay bit-for-bit from a seed. src/obs is included:
  /// the metrics registry must stay deterministic (the byte-identical-snapshot
  /// contract); only the runtime trace recorder reads a wall clock, behind an
  /// explicit allow marker. src/check is included because replay-file
  /// byte-identity rests on the checker itself being deterministic (swarm
  /// randomness goes through the seeded common::Rng). src/storage is included
  /// because recovery must be reproducible: the WAL scan and the FaultyEnv
  /// crash points may consult only bytes and scripted fault plans, never a
  /// clock or ambient randomness. src/recovery is included for the same
  /// reason — catch-up replay and snapshot install must depend only on
  /// storage bytes and peer messages (its one latency histogram reads an
  /// injected clock, not a wall clock).
  std::vector<std::string> det_dirs = {"src/sim",     "src/consensus",
                                       "src/abcast",  "src/wab",
                                       "src/core",    "src/fd",
                                       "src/obs",     "src/check",
                                       "src/storage", "src/recovery",
                                       "src/service", "src/fault"};
};

/// Walks the configured directories (sorted, stable output) and analyzes
/// every C++ source file as one program.
std::vector<Finding> run(const RunConfig& cfg, LockGraph* graph = nullptr);

/// "file:line: [rule] message" — one line per finding.
std::string format(const Finding& f);

}  // namespace zdc::analyze
