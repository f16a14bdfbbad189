//===- Fuzzer.h - The differential fuzzing loop -----------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzing loop tying generator, mutator, oracles, and reducer
/// together (DESIGN.md §11). One *run* = one generated program (plus a
/// few single-edit mutants) pushed through every *target* (a rule, the
/// analyses it may consume, and the checker's verdict for it); every
/// behavioral divergence is classified against the verdict and — when
/// minimization is on — delta-debugged down to a minimal reproducer.
///
/// ## Determinism contract
///
/// For a fixed (Seed, Runs, Targets), the summary is bit-identical at
/// every `--jobs` width: run I is fully determined by `Seed + I` (config
/// derivation, generation, mutation), runs write into index-keyed slots
/// via ThreadPool::parallelFor, and the sequential post-pass (counting,
/// classification, reduction) walks those slots in index order. Fault
/// injection is keyed per run via ScopedFaultKey, so a configured plan
/// fires the same faults regardless of scheduling. Wall-clock never
/// enters the summary — the time budget only decides how many whole
/// batches execute, and a summary that hit the budget says so.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_FUZZ_FUZZER_H
#define COBALT_FUZZ_FUZZER_H

#include "checker/Soundness.h"
#include "core/Optimization.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "ir/Ast.h"
#include "ir/Generator.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cobalt {
namespace fuzz {

/// One rule under fuzz: the optimization, the analyses producing the
/// labelings its guard may consume, and the checker's verdict for it.
struct FuzzTarget {
  Optimization Opt;
  std::vector<PureAnalysis> Analyses;
  checker::CheckReport::Verdict Verdict =
      checker::CheckReport::Verdict::V_Unproven;
  /// Seeded-bug metadata: the target is a deliberately unsound rule
  /// whose miscompilation is *behaviorally observable* — the smoke suite
  /// asserts the fuzzer finds a divergence for each of these.
  bool ExpectDivergence = false;
};

struct FuzzOptions {
  uint64_t Seed = 0;       ///< Base seed; run I uses Seed + I.
  unsigned Runs = 1000;    ///< Generated programs (each with mutants).
  double TimeBudgetSec = 0;///< 0 = none. Batch-granular, see file docs.
  bool Minimize = true;    ///< Delta-debug each reported finding.
  unsigned MutantsPerProgram = 2; ///< Single-edit mutants per program.
  /// Findings fully reported (minimized, program retained) per rule;
  /// further divergences of the same rule are counted only.
  unsigned MaxFindingsPerRule = 3;
  OracleOptions Oracle;
  ReduceOptions Reduce;
};

/// One reported (minimized) divergence.
struct FuzzFinding {
  std::string Rule;
  uint64_t Seed = 0;     ///< Generator seed of the originating run.
  bool FromMutant = false;
  Divergence Div;        ///< On the *reduced* program when minimized.
  CrossCheck Check = CrossCheck::CC_Consistent;
  checker::CheckReport::Verdict Verdict =
      checker::CheckReport::Verdict::V_Unproven;
  ir::Program Original;  ///< Reduced reproducer (raw when !Minimize).
  ir::Program Optimized; ///< The rule applied to Original.
  unsigned StatementsBefore = 0;
  unsigned StatementsAfter = 0;
  unsigned ReduceRounds = 0;
  bool ReduceFixpoint = false;
  /// First single rewrite site that alone reproduces the divergence
  /// (via restrictToSite), or -1 when only the full site set does.
  int NarrowedSite = -1;
};

struct RuleStats {
  unsigned Applications = 0; ///< Programs the rule rewrote (>= 1 site).
  unsigned Divergences = 0;  ///< All divergences, reported or not.
};

struct FuzzSummary {
  uint64_t Seed = 0;
  unsigned RunsRequested = 0;
  unsigned RunsExecuted = 0;
  uint64_t PairsDiffed = 0;  ///< (program, target) pairs with >=1 rewrite.
  unsigned Divergences = 0;
  unsigned CheckerMissed = 0;   ///< Divergences on checker-Sound rules.
  unsigned CaughtByChecker = 0; ///< Divergences on rejected rules.
  bool TimedOut = false;
  std::vector<FuzzFinding> Findings;       ///< Deterministic order.
  std::map<std::string, RuleStats> PerRule;///< Every target, even clean.
};

/// The generator configuration for run I: cycles a fixed table of
/// feature mixes (plain, pointer-heavy, alias pressure, gotos, calls,
/// division, everything) so every rule meets programs in its preferred
/// habitat within a handful of runs. Exposed for tests.
ir::GenOptions deriveGenOptions(uint64_t RunIndex);

/// The fuzzing loop. \p Pool provides the parallelism (width 1 = a
/// plain sequential loop). See the determinism contract above.
FuzzSummary runFuzz(const std::vector<FuzzTarget> &Targets,
                    const FuzzOptions &Options, support::ThreadPool &Pool);

/// \name Stock target suites.
/// Verdicts are the *documented* ones (the sound suite is shipped
/// proven, the buggy suite is shipped rejected); drivers wanting the
/// live checker's opinion recompute them (cobalt-fuzz --check).
/// @{

/// Every shipped optimization, paired with every shipped analysis,
/// documented V_Sound.
std::vector<FuzzTarget> soundSuiteTargets();

/// Every deliberately buggy variant (documented V_Unsound), with
/// ExpectDivergence from BuggyCase::Observable; plus the buggy taint
/// analysis paired with its consumer loadCse.
std::vector<FuzzTarget> buggySuiteTargets();

/// Systematic near-miss mutants of the sound suite (documented
/// V_Unproven — the gate would refuse them without a proof).
std::vector<FuzzTarget> ruleMutantTargets(unsigned MaxPerRule = 4);
/// @}

} // namespace fuzz
} // namespace cobalt

#endif // COBALT_FUZZ_FUZZER_H
