//===- Adversary.h - The fuzzer as adversary of the validator ---*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversarial harness behind `cobalt-fuzz --validate`: generate
/// programs, miscompile them with the deliberately buggy rule suite, and
/// cross-check the validator's verdict against the differential
/// interpreter's ground truth. The safety property under test is the
/// validator's headline guarantee:
///
///   a pair on which the interpreter observes divergence must NEVER be
///   verdicted Equivalent ("validator-blessed miscompile").
///
/// Divergent pairs verdicted Inequivalent are *caught*; divergent pairs
/// verdicted Unknown are acceptable (spurious rejection, not unsound).
/// The harness also credits the validator when its mined probe inputs
/// expose a divergence the stock oracle inputs miss (*extended catch* —
/// Inequivalent is probe-confirmed by construction, so these are real).
///
/// Deterministic for fixed (Seed, Runs, Targets): the loop is
/// sequential, run I derives its generator config and seed from I, and
/// wall-clock never enters the summary.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_VALIDATE_ADVERSARY_H
#define COBALT_VALIDATE_ADVERSARY_H

#include "fuzz/Fuzzer.h"
#include "validate/Validate.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cobalt {
namespace validate {

/// Classification of one (original, miscompiled) pair.
enum class AdversaryClass {
  AC_Agree,         ///< No divergence observed; verdict Equivalent.
  AC_Unproven,      ///< No divergence observed; verdict Unknown.
  AC_Caught,        ///< Diverged; verdict Inequivalent. The validator won.
  AC_MissedUnknown, ///< Diverged; verdict Unknown. Safe but imprecise.
  AC_ExtendedCatch, ///< Stock oracle saw no divergence, validator's mined
                    ///< inputs did (verdict Inequivalent).
  AC_Blessed,       ///< Diverged; verdict Equivalent. HEADLINE FAILURE.
};

const char *adversaryClassName(AdversaryClass C);

struct AdversaryOptions {
  uint64_t Seed = 0;   ///< Base seed; run I uses Seed + I.
  unsigned Runs = 25;  ///< Generated programs.
  bool Minimize = false; ///< Delta-debug retained divergent pairs.
  /// Pairs retained (and minimized) per rule; further divergences of the
  /// same rule are counted only.
  unsigned MaxPairsPerRule = 2;
  ValidationOptions Validation;
};

/// One retained program pair (divergent, or blessed — the failure case).
struct AdversaryPair {
  std::string Rule;
  uint64_t Seed = 0;
  ir::Program Original;
  ir::Program Candidate;
  Verdict V = Verdict::V_Unknown;
  AdversaryClass Class = AdversaryClass::AC_MissedUnknown;
  std::string Witness; ///< Divergence rendering (ground truth).
  unsigned StatementsBefore = 0; ///< Reduction tallies (0 = not reduced).
  unsigned StatementsAfter = 0;
  unsigned ReduceRounds = 0;
};

struct AdversaryRuleStats {
  unsigned Applications = 0;
  unsigned Diverged = 0;
  unsigned Caught = 0;
  unsigned MissedUnknown = 0;
  unsigned ExtendedCatch = 0;
  unsigned Blessed = 0;
};

struct AdversarySummary {
  uint64_t Seed = 0;
  unsigned RunsRequested = 0;
  unsigned RunsExecuted = 0;
  uint64_t PairsValidated = 0; ///< (program, rule) pairs with >=1 rewrite.
  unsigned Diverged = 0;       ///< Ground-truth divergences observed.
  unsigned Caught = 0;
  unsigned MissedUnknown = 0;
  unsigned ExtendedCatch = 0;
  unsigned Agree = 0;
  unsigned Unproven = 0;
  unsigned Blessed = 0;        ///< MUST be zero. The headline number.
  std::vector<AdversaryPair> Pairs; ///< Retained pairs, deterministic.
  std::map<std::string, AdversaryRuleStats> PerRule;
};

/// Validates one (original, candidate) pair. `cobalt-fuzz --validate`
/// sends each pair to a CobaltService as a validation request.
using ValidateFn = std::function<ValidationReport(
    const ir::Program &Original, const ir::Program &Candidate,
    const ValidationOptions &Options)>;

/// Runs the adversarial loop over \p Targets (typically
/// fuzz::buggySuiteTargets()), validating every pair through
/// \p Validate.
AdversarySummary runAdversary(const std::vector<fuzz::FuzzTarget> &Targets,
                              const AdversaryOptions &Options,
                              const ValidateFn &Validate);

/// One validation-corpus manifest record (pairs of .il files).
struct ValidationCorpusEntry {
  std::string Original;  ///< Path relative to the corpus directory.
  std::string Candidate; ///< Path relative to the corpus directory.
  std::string Rule;
  uint64_t Seed = 0;
  std::string Verdict; ///< verdictName() at save time.
  std::string Class;   ///< adversaryClassName() at save time.
};

/// Writes each pair as `<rule>_s<seed>_<k>.orig.il` / `.cand.il` plus a
/// `manifest.txt` into \p Dir (created if missing). Returns an error
/// message on I/O failure.
std::optional<std::string>
saveValidationCorpus(const std::string &Dir,
                     const std::vector<AdversaryPair> &Pairs);

/// Parses `Dir/manifest.txt`. Returns nullopt and sets \p Err on
/// failure; unknown keys are ignored (forward compatibility).
std::optional<std::vector<ValidationCorpusEntry>>
loadValidationCorpusManifest(const std::string &Dir, std::string &Err);

} // namespace validate
} // namespace cobalt

#endif // COBALT_VALIDATE_ADVERSARY_H
