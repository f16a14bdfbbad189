//===- Validate.h - Translation validation of IL program pairs --*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation (DESIGN.md §14): given an (original, candidate)
/// IL program pair from an *untrusted* optimizer, decide
///
///   Equivalent    — a machine-checked simulation proof (or structural
///                   alpha-equivalence) shows the candidate preserves the
///                   paper's soundness notion: whenever main(v) returns in
///                   the original, it returns the same value in the
///                   candidate;
///   Inequivalent  — a concrete witness input was found on which the two
///                   programs observably diverge (the differential
///                   interpreter confirms it — a proof failure alone never
///                   produces this verdict);
///   Unknown       — neither: the pair is outside the prover's fragment,
///                   an obligation failed or timed out, or the candidate
///                   is structurally too different to align.
///
/// The asymmetric verdict policy is what makes the validator safe to put
/// in front of a compiler: Equivalent requires a proof, Inequivalent
/// requires an executed counterexample, and everything else degrades to
/// Unknown. An incomplete prover can therefore cause spurious rejections
/// (Unknown), but never a validator-blessed miscompile.
///
/// The proof method is cut-point simulation seeded by the engine's
/// substitution-set facts:
///
///  1. concrete differential probe over a deterministic input set
///     (defaults plus constants mined from the programs) — divergence is
///     the only source of Inequivalent;
///  2. alpha-equivalence fast path (bijective local-variable renaming);
///  3. per-procedure cut-point simulation: cuts at the entry and at loop
///     headers, candidate cuts matched by position and statement text,
///     relation = component-wise state equality strengthened with value
///     facts mined by running the dataflow engine over the *original*
///     with the proven constProp/copyProp guards (the facts hold of every
///     reachable state by the rules' meta-theorem, so assuming them at a
///     cut is sound); each cut-to-cut original path yields one Z3
///     obligation discharged through SoundnessChecker::checkObligationSets
///     (inheriting retries, budgets, crash containment, verdict caching,
///     and trace spans).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_VALIDATE_VALIDATE_H
#define COBALT_VALIDATE_VALIDATE_H

#include "checker/Soundness.h"
#include "ir/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cobalt {
namespace validate {

/// The three-valued outcome. See the file comment for the asymmetric
/// evidence each value requires.
enum class Verdict { V_Equivalent, V_Inequivalent, V_Unknown };

const char *verdictName(Verdict V);

/// Knobs for one validation run. Everything here participates in the
/// obligation-set fingerprint: changing a knob re-proves rather than
/// serving a stale cached verdict.
struct ValidationOptions {
  /// Probe inputs for the differential interpreter, merged with
  /// constants mined from the two programs (c-1, c, c+1 per literal).
  std::vector<int64_t> Inputs = {-9, -1, 0, 1, 2, 7, 50};
  uint64_t Fuel = 1u << 18;          ///< Step budget, original runs.
  uint64_t FuelCandidate = 1u << 19; ///< Step budget, candidate runs.
  /// Caps on the cut-to-cut path enumeration; exceeding either cap
  /// degrades the procedure to Unknown (never to a wrong verdict).
  unsigned MaxPathsPerCut = 64;
  unsigned MaxPathLen = 48;
  /// Cap on engine-mined value facts assumed per cut.
  unsigned MaxFactsPerCut = 16;
  /// Disables the fact-mining stage (for ablation and tests).
  bool UseFacts = true;
};

/// Per-procedure outcome. Procedures never produce Inequivalent — that
/// verdict is program-level and probe-confirmed only.
struct ProcOutcome {
  std::string Name;
  Verdict V = Verdict::V_Unknown;
  /// How the verdict was reached: "alpha", "simulation", or "" when the
  /// procedure could not be attempted (Detail says why).
  std::string Method;
  std::string Detail; ///< Unknown reason / first failed obligation.
  /// Obligation tallies from the prover (zero for the alpha path).
  unsigned Obligations = 0;
  unsigned Proven = 0;
  unsigned Failed = 0;
  unsigned Unproven = 0;
  bool CacheHit = false;
  bool Degraded = false; ///< A prover infrastructure failure occurred.
  double Seconds = 0.0;  ///< Prover wall time (excluded from reports).
};

/// The whole-pair outcome.
struct ValidationReport {
  Verdict V = Verdict::V_Unknown;
  /// "probe" (Inequivalent), "proof" (Equivalent), "" (Unknown).
  std::string Method;
  /// Inequivalent only: the witness input and both observed outcomes.
  std::string Witness;
  /// Unknown only: the first blocking reason.
  std::string Detail;
  std::vector<ProcOutcome> Procs;
  bool Degraded = false;
  double TotalSeconds = 0.0;

  /// Human-readable rendering (stable except for timings).
  std::string str() const;
};

/// Validates \p Candidate against \p Original. \p Checker supplies the
/// prover policy, thread pool, worker isolation, and verdict cache; the
/// validator only adds obligations. Deterministic for a fixed
/// (programs, options) input at every --jobs width.
ValidationReport validatePrograms(const ir::Program &Original,
                                  const ir::Program &Candidate,
                                  checker::SoundnessChecker &Checker,
                                  const ValidationOptions &Options = {});

/// Structural fingerprint of a validation request (programs + options),
/// used by the service dedup memo. Stable across runs.
uint64_t fingerprintPair(const ir::Program &Original,
                         const ir::Program &Candidate,
                         const ValidationOptions &Options);

} // namespace validate
} // namespace cobalt

#endif // COBALT_VALIDATE_VALIDATE_H
