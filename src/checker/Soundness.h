//===- Soundness.h - Automatic soundness proofs of optimizations -*- C++ -*-=//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automatic proof strategy of paper §4: per-optimization,
/// non-inductive proof obligations discharged by an automatic theorem
/// prover. The induction over execution traces lives in the hand-proven
/// meta-theorems (paper Theorems 1 and 2); the prover only sees facts
/// about individual states.
///
/// Forward patterns (§4.2):
///   F1  the enabling statement establishes the witness;
///   F2  innocuous statements preserve the witness;
///   F3  under the witness, s' steps exactly like s (including that s'
///       cannot get stuck when s does not — footnote 6's progress side).
///
/// Backward patterns (§4.3):
///   B1  executing s / s' from a common state establishes the witness;
///   B2  innocuous statements preserve the witness, and the transformed
///       trace can step whenever the original does;
///   B3  the enabling statement makes the two traces identical again;
///   B4  s' cannot get stuck when s does not (progress; for statement
///       *insertions*, s = skip, replaced by the pair I1/I2 that push
///       evaluability backwards through the witnessing region — see the
///       meta-theorem note in the implementation);
///   B5  at a return enabler the traces agree on the return value and on
///       every caller-observable store cell (this catches the escaped-
///       local bug in the naive dead-assignment elimination).
///
/// Pure analyses (§2.4/§4.2) need F1 and F2 with the defined label's
/// witness.
///
/// Each obligation is checked by asserting its hypotheses plus the
/// negated conclusion and expecting unsat; sat/unknown yields a
/// counterexample context (§7's suggestion) extracted from the model.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_SOUNDNESS_H
#define COBALT_CHECKER_SOUNDNESS_H

#include "core/Formula.h"
#include "core/Optimization.h"
#include "support/Errors.h"
#include "support/Expected.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cobalt {

namespace support {
class DiskCache;
class ThreadPool;
} // namespace support

namespace checker {

struct ObligationSet; ///< checker/Obligations.h — the unit of work.
class VerdictStore;   ///< checker/VerdictStore.h — the verdict memo.

/// Analysis label → the pure analysis defining it: the label witnesses an
/// obligation may assume (§3.2.3 label semantics).
using AnalysisTable = std::map<std::string, const PureAnalysis *>;

/// Outcome of one obligation. Three-valued: *proven* (unsat), *failed*
/// (a genuine counterexample model was found — the definition is
/// unsound), or *unknown* (the prover gave up; the definition is merely
/// unproven). Failed and unknown are distinct outcomes with distinct
/// payloads: only a failed obligation carries a counterexample, and only
/// an unknown one carries an error callers can dispatch on.
struct ObligationResult {
  enum class Status { OS_Proven, OS_Failed, OS_Unknown };
  /// "proven" / "failed" / "unknown" — with verdictName below, the one
  /// spelling used by disk entries, worker frames, --report=json, trace
  /// args and metric names.
  static const char *statusName(Status S);
  static std::optional<Status> parseStatus(std::string_view Name);

  std::string Name; ///< "F1", "B3", ...
  Status St = Status::OS_Unknown;
  /// Why the prover gave up; failed() exactly when St == OS_Unknown.
  /// Kind is EK_ProverTimeout / EK_ProverUnknown / EK_ProverResourceOut;
  /// Message is the solver's reason_unknown. (The unified support::Error
  /// carrier — PassReport and the parsers use the same shape.)
  support::Error Err;
  double Seconds = 0.0;
  unsigned Attempts = 0; ///< Solver attempts made (retry escalation).
  /// Z3 "rlimit count" consumed across all attempts — the prover's
  /// deterministic spend measure (wall time carries scheduler noise,
  /// rlimit does not). 0 when the solver never ran or Z3 reports none.
  uint64_t RlimitSpent = 0;
  /// Model summary; nonempty only when St == OS_Failed.
  std::string Counterexample;

  bool proven() const { return St == Status::OS_Proven; }
  bool unknown() const { return St == Status::OS_Unknown; }
};

/// Outcome of checking one optimization or analysis.
struct CheckReport {
  /// V_Sound: every obligation proven. V_Unsound: at least one genuine
  /// counterexample. V_Unproven: no counterexample, but some obligation
  /// could not be discharged (prover timeout/unknown/resource-out) — the
  /// definition must not be applied, yet nothing is known to be wrong
  /// with it.
  enum class Verdict { V_Sound, V_Unsound, V_Unproven };
  /// "sound" / "unsound" / "unproven".
  static const char *verdictName(Verdict V);
  static std::optional<Verdict> parseVerdict(std::string_view Name);

  std::string Name;
  Verdict V = Verdict::V_Unproven;
  bool Sound = false; ///< Convenience: V == V_Sound.
  /// First infrastructure failure among the obligations (EK_None when
  /// every obligation was decided). A report can be V_Unsound *and*
  /// degraded when some obligations failed and others timed out.
  support::ErrorKind Degradation = support::ErrorKind::EK_None;
  bool CacheHit = false; ///< Served from the verdict cache.
  std::vector<ObligationResult> Obligations;
  double TotalSeconds = 0.0;
  /// Analysis labels this result relies on; the overall guarantee only
  /// holds if the defining analyses are themselves proven sound.
  std::vector<std::string> AssumedAnalyses;

  bool degraded() const {
    return Degradation != support::ErrorKind::EK_None;
  }
  bool unsound() const { return V == Verdict::V_Unsound; }

  std::string str() const;
};

/// Where proof obligations are discharged (DESIGN.md §12).
enum class WorkerIsolation {
  /// Z3 runs on the checker's own threads. Fastest; a prover segfault or
  /// runaway allocation takes the whole pipeline with it.
  WI_InProcess,
  /// Z3 runs in forked worker subprocesses supervised by a watchdog
  /// (checker::ProverWorkerPool): crashes, hangs, and memory blowups
  /// cost one expendable child, and the run always completes.
  WI_Subprocess,
};

/// Resource policy for discharging obligations. Attempts escalate: the
/// first runs at InitialTimeoutMs, each retry multiplies the timeout by
/// 5, and the final attempt runs at the full TimeoutMs.
/// An optional total wall-clock budget bounds each obligation set (one
/// definition, or one validated procedure pair); obligations past the
/// budget are reported unknown(ProverTimeout) without invoking the
/// solver. Caching is not policy: each ObligationSet says whether its
/// verdict may be claimed in the verdict store.
struct ProverPolicy {
  unsigned TimeoutMs = 30000;       ///< Final-attempt (full) timeout.
  unsigned InitialTimeoutMs = 2000; ///< First-attempt timeout.
  unsigned Retries = 2;             ///< Extra attempts after the first.
  uint64_t BudgetMs = 0;            ///< Per-set wall budget; 0 = none.
  uint64_t RLimit = 0;              ///< Z3 rlimit cap; 0 = unlimited.

  /// \name Worker isolation (meaningful under WI_Subprocess).
  /// @{
  WorkerIsolation Isolation = WorkerIsolation::WI_InProcess;
  /// Watchdog wall budget per obligation dispatch (ms); 0 derives a
  /// bound from the solver timeouts (2*TimeoutMs + slack).
  unsigned WorkerWallMs = 0;
  /// Watchdog rss-growth budget per obligation dispatch (MB);
  /// 0 = unwatched.
  unsigned WorkerRssMb = 0;
  /// Fresh workers tried per obligation before it is quarantined:
  /// reported unknown(EK_WorkerCrash), so its definition degrades to an
  /// Unproven verdict (never cached), the run completes, and cobaltc
  /// exits with the containment-degraded code.
  unsigned WorkerRestarts = 2;
  /// @}
};

/// Checks optimizations and pure analyses against the IL semantics.
/// Construct once and reuse (each obligation set is proven in a Z3 world
/// of its own, which is also what makes sets independently schedulable).
///
/// ## One obligation path
/// The unit of work is an ObligationSet (checker/Obligations.h). lower()
/// turns an optimization or a pure analysis into one; the translation
/// validator assembles its own. checkObligationSets() discharges sets,
/// and checkOptimization/checkAnalysis/checkSuite are lower() followed by
/// it, so every obligation takes the same path: claim, fan-out, budget,
/// containment, trace span, telemetry.
///
/// ## Caching
/// Verdicts live in a checker::VerdictStore keyed by the set's
/// fingerprint — for rules and analyses a structural fingerprint of the
/// definition and its checking context, so re-checking an unchanged
/// definition is free. A check claims each Cacheable set in the store,
/// proves and settles the ones it leads, and only then waits on the ones
/// it joined (another checker sharing the store proves them). Unproven
/// verdicts are never kept. A caller that claims verdicts itself (as
/// CobaltService::check does) lowers its sets with Cacheable = false.
/// The store is private and memory-only by default; setCacheDir() adds
/// the disk tier, setSharedCache() shares one store among many checkers.
///
/// ## Parallelism
/// checkObligationSets() fans its sets into a ThreadPool as independent
/// jobs, longest first, and reassembles reports in input order. A set's
/// obligations run in index order on one lane, in one Z3 world, so an
/// obligation's solver history is the earlier obligations of its own
/// set. Reports are bit-identical to a sequential run: each set is a
/// deterministic sequence of Z3 queries, collection order is by (set,
/// obligation) index, and fault-injection decisions are keyed on stable
/// obligation fingerprints (set fingerprint, obligation name, salt)
/// rather than arrival order.
class SoundnessChecker {
public:
  /// \p Registry supplies user label definitions; \p Analyses supplies
  /// the witnesses of analysis labels (§3.2.3 label semantics).
  SoundnessChecker(const LabelRegistry &Registry,
                   std::vector<PureAnalysis> Analyses = {});

  void setPolicy(const ProverPolicy &P) { Policy = P; }
  const ProverPolicy &policy() const { return Policy; }

  /// Obligations run on \p Pool (nullptr = sequential on the calling
  /// thread). Non-owning; the pool must outlive the checker's checks.
  void setThreadPool(support::ThreadPool *Pool) { this->Pool = Pool; }

  /// Adds the disk tier under \p Dir (created if absent) to the
  /// checker's verdict store. Returns false and stays memory-only when
  /// the directory is unusable. Entries are invalidated structurally: any
  /// edit to a rule, its labels, or the analyses it can see changes the
  /// fingerprint, so stale verdicts are unreachable rather than deleted.
  bool setCacheDir(const std::string &Dir);

  /// Points the checker at an externally owned verdict store (typically a
  /// CobaltService's) instead of a private one: every checker sharing the
  /// store observes, and joins, every other one's verdicts. Passing
  /// nullptr reverts to a private, memory-only store.
  void setSharedCache(std::shared_ptr<VerdictStore> Store);

  /// Salt XOR'd into every obligation's fault-injection key. Defaults to
  /// 0 (keys depend only on the obligation's structural fingerprint —
  /// reproducible across runs). A service can give each request a
  /// distinct salt so injected faults land on *that* request's
  /// obligations without perturbing its neighbours.
  void setFaultKeySalt(uint64_t Salt) { FaultKeySalt = Salt; }

  CheckReport checkOptimization(const Optimization &O);
  CheckReport checkAnalysis(const PureAnalysis &A);

  /// Lowers \p O to its obligation set (§4.2 F1–F3; §4.3 B1–B5, with
  /// I1/I2 in place of B4 for insertions), Cacheable, carrying the
  /// analyses its guard assumes and every analysis as its label table.
  /// \p Fingerprint is fingerprintOptimization(O), passed in so a caller
  /// that holds it does not compute it twice. The set reads \p O by
  /// reference: \p O must outlive the set's check.
  ObligationSet lower(const Optimization &O, uint64_t Fingerprint) const;
  /// Lowers \p A to F1/F2 over its label's witness (§2.4/§4.2). Its label
  /// table leaves \p A itself out: an analysis may assume every other
  /// analysis, never its own result.
  ObligationSet lower(const PureAnalysis &A, uint64_t Fingerprint) const;

  /// Discharges obligation sets (checker/Obligations.h): thread-pool
  /// fan-out, retry escalation, wall budgets, crash containment, trace
  /// spans, and — when a set is Cacheable — the verdict store. Lowered
  /// rules and analyses and the translation validator's per-pair
  /// simulation obligations all enter the prover here. All sets fan out
  /// together, longest first, each on one lane in its own Z3 world;
  /// reports come back in input order.
  std::vector<CheckReport>
  checkObligationSets(const std::vector<ObligationSet> &Sets);

  /// Checks every definition, fanning all definitions into the thread
  /// pool at once. Returns reports in input order, analyses first —
  /// byte-identical to calling checkAnalysis/checkOptimization in that
  /// order sequentially.
  std::vector<CheckReport>
  checkSuite(const std::vector<PureAnalysis> &SuiteAnalyses,
             const std::vector<Optimization> &SuiteOptimizations);

  /// Definitions this checker was served from its verdict store.
  unsigned cacheHits() const { return CacheHits.load(); }
  /// The disk tier of the checker's verdict store.
  const support::DiskCache &diskCache() const;

  /// Structural fingerprints of definitions — the verdict-cache key and
  /// the service's obligation-dedup key (two requests registering
  /// structurally identical definitions collide here by design).
  uint64_t fingerprintOptimization(const Optimization &O) const;
  uint64_t fingerprintAnalysis(const PureAnalysis &A) const;

private:
  struct PreparedCheck; ///< One set's claim and report under way.

  /// Claims \p Set in the verdict store when it is Cacheable; unless the
  /// store serves it, sizes the report for its obligations' results.
  PreparedCheck prepare(const ObligationSet &Set);
  /// Runs every obligation of the unserved checks, one set per lane.
  void discharge(std::vector<PreparedCheck> &Checks);

  const LabelRegistry &Registry;
  std::vector<PureAnalysis> Analyses;
  /// Every analysis by label: the table of lowered optimizations and of
  /// sets that bring none.
  std::shared_ptr<const AnalysisTable> AllLabels;
  ProverPolicy Policy;
  support::ThreadPool *Pool = nullptr;
  /// Never null: a private memory-only store by default, or a shared one
  /// after setSharedCache().
  std::shared_ptr<VerdictStore> Store;
  std::atomic<unsigned> CacheHits{0};
  uint64_t FaultKeySalt = 0;
};

/// Serialization of cached verdicts (the disk tier's value format; it is
/// versioned via the entry names VerdictStore::open chooses).
std::string serializeCheckReport(const CheckReport &R);
std::optional<CheckReport> deserializeCheckReport(const std::string &Text);

/// Serialization of one obligation result — the worker pool's response
/// frame: the same obligation block as a disk entry's, plus its wall
/// time. Tolerates no unknown fields and requires the status: a frame
/// that does not round-trip is treated as a worker crash.
std::string serializeObligationResult(const ObligationResult &R);
std::optional<ObligationResult>
deserializeObligationResult(const std::string &Text);

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_SOUNDNESS_H
