//===- PassManager.h - Pipelines of analyses and optimizations -*- C++ -*--===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives Cobalt passes over whole programs: registers the label
/// definitions each pass relies on, runs pure analyses to build node
/// labelings, and applies optimizations procedure by procedure. Enforces
/// the paper's composition restriction (§2.4/§4.1): results of forward
/// pure analyses may feed forward optimizations and other forward
/// analyses, but a backward optimization in the pipeline invalidates the
/// current labeling (labels are recomputed afterwards) — combining a
/// forward analysis with a backward transformation may interfere.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_ENGINE_PASSMANAGER_H
#define COBALT_ENGINE_PASSMANAGER_H

#include "core/Optimization.h"
#include "engine/Engine.h"
#include "ir/Ast.h"
#include "support/Errors.h"
#include "support/Expected.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cobalt {

namespace support {
class ThreadPool;
}

namespace engine {

/// Per-pass, per-procedure record of what happened. When Err carries a
/// failure the pass failed; a failed optimization pass was rolled back
/// (the procedure is byte-identical to its pre-pass snapshot) and
/// reports AppliedCount == 0, since its net effect is zero.
struct PassReport {
  std::string PassName;
  std::string ProcName;
  unsigned DeltaSize = 0;
  unsigned AppliedCount = 0;
  unsigned FixpointIters = 0;
  /// What failed and why (the unified support::Error carrier — the
  /// checker's ObligationResult and the parsers use the same shape).
  support::Error Err;
  bool RolledBack = false;  ///< Snapshot restored after a failure.
  bool Quarantined = false; ///< Pass skipped: quarantined by earlier
                            ///< failures.
  /// Optimization remarks for this (pass, procedure): one per applied
  /// site, one per legal-but-missed site, and one rolled-back/missed
  /// remark on failure or quarantine. Plain data, produced whether or not
  /// a telemetry session is installed; ordering is deterministic (sites in
  /// application / index order) and survives the procedure-order merge.
  std::vector<support::Remark> Remarks;

  bool failed() const { return Err.failed(); }
};

/// Fault-tolerance policy of the pass manager. With Transactional set
/// (the default), each optimization pass runs against a snapshot of the
/// procedure: any exception, ill-formed result, or interpreter-observed
/// semantic divergence rolls the procedure back and records the failure
/// instead of corrupting the pipeline. A pass that fails
/// QuarantineAfter consecutive times is quarantined (skipped, with a
/// report entry) while the rest of the pipeline continues.
///
/// ## Concurrency model (see DESIGN.md)
/// Each run() executes one job per procedure, each against a private
/// copy of the run-start program, and merges bodies, labelings, reports,
/// and failure/success events back in procedure order. The same model is
/// used with and without a thread pool, so `--jobs N` is bit-identical
/// to `--jobs 1`: quarantine decisions read the run-start state (a
/// failure recorded during a run takes effect the next run), and the
/// interpreter spot-check sees the run-start bodies of *other*
/// procedures (snapshot isolation) rather than whatever the schedule
/// happened to finish first.
struct TxPolicy {
  bool Transactional = true;
  unsigned QuarantineAfter = 3;
  /// Post-pass interpreter spot-check: after a pass rewrites a
  /// procedure, main() is run on this many generated inputs before and
  /// after; an input on which the original returned must return the
  /// same value in the rewritten program (the paper's soundness
  /// direction). 0 disables the semantic check (the CFG well-formedness
  /// check still runs).
  unsigned SpotCheckInputs = 4;
  uint64_t SpotCheckFuel = 1u << 16;
};

class PassManager {
public:
  /// Registers a pass. Label definitions carried by the pass are added to
  /// the shared registry (duplicate definitions of the same label are
  /// tolerated if they were registered before — passes share mayDef etc.).
  void addAnalysis(PureAnalysis A);
  void addOptimization(Optimization O);

  /// Registers a label definition directly (shared label library).
  void defineLabel(const LabelDef &Def);

  const LabelRegistry &registry() const { return Registry; }

  /// Runs all registered passes, in registration order, over every
  /// procedure of \p Prog (analyses label; optimizations rewrite).
  /// Returns one report per (pass, procedure).
  std::vector<PassReport> run(ir::Program &Prog);

  /// Repeats run() until a whole round applies no rewrite (or \p
  /// MaxRounds is hit). Soundness is per-round (each round is a
  /// composition of proven passes); returns the number of rounds that
  /// performed at least one rewrite.
  unsigned runToFixpoint(ir::Program &Prog, unsigned MaxRounds = 8);

  /// Runs a single registered optimization by name over the program.
  std::vector<PassReport> runOne(const std::string &Name,
                                 ir::Program &Prog);

  /// Runs the subset of registered passes whose names appear in \p Names,
  /// preserving registration order (PipelineRequest::SelectedOnly).
  std::vector<PassReport> runSelected(const std::vector<std::string> &Names,
                                      ir::Program &Prog);

  /// Per-procedure jobs run on \p Pool (nullptr = sequential on the
  /// calling thread, same merge model). Non-owning; the pool must
  /// outlive the manager's runs.
  void setThreadPool(support::ThreadPool *Pool) { this->Pool = Pool; }

  /// The labeling computed for a procedure during the last run (empty if
  /// none). Useful for inspecting analysis results.
  const Labeling *labelingFor(const std::string &ProcName) const;

  /// Fault-tolerance policy (see TxPolicy).
  void setTxPolicy(const TxPolicy &Policy) { Tx = Policy; }
  const TxPolicy &txPolicy() const { return Tx; }

  /// Passes currently quarantined (skipped until resetQuarantine).
  /// Sorted by name.
  std::vector<std::string> quarantined() const;

  /// Consecutive-failure count of a pass (0 if it never failed or
  /// succeeded since).
  unsigned failureCount(const std::string &PassName) const;

  /// Clears quarantine state and failure counters (e.g. after the fault
  /// source is fixed).
  void resetQuarantine();

  /// True when the most recent run()/runOne()/runToFixpoint() recorded
  /// at least one pass failure or quarantine-skip — the pipeline
  /// completed, but degraded.
  bool lastRunDegraded() const { return LastRunDegraded; }

private:
  struct Pass {
    bool IsAnalysis;
    size_t Index; ///< Into Analyses or Optimizations.
  };

  void registerLabels(const std::vector<LabelDef> &Labels);
  std::vector<PassReport> runPasses(const std::vector<Pass> &ToRun,
                                    ir::Program &Prog);
  void recordFailure(const std::string &PassName);
  void recordSuccess(const std::string &PassName);
  bool isQuarantined(const std::string &PassName) const;

  LabelRegistry Registry;
  std::vector<PureAnalysis> Analyses;
  std::vector<Optimization> Optimizations;
  std::vector<Pass> Pipeline;
  std::map<std::string, Labeling> LastLabelings;
  TxPolicy Tx;
  std::map<std::string, unsigned> ConsecutiveFailures;
  bool LastRunDegraded = false;
  support::ThreadPool *Pool = nullptr;
};

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_PASSMANAGER_H
