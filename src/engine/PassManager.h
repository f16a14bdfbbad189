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
  bool RolledBack = false; ///< Snapshot restored after a failure.
  /// Always false: the pass manager skips no pass. Kept only because
  /// perfbench/checks.cpp still reads it; remove it with that reader.
  bool Quarantined = false;
  /// Optimization remarks for this (pass, procedure): one per applied
  /// site, one per legal-but-missed site, and one rolled-back remark on
  /// failure. Plain data, produced whether or not a telemetry session is
  /// installed; ordering is deterministic (sites in application / index
  /// order) and survives the procedure-order merge.
  std::vector<support::Remark> Remarks;

  bool failed() const { return Err.failed(); }
};

/// Fault-tolerance policy of the pass manager. With Transactional set
/// (the default), each pass runs against a snapshot of what it may
/// change (the procedure for an optimization, the labeling for an
/// analysis): any exception, ill-formed result, or interpreter-observed
/// semantic divergence restores the snapshot and records the failure
/// instead of corrupting the pipeline. Every run starts from the same
/// state, so a pass that failed last run runs again this run.
///
/// ## Concurrency model (see DESIGN.md)
/// Each run executes one job per procedure, each against a private copy
/// of the run-start program, and merges bodies and reports back in
/// procedure order. The same model is used with and without a thread
/// pool, so `--jobs N` is bit-identical to `--jobs 1`: the interpreter
/// spot-check sees the run-start bodies of *other* procedures (snapshot
/// isolation) rather than whatever the schedule happened to finish
/// first.
struct TxPolicy {
  bool Transactional = true;
  /// Post-pass interpreter spot-check (transactional runs only): after
  /// a pass rewrites a procedure, main() is run on this many generated
  /// inputs before and after, each with SpotCheckFuel steps; an input
  /// on which the original returned must return the same value in the
  /// rewritten program (the paper's soundness direction).
  static constexpr unsigned SpotCheckInputs = 4;
  static constexpr uint64_t SpotCheckFuel = 1u << 16;
};

/// A registered pipeline of passes. Registration happens once, before
/// the first run; a run reads the registered passes and the policy and
/// writes only the program it is given, so one manager serves any
/// number of concurrent runs.
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
  /// The registered passes of each kind, in registration order.
  const std::vector<PureAnalysis> &analyses() const { return Analyses; }
  const std::vector<Optimization> &optimizations() const {
    return Optimizations;
  }

  /// Fault-tolerance policy (see TxPolicy).
  void setTxPolicy(const TxPolicy &Policy) { Tx = Policy; }

  /// Runs all registered passes, in registration order, over every
  /// procedure of \p Prog (analyses label; optimizations rewrite).
  /// Returns one report per (pass, procedure). Per-procedure jobs run on
  /// \p Pool (nullptr = sequential on the calling thread, same merge
  /// model).
  std::vector<PassReport> run(ir::Program &Prog,
                              support::ThreadPool *Pool = nullptr) const;

  /// Repeats run() until a whole round applies no rewrite (or \p
  /// MaxRounds is hit). Soundness is per-round (each round is a
  /// composition of proven passes); returns the number of rounds that
  /// performed at least one rewrite.
  unsigned runToFixpoint(ir::Program &Prog,
                         support::ThreadPool *Pool = nullptr,
                         unsigned MaxRounds = 8) const;

  /// Runs a single registered optimization by name over the program.
  std::vector<PassReport> runOne(const std::string &Name,
                                 ir::Program &Prog) const;

  /// Runs the subset of registered passes whose names appear in \p Names,
  /// preserving registration order (PipelineRequest::SelectedOnly).
  std::vector<PassReport> runSelected(const std::vector<std::string> &Names,
                                      ir::Program &Prog,
                                      support::ThreadPool *Pool = nullptr) const;

private:
  struct Pass {
    bool IsAnalysis;
    size_t Index; ///< Into Analyses or Optimizations.
  };

  void registerLabels(const std::vector<LabelDef> &Labels);
  std::vector<PassReport> runPasses(const std::vector<Pass> &ToRun,
                                    ir::Program &Prog,
                                    support::ThreadPool *Pool) const;

  LabelRegistry Registry;
  std::vector<PureAnalysis> Analyses;
  std::vector<Optimization> Optimizations;
  std::vector<Pass> Pipeline;
  TxPolicy Tx;
};

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_PASSMANAGER_H
