//===- PassManager.cpp ----------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/PassManager.h"

#include "ir/Interp.h"
#include "support/FaultInjection.h"
#include "support/Fnv1a.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;
using support::ErrorKind;

void PassManager::registerLabels(const std::vector<LabelDef> &Labels) {
  for (const LabelDef &Def : Labels) {
    // Shared label library: re-registration of an identical name is
    // expected when several passes carry the same definitions.
    if (!Registry.findPredicate(Def.Name))
      Registry.define(Def);
  }
}

void PassManager::addAnalysis(PureAnalysis A) {
  assert(!validateAnalysis(A) && "malformed analysis");
  registerLabels(A.Labels);
  if (!Registry.findPredicate(A.LabelName) &&
      !Registry.isAnalysisLabel(A.LabelName))
    Registry.declareAnalysisLabel(A.LabelName);
  Analyses.push_back(std::move(A));
  Pipeline.push_back({/*IsAnalysis=*/true, Analyses.size() - 1});
}

void PassManager::addOptimization(Optimization O) {
  assert(!validateOptimization(O) && "malformed optimization");
  registerLabels(O.Labels);
  Optimizations.push_back(std::move(O));
  Pipeline.push_back({/*IsAnalysis=*/false, Optimizations.size() - 1});
}

void PassManager::defineLabel(const LabelDef &Def) {
  if (!Registry.findPredicate(Def.Name))
    Registry.define(Def);
}

const Labeling *PassManager::labelingFor(const std::string &ProcName) const {
  auto It = LastLabelings.find(ProcName);
  return It == LastLabelings.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Quarantine bookkeeping.
//===----------------------------------------------------------------------===//

void PassManager::recordFailure(const std::string &PassName) {
  ++ConsecutiveFailures[PassName];
}

void PassManager::recordSuccess(const std::string &PassName) {
  ConsecutiveFailures.erase(PassName);
}

bool PassManager::isQuarantined(const std::string &PassName) const {
  if (Tx.QuarantineAfter == 0)
    return false;
  auto It = ConsecutiveFailures.find(PassName);
  return It != ConsecutiveFailures.end() &&
         It->second >= Tx.QuarantineAfter;
}

unsigned PassManager::failureCount(const std::string &PassName) const {
  auto It = ConsecutiveFailures.find(PassName);
  return It == ConsecutiveFailures.end() ? 0 : It->second;
}

std::vector<std::string> PassManager::quarantined() const {
  std::vector<std::string> Names;
  for (const auto &[Name, Count] : ConsecutiveFailures)
    if (Tx.QuarantineAfter != 0 && Count >= Tx.QuarantineAfter)
      Names.push_back(Name);
  return Names; // map iteration order: already sorted
}

void PassManager::resetQuarantine() { ConsecutiveFailures.clear(); }

//===----------------------------------------------------------------------===//
// Post-pass sanity checking.
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic inputs for the interpreter spot-check: a fixed set of
/// interesting points extended by a seeded xorshift stream, so every run
/// (and every CI machine) exercises the same inputs.
std::vector<int64_t> spotCheckInputs(unsigned Count) {
  static const int64_t Fixed[] = {0, 1, -1, 7, 42, -13, 100, 3};
  constexpr unsigned NumFixed = sizeof(Fixed) / sizeof(Fixed[0]);
  std::vector<int64_t> Inputs;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (unsigned I = 0; I < Count; ++I) {
    if (I < NumFixed) {
      Inputs.push_back(Fixed[I]);
    } else {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Inputs.push_back(static_cast<int64_t>(X % 201) - 100);
    }
  }
  return Inputs;
}

/// The cheap post-pass sanity check run after a pass rewrote \p P:
/// (1) CFG well-formedness of the rewritten procedure, and (2) an
/// interpreter spot-check of the paper's soundness direction — on every
/// generated input where the pre-pass program returned, the post-pass
/// program must return the same value. \p Snapshot holds the pre-pass
/// body; it is swapped into \p Prog temporarily to run the original and
/// restored before returning, so \p P holds the rewritten body either
/// way. Returns a description of the violation, or nullopt when clean.
std::optional<std::string> postPassSanityCheck(Program &Prog, Procedure &P,
                                               Procedure &Snapshot,
                                               const TxPolicy &Tx) {
  if (auto Err = validateProcedure(P))
    return "ill-formed procedure after rewrite: " + *Err;
  if (Tx.SpotCheckInputs == 0 || !Prog.findProc("main"))
    return std::nullopt;

  std::vector<int64_t> Inputs = spotCheckInputs(Tx.SpotCheckInputs);

  // Rewritten program first (P currently holds the new body) ...
  std::vector<RunResult> NewRuns;
  {
    Interpreter Interp(Prog);
    for (int64_t In : Inputs)
      NewRuns.push_back(Interp.run(In, Tx.SpotCheckFuel));
  }

  // ... then the snapshot, swapped in place so no program copy is made.
  std::swap(P, Snapshot);
  std::optional<std::string> Failure;
  {
    Interpreter Interp(Prog);
    for (size_t I = 0; I < Inputs.size() && !Failure; ++I) {
      RunResult Orig = Interp.run(Inputs[I], Tx.SpotCheckFuel);
      if (!Orig.returned())
        continue; // soundness only constrains returning runs
      const RunResult &New = NewRuns[I];
      std::string In = std::to_string(Inputs[I]);
      if (!New.returned())
        Failure = "spot-check: main(" + In + ") returned " +
                  Orig.Result.str() + " before the pass but " +
                  (New.stuck() ? "got stuck (" + New.StuckReason + ")"
                               : "ran out of fuel") +
                  " after";
      else if (!(New.Result == Orig.Result))
        Failure = "spot-check: main(" + In + ") returned " +
                  Orig.Result.str() + " before the pass but " +
                  New.Result.str() + " after";
    }
  }
  std::swap(P, Snapshot); // restore the rewritten body
  return Failure;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pipeline execution.
//===----------------------------------------------------------------------===//

std::vector<PassReport> PassManager::runPasses(const std::vector<Pass> &ToRun,
                                               Program &Prog) {
  LastLabelings.clear();
  LastRunDegraded = false;

  // Run-start quarantine snapshot: every (procedure, pass) job reads the
  // same state regardless of scheduling. Failures recorded during this
  // run take effect on the *next* run — mid-run quarantine coupling
  // across procedures was inherently schedule-dependent, so it is gone
  // in both the sequential and the parallel mode.
  const std::map<std::string, unsigned> StartFailures = ConsecutiveFailures;
  auto StartFailureCount = [&](const std::string &Name) -> unsigned {
    auto It = StartFailures.find(Name);
    return It == StartFailures.end() ? 0 : It->second;
  };
  auto StartQuarantined = [&](const std::string &Name) {
    return Tx.QuarantineAfter != 0 &&
           StartFailureCount(Name) >= Tx.QuarantineAfter;
  };

  /// One procedure's pipeline run, isolated on a private copy of the
  /// run-start program (so the interpreter spot-check never observes
  /// another job's half-applied rewrites) and merged back in procedure
  /// order below.
  struct ProcJob {
    Program Snapshot;
    Labeling Labels;
    std::vector<PassReport> Reports;
    /// (pass name, failed) in pipeline order; replayed into the shared
    /// failure counters during the deterministic merge.
    std::vector<std::pair<std::string, bool>> Events;
    bool Degraded = false;
  };
  std::vector<ProcJob> Jobs(Prog.Procs.size());

  auto RunProc = [&](size_t PI) {
    ProcJob &Job = Jobs[PI];
    Job.Snapshot = Prog;
    Procedure &P = Job.Snapshot.Procs[PI];
    support::TraceSpan ProcSpan("engine", "proc");
    if (ProcSpan.enabled())
      ProcSpan.arg("proc", P.Name);
    support::metricAdd("engine.procs");
    // Fault decisions inside this job are keyed on the procedure name,
    // so `--jobs 8` fires exactly the faults `--jobs 1` does.
    support::ScopedFaultKey JobKey(support::fnv1a(P.Name));
    std::vector<PassReport> &Reports = Job.Reports;
    Labeling &Labels = Job.Labels;
    Labels.assign(P.size(), {});
    bool LabelsValid = true;

    // Recomputes the labeling by replaying every analysis before \p Upto
    // (§4.1 forbids reusing labels across a backward rewrite).
    // Quarantined analyses are skipped and a throwing analysis
    // contributes no labels — both degrade precision (fewer labels mean
    // fewer matches), never soundness.
    auto ReplayLabels = [&](const Pass &Upto) {
      Labels.assign(P.size(), {});
      for (const Pass &Prev : ToRun) {
        if (&Prev == &Upto)
          break;
        if (!Prev.IsAnalysis)
          continue;
        const PureAnalysis &PA = Analyses[Prev.Index];
        if (StartQuarantined(PA.Name))
          continue;
        try {
          runPureAnalysis(PA, P, Registry, Labels);
        } catch (...) {
          // Labels of the failing analysis are simply absent.
        }
      }
      LabelsValid = true;
    };

    for (const Pass &Ps : ToRun) {
      PassReport Report;
      Report.ProcName = P.Name;
      support::TraceSpan PassSpan("engine", "pass");
      support::metricAdd("engine.passes");

      if (Ps.IsAnalysis) {
        const PureAnalysis &A = Analyses[Ps.Index];
        Report.PassName = A.Name;
        if (PassSpan.enabled()) {
          PassSpan.arg("pass", A.Name);
          PassSpan.arg("proc", P.Name);
        }
        if (StartQuarantined(A.Name)) {
          Report.Quarantined = true;
          Report.Err = support::Error(
              ErrorKind::EK_Quarantined,
              "skipped: quarantined after " +
                  std::to_string(StartFailureCount(A.Name)) +
                  " consecutive failures");
          Report.Remarks.push_back({support::Remark::Kind::RK_Missed,
                                    A.Name, P.Name, -1, "quarantined"});
          support::metricAdd("engine.quarantine_skips");
          Job.Degraded = true;
          Reports.push_back(std::move(Report));
          continue;
        }
        if (!LabelsValid)
          ReplayLabels(Ps);

        Labeling LabelsSnapshot;
        if (Tx.Transactional)
          LabelsSnapshot = Labels;
        auto HandleFailure = [&](ErrorKind Kind,
                                 const std::string &Detail) {
          if (Tx.Transactional) {
            Labels = std::move(LabelsSnapshot);
            Report.RolledBack = true;
            support::metricAdd("engine.rollbacks");
          }
          Report.Err = support::Error(Kind, Detail);
          Report.Remarks.push_back({support::Remark::Kind::RK_RolledBack,
                                    A.Name, P.Name, -1, Detail});
          support::metricAdd("engine.pass_failures");
          Job.Events.emplace_back(A.Name, /*Failed=*/true);
          Job.Degraded = true;
        };
        try {
          RunStats Stats;
          runPureAnalysis(A, P, Registry, Labels, &Stats);
          Report.DeltaSize = Stats.DeltaSize;
          Report.FixpointIters = Stats.FixpointIters;
          Job.Events.emplace_back(A.Name, /*Failed=*/false);
        } catch (const support::PassError &E) {
          HandleFailure(E.kind(), E.what());
        } catch (const std::exception &E) {
          HandleFailure(ErrorKind::EK_PassPanic, E.what());
        } catch (...) {
          HandleFailure(ErrorKind::EK_PassPanic,
                        "unknown exception escaped the analysis");
        }
      } else {
        const Optimization &O = Optimizations[Ps.Index];
        Report.PassName = O.Name;
        if (PassSpan.enabled()) {
          PassSpan.arg("pass", O.Name);
          PassSpan.arg("proc", P.Name);
        }
        if (StartQuarantined(O.Name)) {
          Report.Quarantined = true;
          Report.Err = support::Error(
              ErrorKind::EK_Quarantined,
              "skipped: quarantined after " +
                  std::to_string(StartFailureCount(O.Name)) +
                  " consecutive failures");
          Report.Remarks.push_back({support::Remark::Kind::RK_Missed,
                                    O.Name, P.Name, -1, "quarantined"});
          support::metricAdd("engine.quarantine_skips");
          Job.Degraded = true;
          Reports.push_back(std::move(Report));
          continue;
        }
        if (!LabelsValid)
          ReplayLabels(Ps);

        // Forward analyses may feed forward optimizations (§4.1); a
        // backward optimization must not consume them, so it runs with
        // no labeling and invalidates it afterwards if it rewrote
        // anything.
        bool IsBackward = O.Pat.Dir == Direction::D_Backward;

        // Transactional application: snapshot, run, sanity-check, and
        // roll back on any failure. The snapshot/rollback is what turns
        // "a pass misbehaved" from a corrupted pipeline into a recorded,
        // skippable failure.
        Procedure Snapshot;
        if (Tx.Transactional)
          Snapshot = P;
        auto HandleFailure = [&](ErrorKind Kind,
                                 const std::string &Detail) {
          if (Tx.Transactional) {
            P = std::move(Snapshot);
            Report.RolledBack = true;
            support::metricAdd("engine.rollbacks");
          }
          Report.AppliedCount = 0;
          // Any per-site remark recorded before the failure describes a
          // rewrite that no longer exists after the rollback.
          Report.Remarks.clear();
          Report.Remarks.push_back({support::Remark::Kind::RK_RolledBack,
                                    O.Name, P.Name, -1, Detail});
          support::metricAdd("engine.pass_failures");
          Report.Err = support::Error(Kind, Detail);
          Job.Events.emplace_back(O.Name, /*Failed=*/true);
          Job.Degraded = true;
        };
        try {
          RunStats Stats = runOptimization(
              O, P, Registry, IsBackward ? nullptr : &Labels);
          Report.DeltaSize = Stats.DeltaSize;
          Report.FixpointIters = Stats.FixpointIters;
          if (Tx.Transactional && Stats.AppliedCount > 0)
            if (auto Violation =
                    postPassSanityCheck(Job.Snapshot, P, Snapshot, Tx))
              throw support::PassError(ErrorKind::EK_RewriteConflict,
                                       *Violation);
          Report.AppliedCount = Stats.AppliedCount;
          for (int Site : Stats.AppliedSites)
            Report.Remarks.push_back({support::Remark::Kind::RK_Passed,
                                      O.Name, P.Name, Site,
                                      "chosen and applied"});
          for (int Site : Stats.MissedSites)
            Report.Remarks.push_back(
                {support::Remark::Kind::RK_Missed, O.Name, P.Name, Site,
                 "legal site not rewritten (choose declined or lost "
                 "the per-index tie)"});
          if (Stats.AppliedCount > 0)
            support::metricAdd("engine.rewrites", Stats.AppliedCount);
          if (PassSpan.enabled()) {
            PassSpan.arg("delta", static_cast<uint64_t>(Stats.DeltaSize));
            PassSpan.arg("applied",
                         static_cast<uint64_t>(Stats.AppliedCount));
          }
          if (Stats.AppliedCount > 0)
            LabelsValid = false; // statements changed: labels are stale
          Job.Events.emplace_back(O.Name, /*Failed=*/false);
        } catch (const support::PassError &E) {
          HandleFailure(E.kind(), E.what());
        } catch (const std::exception &E) {
          HandleFailure(ErrorKind::EK_PassPanic, E.what());
        } catch (...) {
          HandleFailure(ErrorKind::EK_PassPanic,
                        "unknown exception escaped the pass");
        }
      }
      Reports.push_back(std::move(Report));
    }
  };

  // Without a pool, procedures run in index order on this thread, as on
  // a width-1 pool. Either way the merge below is the only writer of
  // shared state.
  if (Pool)
    Pool->parallelFor(Jobs.size(), RunProc);
  else
    for (size_t PI = 0; PI < Jobs.size(); ++PI)
      RunProc(PI);

  // Deterministic merge in procedure order: bodies, labelings, failure
  // counters, and reports never depend on which job finished first.
  std::vector<PassReport> Reports;
  for (size_t PI = 0; PI < Prog.Procs.size(); ++PI) {
    ProcJob &Job = Jobs[PI];
    Prog.Procs[PI] = std::move(Job.Snapshot.Procs[PI]);
    LastLabelings[Prog.Procs[PI].Name] = std::move(Job.Labels);
    for (const auto &[PassName, Failed] : Job.Events) {
      if (Failed)
        recordFailure(PassName);
      else
        recordSuccess(PassName);
    }
    LastRunDegraded = LastRunDegraded || Job.Degraded;
    for (PassReport &R : Job.Reports)
      Reports.push_back(std::move(R));
  }
  return Reports;
}

std::vector<PassReport> PassManager::run(Program &Prog) {
  return runPasses(Pipeline, Prog);
}

unsigned PassManager::runToFixpoint(Program &Prog, unsigned MaxRounds) {
  unsigned ActiveRounds = 0;
  bool Degraded = false;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    unsigned Applied = 0;
    for (const PassReport &R : run(Prog))
      Applied += R.AppliedCount;
    Degraded = Degraded || LastRunDegraded;
    if (Applied == 0)
      break;
    ++ActiveRounds;
  }
  // A rolled-back pass reports zero applications, so a persistently
  // failing pass cannot keep the fixpoint loop spinning; still, surface
  // that any round degraded.
  LastRunDegraded = Degraded;
  return ActiveRounds;
}

std::vector<PassReport> PassManager::runOne(const std::string &Name,
                                            Program &Prog) {
  return runSelected({Name}, Prog);
}

std::vector<PassReport>
PassManager::runSelected(const std::vector<std::string> &Names,
                         Program &Prog) {
  std::vector<Pass> ToRun;
  for (const Pass &Ps : Pipeline) {
    const std::string &PName =
        Ps.IsAnalysis ? Analyses[Ps.Index].Name : Optimizations[Ps.Index].Name;
    if (std::find(Names.begin(), Names.end(), PName) != Names.end())
      ToRun.push_back(Ps);
  }
  return runPasses(ToRun, Prog);
}
