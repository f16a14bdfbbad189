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
  // An analysis reads the labels of the analyses before it and adds its
  // own, so it always needs current labels.
  Pipeline.push_back(
      {/*IsAnalysis=*/true, Analyses.size() - 1, /*ReadsLabels=*/true});
}

void PassManager::addOptimization(Optimization O) {
  assert(!validateOptimization(O) && "malformed optimization");
  registerLabels(O.Labels);
  // A backward optimization runs with no labeling (§4.1); a forward one
  // reads it only through the analysis labels its guard mentions.
  std::vector<std::string> Read;
  if (O.Pat.Dir == Direction::D_Forward) {
    collectAnalysisLabels(*O.Pat.G.Psi1, Registry, Read);
    collectAnalysisLabels(*O.Pat.G.Psi2, Registry, Read);
  }
  Optimizations.push_back(std::move(O));
  Pipeline.push_back(
      {/*IsAnalysis=*/false, Optimizations.size() - 1, !Read.empty()});
}

void PassManager::defineLabel(const LabelDef &Def) {
  if (!Registry.findPredicate(Def.Name))
    Registry.define(Def);
}

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
                                               Procedure &Snapshot) {
  if (auto Err = validateProcedure(P))
    return "ill-formed procedure after rewrite: " + *Err;
  if (!Prog.findProc("main"))
    return std::nullopt;

  std::vector<int64_t> Inputs = spotCheckInputs(TxPolicy::SpotCheckInputs);

  // Rewritten program first (P currently holds the new body) ...
  std::vector<RunResult> NewRuns;
  {
    Interpreter Interp(Prog);
    for (int64_t In : Inputs)
      NewRuns.push_back(Interp.run(In, TxPolicy::SpotCheckFuel));
  }

  // ... then the snapshot, swapped in place so no program copy is made.
  std::swap(P, Snapshot);
  std::optional<std::string> Failure;
  {
    Interpreter Interp(Prog);
    for (size_t I = 0; I < Inputs.size() && !Failure; ++I) {
      RunResult Orig = Interp.run(Inputs[I], TxPolicy::SpotCheckFuel);
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
                                               Program &Prog,
                                               support::ThreadPool *Pool) const {
  /// One procedure's pipeline run, isolated on a private copy of the
  /// run-start program (so the interpreter spot-check never observes
  /// another job's half-applied rewrites) and merged back in procedure
  /// order below.
  struct ProcJob {
    Program Snapshot;
    std::vector<PassReport> Reports;
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
    Labeling Labels(P.size());
    bool LabelsValid = true;

    // Recomputes the labeling by replaying every analysis before \p Upto
    // (§4.1 forbids reusing labels across a rewrite). Stale labels stay
    // stale through the passes that read none and are replayed once,
    // inside the span of the next pass that reads them. A throwing
    // analysis contributes no labels, which degrades precision (fewer
    // labels mean fewer matches), never soundness.
    auto ReplayLabels = [&](const Pass &Upto) {
      support::TraceSpan Span("engine", "labels.replay");
      support::metricAdd("engine.label_replays");
      Labels.assign(P.size(), {});
      uint64_t Replayed = 0;
      for (const Pass *Prev = ToRun.data(); Prev != &Upto; ++Prev) {
        if (!Prev->IsAnalysis)
          continue;
        ++Replayed;
        try {
          runPureAnalysis(Analyses[Prev->Index], P, Registry, Labels);
        } catch (...) {
          // Labels of the failing analysis are simply absent.
        }
      }
      if (Span.enabled())
        Span.arg("analyses", Replayed);
      LabelsValid = true;
    };

    for (const Pass &Ps : ToRun) {
      const Optimization *O =
          Ps.IsAnalysis ? nullptr : &Optimizations[Ps.Index];
      PassReport Report;
      Report.PassName = O ? O->Name : Analyses[Ps.Index].Name;
      Report.ProcName = P.Name;
      support::TraceSpan PassSpan("engine", "pass");
      support::metricAdd("engine.passes");
      if (PassSpan.enabled()) {
        PassSpan.arg("pass", Report.PassName);
        PassSpan.arg("proc", P.Name);
      }
      if (Ps.ReadsLabels && !LabelsValid)
        ReplayLabels(Ps);

      // One transactional step for both kinds of pass: snapshot what the
      // pass may change (an analysis adds labels, an optimization
      // rewrites the procedure), run it, sanity-check a rewrite, and
      // restore the snapshot on any failure. The snapshot is what turns
      // "a pass misbehaved" from a corrupted pipeline into a recorded
      // failure.
      Labeling LabelsBefore;
      Procedure ProcBefore;
      if (Tx.Transactional) {
        if (O)
          ProcBefore = P;
        else
          LabelsBefore = Labels;
      }
      auto Fail = [&](ErrorKind Kind, const std::string &Detail) {
        if (Tx.Transactional) {
          if (O)
            P = std::move(ProcBefore);
          else
            Labels = std::move(LabelsBefore);
          Report.RolledBack = true;
          support::metricAdd("engine.rollbacks");
        } else {
          // Nothing was restored: a half-applied rewrite may have changed
          // the procedure under the labels.
          LabelsValid = false;
        }
        // A failed pass counts as applying nothing, so any per-site
        // remark recorded before the failure goes with its rewrite.
        Report.AppliedCount = 0;
        Report.Remarks.assign(1, {support::Remark::Kind::RK_RolledBack,
                                  Report.PassName, P.Name, -1, Detail});
        support::metricAdd("engine.pass_failures");
        Report.Err = support::Error(Kind, Detail);
      };
      try {
        // Forward analyses may feed forward optimizations (§4.1); an
        // optimization that reads no label (every backward one among
        // them) runs with no labeling, so it cannot see stale labels.
        RunStats Stats;
        if (!O)
          runPureAnalysis(Analyses[Ps.Index], P, Registry, Labels, &Stats);
        else
          Stats = runOptimization(*O, P, Registry,
                                  Ps.ReadsLabels ? &Labels : nullptr);
        Report.DeltaSize = Stats.DeltaSize;
        Report.FixpointIters = Stats.FixpointIters;
        if (Tx.Transactional && Stats.AppliedCount > 0)
          if (auto Violation =
                  postPassSanityCheck(Job.Snapshot, P, ProcBefore))
            throw support::PassError(ErrorKind::EK_RewriteConflict,
                                     *Violation);
        Report.AppliedCount = Stats.AppliedCount;
        for (int Site : Stats.AppliedSites)
          Report.Remarks.push_back({support::Remark::Kind::RK_Passed,
                                    Report.PassName, P.Name, Site,
                                    "chosen and applied"});
        for (int Site : Stats.MissedSites)
          Report.Remarks.push_back(
              {support::Remark::Kind::RK_Missed, Report.PassName, P.Name,
               Site,
               "legal site not rewritten (choose declined or lost "
               "the per-index tie)"});
        if (Stats.AppliedCount > 0) {
          support::metricAdd("engine.rewrites", Stats.AppliedCount);
          LabelsValid = false; // statements changed: labels are stale
        }
        if (PassSpan.enabled()) {
          PassSpan.arg("delta", static_cast<uint64_t>(Stats.DeltaSize));
          PassSpan.arg("applied",
                       static_cast<uint64_t>(Stats.AppliedCount));
        }
      } catch (const support::PassError &E) {
        Fail(E.kind(), E.what());
      } catch (const std::exception &E) {
        Fail(ErrorKind::EK_PassPanic, E.what());
      } catch (...) {
        Fail(ErrorKind::EK_PassPanic,
             O ? "unknown exception escaped the pass"
               : "unknown exception escaped the analysis");
      }
      Job.Reports.push_back(std::move(Report));
    }
  };

  // Without a pool, procedures run in index order on this thread, as on
  // a width-1 pool. Either way the merge below is the only writer of
  // the caller's program.
  if (Pool)
    Pool->parallelFor(Jobs.size(), RunProc);
  else
    for (size_t PI = 0; PI < Jobs.size(); ++PI)
      RunProc(PI);

  // Deterministic merge in procedure order: bodies and reports never
  // depend on which job finished first.
  std::vector<PassReport> Reports;
  for (size_t PI = 0; PI < Prog.Procs.size(); ++PI) {
    Prog.Procs[PI] = std::move(Jobs[PI].Snapshot.Procs[PI]);
    for (PassReport &R : Jobs[PI].Reports)
      Reports.push_back(std::move(R));
  }
  return Reports;
}

std::vector<PassReport> PassManager::run(Program &Prog,
                                         support::ThreadPool *Pool) const {
  return runPasses(Pipeline, Prog, Pool);
}

unsigned PassManager::runToFixpoint(Program &Prog, support::ThreadPool *Pool,
                                    unsigned MaxRounds) const {
  // A rolled-back pass reports zero applications, so a persistently
  // failing pass cannot keep the loop spinning.
  unsigned ActiveRounds = 0;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    unsigned Applied = 0;
    for (const PassReport &R : run(Prog, Pool))
      Applied += R.AppliedCount;
    if (Applied == 0)
      break;
    ++ActiveRounds;
  }
  return ActiveRounds;
}

std::vector<PassReport> PassManager::runOne(const std::string &Name,
                                            Program &Prog) const {
  return runSelected({Name}, Prog);
}

std::vector<PassReport>
PassManager::runSelected(const std::vector<std::string> &Names, Program &Prog,
                         support::ThreadPool *Pool) const {
  std::vector<Pass> ToRun;
  for (const Pass &Ps : Pipeline) {
    const std::string &PName =
        Ps.IsAnalysis ? Analyses[Ps.Index].Name : Optimizations[Ps.Index].Name;
    if (std::find(Names.begin(), Names.end(), PName) != Names.end())
      ToRun.push_back(Ps);
  }
  return runPasses(ToRun, Prog, Pool);
}
