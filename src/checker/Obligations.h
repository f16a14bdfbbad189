//===- Obligations.h - Obligation construction and discharge ----*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker's unit of work and how one obligation is built. An
/// ObligationSet is the named obligations that together prove one
/// property; SoundnessChecker::lower builds the set of an optimization or
/// a pure analysis (the paper's F/B obligations), the translation
/// validator (src/validate) builds one per procedure pair, and
/// SoundnessChecker::checkObligationSets discharges every set through the
/// one retry/budget/containment/caching path. Each obligation is built in
/// a fresh Z3 context by an ObligationBuilder, which owns the escalation
/// schedule, the two-pass proof/counterexample solver setup, and the
/// fault-injection points.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_OBLIGATIONS_H
#define COBALT_CHECKER_OBLIGATIONS_H

#include "checker/Encoder.h"
#include "checker/PatternEncoder.h"
#include "checker/Soundness.h"
#include "support/FaultInjection.h"

#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace cobalt {
namespace checker {

/// One obligation under construction: a fresh Z3 context + encoders +
/// collected hypotheses. The fresh-context-per-obligation design is what
/// makes obligations independently schedulable: builders share nothing,
/// so each one can run on any thread of the pool.
struct ObligationBuilder {
  z3::context C;
  Encoder Enc;
  PatternEncoder PE;
  MetaEnv Env;
  std::vector<z3::expr> Hyps;
  std::vector<ZState> WfStates;

  ObligationBuilder(const LabelRegistry &Registry,
                    const AnalysisTable &AnalysesByLabel)
      : Enc(C), PE(Enc, Registry, AnalysesByLabel) {}

  void hyp(const z3::expr &E) { Hyps.push_back(E); }

  /// Registers a well-formedness hypothesis; materialized per solver
  /// mode (quantified for proofs, bounded for counterexample search).
  void wfHyp(const ZState &S) { WfStates.push_back(S); }
  void hypAll(const std::vector<z3::expr> &Es) {
    for (const z3::expr &E : Es)
      Hyps.push_back(E);
  }

  /// Asserts a step's equations: binds the (symbolic) post state to a
  /// named fresh state so models are readable, and keeps the contract
  /// constraints.
  ZState stepHyp(const ZState &Pre, const z3::expr &St,
                 const std::string &Prefix) {
    ZStep Step = Enc.encodeStep(Pre, St, Prefix);
    hyp(Step.Defined);
    hypAll(Step.Constraints);
    ZState Post = Enc.freshState(Prefix + "post");
    hyp(Post.Ix == Step.Post.Ix);
    hyp(Post.Env == Step.Post.Env);
    hyp(Post.Scope == Step.Post.Scope);
    hyp(Post.Sto == Step.Post.Sto);
    hyp(Post.Alloc == Step.Post.Alloc);
    return Post;
  }

  /// Classifies a Z3 reason_unknown() string into the error taxonomy.
  static support::ErrorKind classifyUnknown(const std::string &Reason) {
    if (Reason.find("timeout") != std::string::npos ||
        Reason.find("canceled") != std::string::npos ||
        Reason.find("cancelled") != std::string::npos)
      return support::ErrorKind::EK_ProverTimeout;
    if (Reason.find("resource") != std::string::npos ||
        Reason.find("memory") != std::string::npos ||
        Reason.find("memout") != std::string::npos ||
        Reason.find("rlimit") != std::string::npos)
      return support::ErrorKind::EK_ProverResourceOut;
    return support::ErrorKind::EK_ProverUnknown;
  }

  /// Discharges hypotheses ⊢ goal. Unsat of hypotheses ∧ ¬goal proves
  /// the obligation. On unknown, a second *counterexample search* pass
  /// closes the uninterpreted domains over the finitely many named
  /// constants — any model found under the extra constraints is still a
  /// genuine counterexample (we only shrank the candidate space), and the
  /// closure is what lets Z3's model builder get past the quantified
  /// well-formedness hypotheses.
  ///
  /// Attempts escalate per ProverPolicy (e.g. 2 s → 10 s → full budget):
  /// most obligations are cheap, so a failed fast attempt costs little
  /// and a successful one saves the full timeout. \p RemainingMs bounds
  /// the whole obligation when the caller has a wall-clock budget
  /// (negative = unlimited).
  ObligationResult check(const std::string &Name, const z3::expr &Goal,
                         const ProverPolicy &Policy, int64_t RemainingMs) {
    ObligationResult R;
    R.Name = Name;
    auto Start = std::chrono::steady_clock::now();
    auto ElapsedMs = [&Start]() {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - Start)
          .count();
    };

    // Escalating timeout schedule: each retry multiplies the timeout by
    // EscalationFactor; the last attempt gets the full budget.
    constexpr unsigned EscalationFactor = 5;
    std::vector<unsigned> Schedule;
    uint64_t T = std::max(1u, std::min(Policy.InitialTimeoutMs,
                                       Policy.TimeoutMs));
    for (unsigned I = 0; I < Policy.Retries; ++I) {
      Schedule.push_back(static_cast<unsigned>(T));
      T *= EscalationFactor;
      if (T >= Policy.TimeoutMs)
        break;
    }
    Schedule.push_back(Policy.TimeoutMs);

    z3::check_result CR = z3::unknown;
    std::string Reason;
    for (size_t I = 0; I < Schedule.size(); ++I) {
      unsigned AttemptMs = Schedule[I];
      if (RemainingMs >= 0) {
        int64_t Left = RemainingMs - ElapsedMs();
        if (Left <= 0) {
          Reason = "total budget exhausted";
          break;
        }
        AttemptMs = static_cast<unsigned>(
            std::min<int64_t>(AttemptMs, Left));
      }
      ++R.Attempts;

      // Latency model for scheduler benches: a `checker.prover_stall_ms=V`
      // payload makes each attempt cost V ms of wall clock before the
      // solver runs, the way a remote or batch prover would.
      if (long StallMs =
              support::faultPayload(support::faults::CheckerProverStallMs);
          StallMs > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(StallMs));

      // Fault-injection points: simulate a prover giving up without
      // spending real solver time. Checked per attempt so @N rules can
      // exercise the retry path deterministically.
      if (support::faultFires(support::faults::CheckerForceTimeout)) {
        CR = z3::unknown;
        Reason = "timeout (injected)";
        continue;
      }
      if (support::faultFires(support::faults::CheckerForceUnknown)) {
        CR = z3::unknown;
        Reason = "incomplete quantifiers (injected)";
        continue;
      }

      CR = runSolver(Goal, AttemptMs, Policy, /*CexMode=*/false, R,
                     &Reason);
      if (CR == z3::unknown)
        CR = runSolver(Goal, AttemptMs, Policy, /*CexMode=*/true, R,
                       nullptr);
      if (CR != z3::unknown)
        break;
    }
    R.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

    if (CR == z3::unsat) {
      R.St = ObligationResult::Status::OS_Proven;
    } else if (CR == z3::sat) {
      R.St = ObligationResult::Status::OS_Failed;
    } else {
      // Unknown is *not* a counterexample: report it distinctly, with a
      // machine-dispatchable kind and the prover's reason.
      R.St = ObligationResult::Status::OS_Unknown;
      R.Counterexample.clear();
      std::string Why =
          Reason.empty() ? "solver returned unknown" : Reason;
      support::ErrorKind Kind = classifyUnknown(Why); // before Why moves
      R.Err = support::Error(Kind, std::move(Why));
    }
    return R;
  }

private:
  z3::check_result runSolver(const z3::expr &Goal, unsigned TimeoutMs,
                             const ProverPolicy &Policy, bool CexMode,
                             ObligationResult &R,
                             std::string *ReasonUnknown) {
    z3::solver S(C);
    z3::params P(C);
    P.set("timeout", TimeoutMs);
    if (Policy.RLimit != 0)
      P.set("rlimit", static_cast<unsigned>(Policy.RLimit));
    S.set(P);
    for (const z3::expr &H : Hyps)
      S.add(H);
    for (const ZState &St : WfStates)
      S.add(CexMode ? Enc.wfBounded(St) : Enc.wf(St));
    S.add(!Goal);
    if (CexMode) {
      // Counterexample search: quantifier-free hypotheses only. The
      // quantified operator semantics would block model construction;
      // models may therefore under-constrain operator symbols, which is
      // fine for a *diagnostic* counterexample context (rejection was
      // already decided by the proof pass coming back non-unsat).
      Enc.addDistinctnessAxioms(S);
      for (const z3::expr &E : Enc.domainClosure())
        S.add(E);
    } else {
      Enc.addBackgroundAxioms(S);
    }

    z3::check_result CR = S.check();
    // Z3's "rlimit count" is the deterministic spend of this query;
    // accumulate it across attempts and modes as the obligation's cost.
    z3::stats Stats = S.statistics();
    for (unsigned I = 0; I < Stats.size(); ++I)
      if (Stats.is_uint(I) && Stats.key(I) == "rlimit count")
        R.RlimitSpent += Stats.uint_value(I);
    if (CR == z3::unknown && ReasonUnknown)
      *ReasonUnknown = S.reason_unknown();
    // A closed-domain unsat does not prove the obligation (the closure
    // removed models); only report sat results from this mode.
    if (CexMode && CR == z3::unsat)
      return z3::unknown;
    if (CR == z3::sat) {
      // The counterexample context (§7): a state of the world violating
      // the obligation. Print pattern variables, statement parts, and
      // state components; skip solver-internal constants.
      std::ostringstream Out;
      z3::model M = S.get_model();
      unsigned Printed = 0;
      for (unsigned I = 0; I < M.num_consts() && Printed < 16; ++I) {
        z3::func_decl D = M.get_const_decl(I);
        std::string Name = D.name().str();
        if (Name.rfind("op!", 0) == 0 || Name.rfind("dc", 0) == 0 ||
            Name.rfind("lbl!", 0) == 0 || Name.rfind("wild", 0) == 0)
          continue;
        Out << Name << " = " << M.get_const_interp(D).to_string() << "; ";
        ++Printed;
      }
      R.Counterexample = Out.str();
    }
    return CR;
  }
};

/// One named goal of an ObligationSet. The builder closure runs on
/// whichever thread (or forked prover worker) discharges the obligation;
/// anything it captures must be immutable and must outlive the
/// checkObligationSets call.
struct ObligationSpec {
  std::string Name;
  std::function<z3::expr(ObligationBuilder &)> Build;
};

/// The obligations that together prove one property: a rule or analysis
/// is sound (SoundnessChecker::lower), or a procedure pair simulates (the
/// validator). The report of its check is a CheckReport named Name with
/// one result per obligation, in order.
struct ObligationSet {
  /// Report name (CheckReport::Name of the result).
  std::string Name;
  /// Structural fingerprint of whatever the obligations encode. Keys the
  /// verdict cache (when Cacheable) and, with each obligation's name, the
  /// fault-injection decisions, so it must be stable across runs and
  /// distinct across distinct inputs.
  uint64_t Fingerprint = 0;
  /// Whether the check claims the verdict in the verdict store: serves it
  /// from there, or proves and stores a definitive one. Only set this
  /// when Fingerprint covers *everything* the obligations depend on, and
  /// when no caller has claimed the fingerprint already.
  bool Cacheable = false;
  /// Analyses the verdict is conditional on (CheckReport::AssumedAnalyses).
  std::vector<std::string> AssumedAnalyses;
  /// The analysis labels whose witnesses the obligations may assume; null
  /// means every analysis the discharging checker was built with.
  std::shared_ptr<const AnalysisTable> Labels;
  std::vector<ObligationSpec> Obligations;
};

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_OBLIGATIONS_H
