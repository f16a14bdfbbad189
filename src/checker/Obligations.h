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
/// one retry/budget/containment/caching path. A set's obligations are
/// built and proven in order in one Z3 world, an ObligationBuilder, which
/// owns the escalation schedule, the push/pop proof and counterexample
/// solver setup, and the fault-injection points.
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

/// One Z3 world and the obligation being built in it. The world is a
/// context, the IL sorts and datatypes (Enc), and a proof solver whose
/// base level holds the quantified operator axioms. SoundnessChecker
/// builds one per ObligationSet and proves the set's obligations in it in
/// order: reset() clears the per-obligation tables, so no obligation sees
/// another's constants, and check() asserts the obligation between push
/// and pop. A world serves the next obligation only when the last one was
/// proven on its first attempt (reusable()): a query cut short by the
/// clock leaves solver state that differs run to run.
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

  /// Starts the next obligation in this world.
  void reset() {
    Enc.resetObligation();
    PE.resetObligation();
    Env.clear();
    Hyps.clear();
    WfStates.clear();
  }

  /// Whether the world may serve another obligation: the last check()
  /// proved its obligation on the first attempt.
  bool reusable() const { return Reusable; }

  /// The world's proof solver, built on first use: the operator axioms
  /// at base level, obligations only ever above it.
  z3::solver &prover() {
    if (!Proof) {
      Proof = std::make_unique<z3::solver>(C);
      ProofTimeoutMs = 0;
      Enc.addOperatorAxioms(*Proof);
    }
    return *Proof;
  }

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

  /// Discharges hypotheses ⊢ goal. Unsat of hypotheses ∧ ¬goal, asserted
  /// between push and pop on the world's proof solver, proves the
  /// obligation. On unknown, a second *counterexample search* pass
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
    Reusable = false;
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

      CR = prove(Goal, AttemptMs, Policy, R, Reason);
      if (CR == z3::unknown) {
        // The world retires after this obligation, so its proof solver
        // goes now, before the search builds its own.
        Proof.reset();
        CR = searchCounterexample(Goal, AttemptMs, Policy, R);
      }
      if (CR != z3::unknown)
        break;
    }
    R.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

    if (CR == z3::unsat) {
      R.St = ObligationResult::Status::OS_Proven;
      Reusable = R.Attempts == 1;
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
  /// Destroyed before the context (members go in reverse order).
  std::unique_ptr<z3::solver> Proof;
  /// The attempt timeout Proof was last given (0: none yet). Setting
  /// solver parameters costs more than most queries they govern, so an
  /// attempt sets them only when its timeout differs.
  unsigned ProofTimeoutMs = 0;
  bool Reusable = true;

  /// Z3's "rlimit count": the context's deterministic spend so far, as an
  /// unsigned that a long-lived world may wrap; unsigned subtraction of
  /// two readings still gives the spend between them.
  static unsigned rlimitCount(z3::solver &S) {
    z3::stats Stats = S.statistics();
    for (unsigned I = 0; I < Stats.size(); ++I)
      if (Stats.is_uint(I) && Stats.key(I) == "rlimit count")
        return Stats.uint_value(I);
    return 0;
  }

  static void setLimits(z3::solver &S, unsigned TimeoutMs,
                        const ProverPolicy &Policy) {
    z3::params P(S.ctx());
    P.set("timeout", TimeoutMs);
    if (Policy.RLimit != 0)
      P.set("rlimit", static_cast<unsigned>(Policy.RLimit));
    S.set(P);
  }

  /// Runs \p S and adds the query's rlimit spend to \p R.
  static z3::check_result run(z3::solver &S, ObligationResult &R) {
    unsigned Before = rlimitCount(S);
    z3::check_result CR = S.check();
    R.RlimitSpent += static_cast<unsigned>(rlimitCount(S) - Before);
    return CR;
  }

  /// Proof mode: the obligation between push and pop on the world's proof
  /// solver, against the full quantified axioms.
  z3::check_result prove(const z3::expr &Goal, unsigned TimeoutMs,
                         const ProverPolicy &Policy, ObligationResult &R,
                         std::string &ReasonUnknown) {
    z3::solver &S = prover();
    if (TimeoutMs != ProofTimeoutMs) {
      setLimits(S, TimeoutMs, Policy);
      ProofTimeoutMs = TimeoutMs;
    }
    S.push();
    for (const z3::expr &H : Hyps)
      S.add(H);
    for (const ZState &St : WfStates)
      S.add(Enc.wf(St));
    S.add(!Goal);
    Enc.addDistinctnessAxioms(S);
    z3::check_result CR = run(S, R);
    if (CR == z3::unknown)
      ReasonUnknown = S.reason_unknown();
    else if (CR == z3::sat)
      R.Counterexample = describeModel(S.get_model());
    S.pop();
    return CR;
  }

  /// Counterexample search: a fresh solver in the world's context with
  /// quantifier-free hypotheses only. The quantified operator semantics
  /// would block model construction; models may therefore under-constrain
  /// operator symbols, which is fine for a *diagnostic* counterexample
  /// context (rejection was already decided by the proof pass coming back
  /// non-unsat). A closed-domain unsat does not prove the obligation (the
  /// closure removed models), so only a sat result counts.
  z3::check_result searchCounterexample(const z3::expr &Goal,
                                        unsigned TimeoutMs,
                                        const ProverPolicy &Policy,
                                        ObligationResult &R) {
    z3::solver S(C);
    setLimits(S, TimeoutMs, Policy);
    for (const z3::expr &H : Hyps)
      S.add(H);
    for (const ZState &St : WfStates)
      S.add(Enc.wfBounded(St));
    S.add(!Goal);
    Enc.addDistinctnessAxioms(S);
    for (const z3::expr &E : Enc.domainClosure())
      S.add(E);
    if (run(S, R) != z3::sat)
      return z3::unknown;
    R.Counterexample = describeModel(S.get_model());
    return z3::sat;
  }

  /// The counterexample context (§7): a state of the world violating the
  /// obligation. Prints pattern variables, statement parts, and state
  /// components; skips solver-internal constants.
  static std::string describeModel(const z3::model &M) {
    std::ostringstream Out;
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
    return Out.str();
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
