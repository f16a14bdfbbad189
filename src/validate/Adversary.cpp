//===- Adversary.cpp - The fuzzer as adversary of the validator -----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "validate/Adversary.h"

#include "fuzz/Reducer.h"
#include "ir/Generator.h"
#include "ir/Printer.h"
#include "support/Telemetry.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cobalt;
using namespace cobalt::validate;

const char *validate::adversaryClassName(AdversaryClass C) {
  switch (C) {
  case AdversaryClass::AC_Agree:
    return "agree";
  case AdversaryClass::AC_Unproven:
    return "unproven";
  case AdversaryClass::AC_Caught:
    return "caught";
  case AdversaryClass::AC_MissedUnknown:
    return "missed-unknown";
  case AdversaryClass::AC_ExtendedCatch:
    return "extended-catch";
  case AdversaryClass::AC_Blessed:
    return "BLESSED-MISCOMPILE";
  }
  return "unproven";
}

namespace {

AdversaryClass classify(bool Diverged, Verdict V) {
  if (Diverged) {
    switch (V) {
    case Verdict::V_Equivalent:
      return AdversaryClass::AC_Blessed;
    case Verdict::V_Inequivalent:
      return AdversaryClass::AC_Caught;
    case Verdict::V_Unknown:
      return AdversaryClass::AC_MissedUnknown;
    }
  }
  switch (V) {
  case Verdict::V_Equivalent:
    return AdversaryClass::AC_Agree;
  case Verdict::V_Inequivalent:
    return AdversaryClass::AC_ExtendedCatch;
  case Verdict::V_Unknown:
    return AdversaryClass::AC_Unproven;
  }
  return AdversaryClass::AC_Unproven;
}

} // namespace

AdversarySummary
validate::runAdversary(const std::vector<fuzz::FuzzTarget> &Targets,
                       const AdversaryOptions &Options,
                       const ValidateFn &Validate) {
  support::TraceSpan Span("validate", "runAdversary");
  AdversarySummary Sum;
  Sum.Seed = Options.Seed;
  Sum.RunsRequested = Options.Runs;

  // Ground-truth oracle: the validator's *base* inputs only, so a
  // divergence found solely through the validator's mined inputs is
  // visible as an extended catch rather than silently agreeing.
  fuzz::OracleOptions Oracle;
  Oracle.Inputs = Options.Validation.Inputs;
  Oracle.Fuel = Options.Validation.Fuel;
  Oracle.FuelOptimized = Options.Validation.FuelCandidate;

  std::map<std::string, unsigned> RetainedPerRule;
  for (unsigned I = 0; I < Options.Runs; ++I) {
    uint64_t RunSeed = Options.Seed + I;
    ir::Program Prog =
        ir::generateProgram(fuzz::deriveGenOptions(I), RunSeed);
    ++Sum.RunsExecuted;

    for (const fuzz::FuzzTarget &T : Targets) {
      fuzz::ApplyOutcome A = fuzz::applyRule(T.Opt, T.Analyses, Prog);
      if (A.Applied == 0)
        continue;
      ++Sum.PairsValidated;
      AdversaryRuleStats &RS = Sum.PerRule[T.Opt.Name];
      ++RS.Applications;

      std::optional<fuzz::Divergence> D =
          fuzz::diffPrograms(Prog, A.Prog, Oracle);
      ValidationReport R = Validate(Prog, A.Prog, Options.Validation);

      AdversaryClass C = classify(D.has_value(), R.V);
      switch (C) {
      case AdversaryClass::AC_Agree:
        ++Sum.Agree;
        break;
      case AdversaryClass::AC_Unproven:
        ++Sum.Unproven;
        break;
      case AdversaryClass::AC_Caught:
        ++Sum.Caught;
        ++RS.Caught;
        break;
      case AdversaryClass::AC_MissedUnknown:
        ++Sum.MissedUnknown;
        ++RS.MissedUnknown;
        break;
      case AdversaryClass::AC_ExtendedCatch:
        ++Sum.ExtendedCatch;
        ++RS.ExtendedCatch;
        break;
      case AdversaryClass::AC_Blessed:
        ++Sum.Blessed;
        ++RS.Blessed;
        support::metricAdd("validate.adversary.blessed");
        break;
      }
      if (D) {
        ++Sum.Diverged;
        ++RS.Diverged;
      }

      // Retain (and optionally minimize) divergent pairs for the replay
      // corpus — and every blessed pair unconditionally, since each one
      // is a bug report against the validator itself.
      bool Retain = C == AdversaryClass::AC_Blessed ||
                    ((C == AdversaryClass::AC_Caught ||
                      C == AdversaryClass::AC_MissedUnknown) &&
                     RetainedPerRule[T.Opt.Name] < Options.MaxPairsPerRule);
      if (!Retain)
        continue;
      ++RetainedPerRule[T.Opt.Name];

      AdversaryPair P;
      P.Rule = T.Opt.Name;
      P.Seed = RunSeed;
      P.Original = Prog;
      P.Candidate = A.Prog;
      P.V = R.V;
      P.Class = C;
      if (D)
        P.Witness = D->str();

      if (Options.Minimize && D) {
        // Shrink the *original*; the candidate is recomputed by
        // re-applying the rule, so the reduced pair is still an honest
        // (input, miscompiled input) specimen.
        fuzz::FailurePredicate StillFails =
            [&T, &Oracle](const ir::Program &Q) {
              fuzz::ApplyOutcome QA = fuzz::applyRule(T.Opt, T.Analyses, Q);
              return QA.Applied > 0 &&
                     fuzz::diffPrograms(Q, QA.Prog, Oracle).has_value();
            };
        fuzz::ReduceResult Red = fuzz::reduceProgram(Prog, StillFails);
        P.StatementsBefore = Red.StatementsBefore;
        P.StatementsAfter = Red.StatementsAfter;
        P.ReduceRounds = Red.Rounds;
        P.Original = Red.Prog;
        P.Candidate = fuzz::applyRule(T.Opt, T.Analyses, Red.Prog).Prog;
        P.Witness = fuzz::diffPrograms(P.Original, P.Candidate, Oracle)->str();
        // Re-validate the reduced pair: its verdict is what the replay
        // corpus asserts, and a reduction that flips the verdict to
        // Equivalent is itself a blessed miscompile.
        ValidationReport RR =
            Validate(P.Original, P.Candidate, Options.Validation);
        P.V = RR.V;
        P.Class = classify(true, RR.V);
        if (P.Class == AdversaryClass::AC_Blessed && C != P.Class) {
          ++Sum.Blessed;
          ++RS.Blessed;
          support::metricAdd("validate.adversary.blessed");
        }
      }
      Sum.Pairs.push_back(std::move(P));
    }
  }
  if (Span.enabled()) {
    Span.arg("pairs", Sum.PairsValidated);
    Span.arg("blessed", static_cast<uint64_t>(Sum.Blessed));
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Corpus persistence.
//===----------------------------------------------------------------------===//

std::optional<std::string>
validate::saveValidationCorpus(const std::string &Dir,
                               const std::vector<AdversaryPair> &Pairs) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return "cannot create corpus dir " + Dir + ": " + EC.message();

  std::ofstream Manifest(Dir + "/manifest.txt");
  if (!Manifest)
    return "cannot write " + Dir + "/manifest.txt";
  Manifest << "# cobalt validation corpus manifest v1\n";

  unsigned Ordinal = 0;
  for (const AdversaryPair &P : Pairs) {
    std::string Stem = P.Rule + "_s" + std::to_string(P.Seed);
    for (char &C : Stem)
      if (C == '+' || C == '.')
        C = '_';
    Stem += "_" + std::to_string(Ordinal++);
    for (const auto &[Suffix, Prog] :
         {std::pair<const char *, const ir::Program *>{".orig.il",
                                                       &P.Original},
          {".cand.il", &P.Candidate}}) {
      std::ofstream Out(Dir + "/" + Stem + Suffix);
      if (!Out)
        return "cannot write " + Dir + "/" + Stem + Suffix;
      Out << ir::toString(*Prog);
    }
    Manifest << "orig=" << Stem << ".orig.il cand=" << Stem
             << ".cand.il rule=" << P.Rule << " seed=" << P.Seed
             << " verdict=" << verdictName(P.V)
             << " class=" << adversaryClassName(P.Class) << "\n";
  }
  return std::nullopt;
}

std::optional<std::vector<ValidationCorpusEntry>>
validate::loadValidationCorpusManifest(const std::string &Dir,
                                       std::string &Err) {
  std::ifstream In(Dir + "/manifest.txt");
  if (!In) {
    Err = "cannot read " + Dir + "/manifest.txt";
    return std::nullopt;
  }
  std::vector<ValidationCorpusEntry> Entries;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    ValidationCorpusEntry E;
    std::istringstream Fields(Line);
    std::string Field;
    while (Fields >> Field) {
      size_t Eq = Field.find('=');
      if (Eq == std::string::npos) {
        Err = Dir + "/manifest.txt:" + std::to_string(LineNo) +
              ": malformed field '" + Field + "'";
        return std::nullopt;
      }
      std::string Key = Field.substr(0, Eq), Val = Field.substr(Eq + 1);
      if (Key == "orig")
        E.Original = Val;
      else if (Key == "cand")
        E.Candidate = Val;
      else if (Key == "rule")
        E.Rule = Val;
      else if (Key == "seed")
        E.Seed = std::stoull(Val);
      else if (Key == "verdict")
        E.Verdict = Val;
      else if (Key == "class")
        E.Class = Val;
      // Unknown keys: ignored for forward compatibility.
    }
    if (E.Original.empty() || E.Candidate.empty() || E.Rule.empty()) {
      Err = Dir + "/manifest.txt:" + std::to_string(LineNo) +
            ": record missing orig=/cand=/rule=";
      return std::nullopt;
    }
    Entries.push_back(std::move(E));
  }
  return Entries;
}
