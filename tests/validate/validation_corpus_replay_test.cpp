//===- validation_corpus_replay_test.cpp - Replay the validation corpus ---===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every entry of tests/validate/corpus is a minimized miscompiled pair
/// a past `cobalt-fuzz --validate --minimize` campaign retained. Each
/// replays as its own registered test pinning the safety contract:
///
///   1. the differential interpreter still observes the recorded
///      divergence (the pair is a genuine miscompile), and
///   2. the validator still refuses to bless it — `caught` entries must
///      re-verdict Inequivalent, and no divergent entry may ever
///      re-verdict Equivalent (that would be a validator-blessed
///      miscompile, the headline failure).
///
//===----------------------------------------------------------------------===//

#include "validate/Adversary.h"
#include "validate/Validate.h"

#include "fuzz/Oracle.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace cobalt;
using namespace cobalt::validate;

namespace {

std::string corpusDir() { return COBALT_VALIDATE_CORPUS_DIR; }

ir::Program loadProgram(const std::string &RelPath) {
  std::ifstream In(corpusDir() + "/" + RelPath);
  EXPECT_TRUE(In) << "cannot open corpus file " << RelPath;
  std::ostringstream Text;
  Text << In.rdbuf();
  return ir::parseProgramOrDie(Text.str());
}

void replay(const ValidationCorpusEntry &E) {
  ir::Program Orig = loadProgram(E.Original);
  ir::Program Cand = loadProgram(E.Candidate);

  // Ground truth first: the stored pair must still be a miscompile.
  std::optional<fuzz::Divergence> Div = fuzz::diffPrograms(Orig, Cand);
  if (E.Class == "caught" || E.Class == "missed-unknown") {
    ASSERT_TRUE(Div) << E.Rule
                     << ": minimized pair no longer diverges:\n"
                     << ir::toString(Cand);
  }

  LabelRegistry Registry;
  checker::SoundnessChecker Checker(Registry, {});
  // Corpus pairs are minimized; keep unprovable obligations cheap.
  checker::ProverPolicy Policy;
  Policy.InitialTimeoutMs = 500;
  Policy.TimeoutMs = 2000;
  Policy.Retries = 1;
  Checker.setPolicy(Policy);

  ValidationReport R = validatePrograms(Orig, Cand, Checker);
  if (Div) {
    EXPECT_NE(R.V, Verdict::V_Equivalent)
        << E.Rule << ": validator-blessed miscompile\n"
        << R.str();
  }
  if (E.Class == "caught" || E.Class == "extended-catch") {
    EXPECT_EQ(R.V, Verdict::V_Inequivalent)
        << E.Rule << " regressed from " << E.Class << ":\n"
        << R.str();
  }
}

class ValidationReplayFixture : public ::testing::Test {
public:
  explicit ValidationReplayFixture(ValidationCorpusEntry E)
      : E(std::move(E)) {}
  void TestBody() override { replay(E); }

private:
  ValidationCorpusEntry E;
};

/// One registered test per manifest record, named after the pair stem so
/// `ctest -R ValidationReplay` pinpoints the regressing reproducer.
const bool Registered = [] {
  std::string Err;
  std::optional<std::vector<ValidationCorpusEntry>> Entries =
      loadValidationCorpusManifest(corpusDir(), Err);
  if (!Entries || Entries->empty()) {
    std::string Message =
        Entries ? std::string("validation corpus manifest is empty") : Err;
    ::testing::RegisterTest(
        "ValidationReplay", "ManifestLoads", nullptr, nullptr, __FILE__,
        __LINE__, [Message]() -> ::testing::Test * {
          class Fail : public ::testing::Test {
          public:
            explicit Fail(std::string M) : M(std::move(M)) {}
            void TestBody() override { FAIL() << M; }

          private:
            std::string M;
          };
          return new Fail(Message);
        });
    return false;
  }
  for (const ValidationCorpusEntry &E : *Entries) {
    std::string Name = E.Original.substr(0, E.Original.rfind(".orig.il"));
    ::testing::RegisterTest(
        "ValidationReplay", Name.c_str(), nullptr, nullptr, __FILE__,
        __LINE__,
        [E]() -> ::testing::Test * {
          return new ValidationReplayFixture(E);
        });
  }
  return true;
}();

TEST(ValidationCorpus, ManifestNamesOnlyDivergentClasses) {
  std::string Err;
  std::optional<std::vector<ValidationCorpusEntry>> Entries =
      loadValidationCorpusManifest(corpusDir(), Err);
  ASSERT_TRUE(Entries) << Err;
  EXPECT_GE(Entries->size(), 5u);
  for (const ValidationCorpusEntry &E : *Entries) {
    // A committed blessed pair would mean a released validator bug;
    // the corpus must never contain one.
    EXPECT_NE(E.Class, "BLESSED-MISCOMPILE") << E.Original;
    EXPECT_NE(E.Verdict, "Equivalent") << E.Original;
  }
}

} // namespace
