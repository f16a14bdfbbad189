//===- verdict_store_test.cpp - The one verdict memo ----------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict store's single-flight contract (DESIGN.md §8): checkers
/// sharing a store prove a definition once and the joiner receives the
/// leader's report; an abandoned lead hands waiters its exception and is
/// forgotten; an Unproven verdict reaches current waiters but is neither
/// kept nor written to disk; a disk entry is decoded once and then
/// served from memory.
///
//===----------------------------------------------------------------------===//

#include "checker/VerdictStore.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

using namespace cobalt;
using namespace cobalt::checker;
namespace fs = std::filesystem;

namespace {

LabelRegistry makeRegistry() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  return Registry;
}

/// A fresh, empty scratch directory under the test temp root.
fs::path scratchDir(const std::string &Name) {
  fs::path Dir = fs::path(::testing::TempDir()) / ("cobalt_store_" + Name);
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

size_t countFiles(const fs::path &Dir) {
  size_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    (void)E;
    ++N;
  }
  return N;
}

CheckReport reportWith(CheckReport::Verdict V) {
  CheckReport R;
  R.Name = "rule";
  R.V = V;
  R.Sound = V == CheckReport::Verdict::V_Sound;
  ObligationResult Ob;
  Ob.Name = "F1";
  Ob.St = V == CheckReport::Verdict::V_Sound
              ? ObligationResult::Status::OS_Proven
              : ObligationResult::Status::OS_Unknown;
  R.Obligations.push_back(Ob);
  return R;
}

TEST(VerdictStoreTest, SharingCheckersProveOnceAndTheJoinerIsServed) {
  LabelRegistry Registry = makeRegistry();
  auto Store = std::make_shared<VerdictStore>();
  SoundnessChecker A(Registry, opts::allAnalyses());
  SoundnessChecker B(Registry, opts::allAnalyses());
  A.setSharedCache(Store);
  B.setSharedCache(Store);

  support::Telemetry Telem;
  support::TelemetryScope Scope(&Telem);
  // The stall keeps the first prover in flight long enough for the other
  // checker to claim the same fingerprint and join it.
  support::ScopedFaultPlan Plan(
      std::string(support::faults::CheckerProverStallMs) + "=20");
  CheckReport RA, RB;
  std::thread TA([&] { RA = A.checkOptimization(opts::constProp()); });
  std::thread TB([&] { RB = B.checkOptimization(opts::constProp()); });
  TA.join();
  TB.join();

  ASSERT_TRUE(RA.Sound) << RA.str();
  EXPECT_EQ(Telem.Metrics.counter("checker.obligations"),
            RA.Obligations.size());
  EXPECT_EQ(serializeCheckReport(RA), serializeCheckReport(RB));
  // Exactly one checker proved; the other was served the leader's report.
  EXPECT_NE(RA.CacheHit, RB.CacheHit);
  EXPECT_EQ(A.cacheHits() + B.cacheHits(), 1u);
}

TEST(VerdictStoreTest, AbandonedLeadRethrowsToWaitersAndIsForgotten) {
  VerdictStore Store;
  VerdictStore::Claim Lead = Store.claim(1);
  ASSERT_TRUE(Lead.leads());
  VerdictStore::Claim Waiter = Store.claim(1);
  ASSERT_FALSE(Waiter.leads());

  Store.abandon(Lead, std::make_exception_ptr(std::runtime_error("died")));
  EXPECT_FALSE(Lead.leads());
  EXPECT_THROW(Waiter.get(), std::runtime_error);
  EXPECT_TRUE(Store.claim(1).leads());
}

TEST(VerdictStoreTest, UnprovenReachesWaitersButIsNeverKept) {
  fs::path Dir = scratchDir("unproven");
  VerdictStore Store;
  ASSERT_TRUE(Store.open(Dir.string()));
  VerdictStore::Claim Lead = Store.claim(2);
  VerdictStore::Claim Waiter = Store.claim(2);
  ASSERT_TRUE(Lead.leads());

  Store.settle(Lead, reportWith(CheckReport::Verdict::V_Unproven));
  EXPECT_EQ(Waiter.get()->V, CheckReport::Verdict::V_Unproven);
  EXPECT_TRUE(Store.claim(2).leads());
  EXPECT_EQ(countFiles(Dir), 0u);
}

TEST(VerdictStoreTest, DiskHitIsDecodedOnceThenServedFromMemory) {
  fs::path Dir = scratchDir("decode_once");
  {
    VerdictStore Writer;
    ASSERT_TRUE(Writer.open(Dir.string()));
    VerdictStore::Claim Lead = Writer.claim(3);
    ASSERT_TRUE(Lead.leads());
    Writer.settle(Lead, reportWith(CheckReport::Verdict::V_Sound));
  }
  ASSERT_EQ(countFiles(Dir), 1u);

  VerdictStore Store;
  ASSERT_TRUE(Store.open(Dir.string()));
  VerdictStore::Claim First = Store.claim(3);
  ASSERT_FALSE(First.leads());
  EXPECT_TRUE(First.get()->CacheHit);
  VerdictStore::Claim Second = Store.claim(3);
  ASSERT_FALSE(Second.leads());
  // The same decoded object: the entry was read and decoded once.
  EXPECT_EQ(Second.get(), First.get());
  EXPECT_EQ(Store.memHits(), 1u);
  EXPECT_EQ(Store.diskHits(), 1u);
}

} // namespace
