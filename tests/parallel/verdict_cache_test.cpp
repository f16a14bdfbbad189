//===- verdict_cache_test.cpp - Fingerprint-keyed verdict caching ---------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict cache's invariants: serialized reports round-trip
/// losslessly, verdicts are keyed by a structural fingerprint of the
/// definition *and* its checking context (so a changed context is a
/// cache miss, never a stale hit), only definitive verdicts are cached,
/// and a persistent cache directory survives across checker instances —
/// while an unusable directory degrades to in-memory caching instead of
/// failing the check.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/FaultInjection.h"
#include "support/DiskCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace cobalt;
using namespace cobalt::checker;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;
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
  fs::path Dir = fs::path(::testing::TempDir()) / ("cobalt_" + Name);
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

size_t countVerdictFiles(const fs::path &Dir) {
  size_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("verdict-", 0) == 0)
      ++N;
  }
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

TEST(VerdictCacheTest, SerializationRoundTripsLosslessly) {
  CheckReport R;
  R.Name = "weird name\nwith\\newline";
  R.V = CheckReport::Verdict::V_Unsound;
  R.Sound = false;
  R.Degradation = support::ErrorKind::EK_ProverTimeout;
  R.AssumedAnalyses = {"notTainted", "other analysis"};

  ObligationResult Proven;
  Proven.Name = "F1";
  Proven.St = ObligationResult::Status::OS_Proven;
  Proven.Attempts = 1;
  Proven.RlimitSpent = 123456789;
  R.Obligations.push_back(Proven);

  ObligationResult Failed;
  Failed.Name = "B3/assign";
  Failed.St = ObligationResult::Status::OS_Failed;
  Failed.Attempts = 2;
  Failed.Counterexample = "x = 7\ny = -1";
  R.Obligations.push_back(Failed);

  ObligationResult Unknown;
  Unknown.Name = "B4/branch";
  Unknown.St = ObligationResult::Status::OS_Unknown;
  Unknown.Err = support::Error(support::ErrorKind::EK_ProverTimeout,
                               "timeout after 3 attempts");
  Unknown.Attempts = 3;
  R.Obligations.push_back(Unknown);

  std::string Blob = serializeCheckReport(R);
  // The disk tier's bytes: entries written by earlier builds must keep
  // decoding, and equal verdicts must keep serializing to equal bytes.
  EXPECT_EQ(Blob, "report 2\n"
                  "name weird name\\nwith\\\\newline\n"
                  "verdict unsound\n"
                  "degradation prover_timeout\n"
                  "assumed notTainted\n"
                  "assumed other analysis\n"
                  "obligation F1\n"
                  " status proven\n"
                  " errkind none\n"
                  " attempts 1\n"
                  " rlimit 123456789\n"
                  "obligation B3/assign\n"
                  " status failed\n"
                  " errkind none\n"
                  " attempts 2\n"
                  " rlimit 0\n"
                  " cex x = 7\\ny = -1\n"
                  "obligation B4/branch\n"
                  " status unknown\n"
                  " errkind prover_timeout\n"
                  " errmsg timeout after 3 attempts\n"
                  " attempts 3\n"
                  " rlimit 0\n");
  std::optional<CheckReport> Back = deserializeCheckReport(Blob);
  ASSERT_TRUE(Back.has_value());

  // Re-serializing the deserialized report must reproduce the blob —
  // every field the cache carries survived, including the escaped
  // newlines and the per-obligation error payloads.
  EXPECT_EQ(serializeCheckReport(*Back), Blob);
  EXPECT_EQ(Back->Name, R.Name);
  EXPECT_EQ(Back->V, CheckReport::Verdict::V_Unsound);
  EXPECT_EQ(Back->Degradation, support::ErrorKind::EK_ProverTimeout);
  ASSERT_EQ(Back->Obligations.size(), 3u);
  EXPECT_EQ(Back->Obligations[1].Counterexample, "x = 7\ny = -1");
  EXPECT_EQ(Back->Obligations[2].Err.Kind,
            support::ErrorKind::EK_ProverTimeout);
  EXPECT_EQ(Back->Obligations[2].Err.Message, "timeout after 3 attempts");
  EXPECT_EQ(Back->Obligations[2].Attempts, 3u);
  EXPECT_EQ(Back->Obligations[0].RlimitSpent, 123456789u);
}

TEST(VerdictCacheTest, WorkerFrameRoundTripKeepsSeconds) {
  // A prover worker's response frame carries the same obligation fields
  // as a disk entry, plus the wall time the parent sums into the report.
  ObligationResult R;
  R.Name = "sim(0,1)#2->ret5";
  R.St = ObligationResult::Status::OS_Unknown;
  R.Err = support::Error(support::ErrorKind::EK_ProverResourceOut,
                         "max. memory\nexceeded");
  R.Seconds = 1.25;
  R.Attempts = 3;
  R.RlimitSpent = 987654321;

  std::string Frame = serializeObligationResult(R);
  std::optional<ObligationResult> Back = deserializeObligationResult(Frame);
  ASSERT_TRUE(Back.has_value()) << Frame;
  EXPECT_EQ(serializeObligationResult(*Back), Frame);
  EXPECT_EQ(Back->Name, R.Name);
  EXPECT_EQ(Back->St, ObligationResult::Status::OS_Unknown);
  EXPECT_EQ(Back->Err.Kind, support::ErrorKind::EK_ProverResourceOut);
  EXPECT_EQ(Back->Err.Message, "max. memory\nexceeded");
  EXPECT_DOUBLE_EQ(Back->Seconds, 1.25);
  EXPECT_EQ(Back->Attempts, 3u);
  EXPECT_EQ(Back->RlimitSpent, 987654321u);
  EXPECT_TRUE(Back->Counterexample.empty());

  ObligationResult Failed;
  Failed.Name = "F2[call]";
  Failed.St = ObligationResult::Status::OS_Failed;
  Failed.Seconds = 0.5;
  Failed.Attempts = 1;
  Failed.Counterexample = "x = 7; y = -1; ";
  Back = deserializeObligationResult(serializeObligationResult(Failed));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->St, ObligationResult::Status::OS_Failed);
  EXPECT_DOUBLE_EQ(Back->Seconds, 0.5);
  EXPECT_EQ(Back->Counterexample, Failed.Counterexample);

  // The disk form of the same result drops the wall time.
  CheckReport Rep;
  Rep.Name = "d";
  Rep.Obligations = {R, Failed};
  std::optional<CheckReport> Disk =
      deserializeCheckReport(serializeCheckReport(Rep));
  ASSERT_TRUE(Disk.has_value());
  EXPECT_EQ(Disk->Obligations[0].Seconds, 0.0);
  EXPECT_EQ(Disk->Obligations[1].Counterexample, Failed.Counterexample);

  // Frames tolerate no unknown fields and no missing status: such a
  // response is a crash.
  EXPECT_FALSE(deserializeObligationResult("").has_value());
  EXPECT_FALSE(deserializeObligationResult(Frame + " bogus 1\n").has_value());
  EXPECT_FALSE(
      deserializeObligationResult("obresult 2\nobligation F1\n attempts 1\n")
          .has_value());
}

TEST(VerdictCacheTest, MalformedBlobsAreRejectedNotMisread) {
  EXPECT_FALSE(deserializeCheckReport("").has_value());
  EXPECT_FALSE(deserializeCheckReport("garbage").has_value());
  EXPECT_FALSE(deserializeCheckReport("report 3\nname x\nverdict sound\n")
                   .has_value()); // future version
  EXPECT_FALSE(deserializeCheckReport("report 1\nname x\nverdict sound\n")
                   .has_value()); // pre-rlimit version (orphaned)
  EXPECT_FALSE(
      deserializeCheckReport("report 2\nname x\nverdict maybe\n")
          .has_value()); // unknown verdict
  EXPECT_FALSE(
      deserializeCheckReport("report 2\nname x\nverdict sound\nstatus "
                             "proven\n")
          .has_value()); // obligation field outside any obligation
}

//===----------------------------------------------------------------------===//
// In-memory cache.
//===----------------------------------------------------------------------===//

TEST(VerdictCacheTest, RecheckIsServedFromMemoryByteIdentically) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());

  CheckReport Cold = SC.checkOptimization(opts::simplifyMulOne());
  ASSERT_TRUE(Cold.Sound) << Cold.str();
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_EQ(SC.cacheHits(), 0u);

  CheckReport Warm = SC.checkOptimization(opts::simplifyMulOne());
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_EQ(SC.cacheHits(), 1u);
  EXPECT_NE(Warm.str().find("(cached)"), std::string::npos) << Warm.str();
  // Identical verdict payload, no re-proving.
  EXPECT_EQ(serializeCheckReport(Warm), serializeCheckReport(Cold));
}

TEST(VerdictCacheTest, UnprovenVerdictsAreNeverCached) {
  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());
  fs::path Dir = scratchDir("unproven_not_cached");
  ASSERT_TRUE(SC.setCacheDir(Dir.string()));

  {
    ScopedFaultPlan Plan(faults::CheckerForceTimeout);
    CheckReport Degraded = SC.checkOptimization(opts::simplifyMulOne());
    ASSERT_EQ(Degraded.V, CheckReport::Verdict::V_Unproven);
  }
  // Nothing was cached, in memory or on disk: the rerun (faults gone)
  // must prove it fresh rather than resurrect the degraded verdict.
  EXPECT_EQ(countVerdictFiles(Dir), 0u);
  CheckReport Retry = SC.checkOptimization(opts::simplifyMulOne());
  EXPECT_FALSE(Retry.CacheHit);
  EXPECT_TRUE(Retry.Sound) << Retry.str();
  EXPECT_EQ(SC.cacheHits(), 0u);
}

//===----------------------------------------------------------------------===//
// Persistent cache.
//===----------------------------------------------------------------------===//

TEST(VerdictCacheTest, DiskCacheSurvivesAcrossCheckerInstances) {
  fs::path Dir = scratchDir("disk_cache");
  LabelRegistry Registry = makeRegistry();

  std::string ColdBlob;
  {
    SoundnessChecker SC(Registry, opts::allAnalyses());
    ASSERT_TRUE(SC.setCacheDir(Dir.string()));
    CheckReport Cold = SC.checkOptimization(opts::simplifyMulOne());
    ASSERT_TRUE(Cold.Sound);
    ColdBlob = serializeCheckReport(Cold);
    EXPECT_GE(SC.diskCache().stores(), 1u);
  }
  EXPECT_GE(countVerdictFiles(Dir), 1u);

  // A brand-new checker (empty memory cache) with the same registry and
  // analysis context hits the on-disk verdict.
  SoundnessChecker Fresh(Registry, opts::allAnalyses());
  ASSERT_TRUE(Fresh.setCacheDir(Dir.string()));
  CheckReport Warm = Fresh.checkOptimization(opts::simplifyMulOne());
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_GE(Fresh.diskCache().hits(), 1u);
  EXPECT_EQ(serializeCheckReport(Warm), ColdBlob);
}

TEST(VerdictCacheTest, ChangedAnalysisContextMissesTheCache) {
  // The fingerprint folds in the whole checking context — registered
  // predicates and analysis witnesses — because obligations depend on
  // them. Same optimization + different context must be a miss, never a
  // stale hit.
  fs::path Dir = scratchDir("context_invalidation");
  LabelRegistry Registry = makeRegistry();

  {
    SoundnessChecker WithAnalyses(Registry, opts::allAnalyses());
    ASSERT_TRUE(WithAnalyses.setCacheDir(Dir.string()));
    ASSERT_TRUE(
        WithAnalyses.checkOptimization(opts::simplifyMulOne()).Sound);
  }
  ASSERT_GE(countVerdictFiles(Dir), 1u);

  SoundnessChecker NoAnalyses(Registry);
  ASSERT_TRUE(NoAnalyses.setCacheDir(Dir.string()));
  CheckReport R = NoAnalyses.checkOptimization(opts::simplifyMulOne());
  EXPECT_FALSE(R.CacheHit) << "stale hit across differing contexts";
  EXPECT_TRUE(R.Sound);
  // Both verdicts now coexist on disk under distinct fingerprints.
  EXPECT_GE(countVerdictFiles(Dir), 2u);
}

TEST(VerdictCacheTest, CorruptDiskEntryIsIgnoredNotTrusted) {
  fs::path Dir = scratchDir("corrupt_entry");
  LabelRegistry Registry = makeRegistry();
  {
    SoundnessChecker SC(Registry, opts::allAnalyses());
    ASSERT_TRUE(SC.setCacheDir(Dir.string()));
    ASSERT_TRUE(SC.checkOptimization(opts::simplifyMulOne()).Sound);
  }
  // Truncate every stored verdict to garbage.
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    std::ofstream Out(E.path(), std::ios::trunc);
    Out << "report 2\nname x\nverdict maybe\n";
  }

  SoundnessChecker Fresh(Registry, opts::allAnalyses());
  ASSERT_TRUE(Fresh.setCacheDir(Dir.string()));
  CheckReport R = Fresh.checkOptimization(opts::simplifyMulOne());
  EXPECT_FALSE(R.CacheHit);
  EXPECT_TRUE(R.Sound) << R.str();
}

TEST(VerdictCacheTest, UnusableCacheDirDegradesToMemoryOnly) {
  // Point the cache at a path occupied by a regular file: open fails,
  // the checker reports it (so cobaltc can warn), and checking proceeds
  // with the in-memory cache alone.
  fs::path Dir = scratchDir("unusable");
  fs::path NotADir = Dir / "occupied";
  { std::ofstream(NotADir) << "not a directory"; }

  LabelRegistry Registry = makeRegistry();
  SoundnessChecker SC(Registry, opts::allAnalyses());
  EXPECT_FALSE(SC.setCacheDir(NotADir.string()));
  EXPECT_FALSE(SC.diskCache().enabled());

  CheckReport Cold = SC.checkOptimization(opts::simplifyMulOne());
  EXPECT_TRUE(Cold.Sound) << Cold.str();
  CheckReport Warm = SC.checkOptimization(opts::simplifyMulOne());
  EXPECT_TRUE(Warm.CacheHit); // memory cache still works
}
