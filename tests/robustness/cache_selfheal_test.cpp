//===- cache_selfheal_test.cpp - The verdict cache heals, never lies -----===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-healing disk cache contract (DESIGN.md §12.4): every entry is
/// checksummed, anything that fails verification is quarantined aside and
/// reported as a miss — a corrupt cache can cost re-proving, never a
/// wrong verdict. Covers bit rot, truncation, garbage, the injected
/// torn-write fault, concurrent same-key writers, and version orphaning.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/DiskCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace cobalt;
using support::DiskCache;
using support::ScopedFaultPlan;
namespace faults = cobalt::support::faults;
namespace fs = std::filesystem;

namespace {

/// Fresh cache directory per test.
class CacheSelfHealTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = fs::temp_directory_path() /
          ("cobalt-selfheal-" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()));
    fs::remove_all(Dir);
    ASSERT_TRUE(Cache.open(Dir.string(), "verdict", /*Version=*/3));
  }
  void TearDown() override { fs::remove_all(Dir); }

  /// The single entry file for \p Key (fails the test when the directory
  /// does not hold exactly one non-quarantined, non-temp entry).
  fs::path soleEntry() {
    fs::path Found;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
      std::string Name = E.path().filename().string();
      if (Name.find(".quarantined.") != std::string::npos ||
          Name.find(".tmp.") != std::string::npos)
        continue;
      EXPECT_TRUE(Found.empty()) << "second entry: " << Name;
      Found = E.path();
    }
    EXPECT_FALSE(Found.empty()) << "no entry file in " << Dir;
    return Found;
  }

  unsigned countSuffix(const std::string &Needle) {
    unsigned N = 0;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().filename().string().find(Needle) != std::string::npos)
        ++N;
    return N;
  }

  fs::path Dir;
  DiskCache Cache;
};

} // namespace

TEST_F(CacheSelfHealTest, RoundTrip) {
  Cache.store(7, "verdict sound\n");
  EXPECT_EQ(Cache.load(7), std::optional<std::string>("verdict sound\n"));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);
  EXPECT_EQ(Cache.corrupt(), 0u);
}

TEST_F(CacheSelfHealTest, FlippedBitQuarantinedNotTrusted) {
  Cache.store(7, "verdict sound for const_prop");
  fs::path Entry = soleEntry();

  // Flip one payload byte in place — header still parses, checksum no
  // longer matches.
  std::string Blob;
  {
    std::ifstream In(Entry, std::ios::binary);
    Blob.assign(std::istreambuf_iterator<char>(In), {});
  }
  Blob[Blob.size() - 3] ^= 0x40;
  std::ofstream(Entry, std::ios::binary | std::ios::trunc) << Blob;

  EXPECT_EQ(Cache.load(7), std::nullopt);
  EXPECT_EQ(Cache.corrupt(), 1u);
  EXPECT_FALSE(fs::exists(Entry)) << "corrupt entry left in place";
  EXPECT_EQ(countSuffix(".quarantined."), 1u);

  // A re-store heals the slot.
  Cache.store(7, "re-proven");
  EXPECT_EQ(Cache.load(7), std::optional<std::string>("re-proven"));
}

TEST_F(CacheSelfHealTest, TruncatedEntryQuarantined) {
  Cache.store(9, std::string(4096, 'v'));
  fs::path Entry = soleEntry();
  fs::resize_file(Entry, fs::file_size(Entry) / 2);

  EXPECT_EQ(Cache.load(9), std::nullopt);
  EXPECT_EQ(Cache.corrupt(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST_F(CacheSelfHealTest, GarbageEntryQuarantined) {
  Cache.store(11, "good");
  fs::path Entry = soleEntry();
  // Pre-checksum-era shape: looks like a serialized report, no header.
  std::ofstream(Entry, std::ios::binary | std::ios::trunc)
      << "report 2\nname x\nverdict sound\n";

  EXPECT_EQ(Cache.load(11), std::nullopt);
  EXPECT_EQ(Cache.corrupt(), 1u);
}

TEST_F(CacheSelfHealTest, InjectedTornWriteNeverServed) {
  // The cache.truncate_write fault models a torn write that reached the
  // final name; the checksum must catch it on every subsequent load.
  {
    ScopedFaultPlan Plan(faults::CacheTruncateWrite, /*Seed=*/1);
    Cache.store(13, std::string(1024, 'p'));
  }
  EXPECT_EQ(Cache.load(13), std::nullopt);
  EXPECT_EQ(Cache.corrupt(), 1u);
  // Healed by the next (un-faulted) store.
  Cache.store(13, "clean");
  EXPECT_EQ(Cache.load(13), std::optional<std::string>("clean"));
}

TEST_F(CacheSelfHealTest, ConcurrentSameKeyWritersLeaveOneValidEntry) {
  // Racing writers of one key must each use a unique temp: whatever
  // rename wins, the final file is one complete, verifiable value and
  // no temp debris survives.
  std::vector<std::thread> Writers;
  for (int I = 0; I < 8; ++I)
    Writers.emplace_back([this] {
      for (int J = 0; J < 25; ++J)
        Cache.store(21, std::string(2048, 'w'));
    });
  for (std::thread &T : Writers)
    T.join();

  EXPECT_EQ(Cache.load(21), std::optional<std::string>(std::string(2048, 'w')));
  EXPECT_EQ(Cache.corrupt(), 0u);
  EXPECT_EQ(countSuffix(".tmp."), 0u) << "temp files leaked";
}

TEST_F(CacheSelfHealTest, VersionBumpOrphansOldEntries) {
  // v3 readers never see (or quarantine) entries written under v2 — the
  // name carries the version, so a format migration is silent.
  DiskCache Old;
  ASSERT_TRUE(Old.open(Dir.string(), "verdict", /*Version=*/2));
  Old.store(5, "stale-format value");

  EXPECT_EQ(Cache.load(5), std::nullopt);
  EXPECT_EQ(Cache.corrupt(), 0u);
  EXPECT_EQ(Old.load(5), std::optional<std::string>("stale-format value"));
}

TEST_F(CacheSelfHealTest, DisabledCacheIsInert) {
  DiskCache Off;
  Off.store(1, "dropped");
  EXPECT_EQ(Off.load(1), std::nullopt);
  EXPECT_EQ(Off.corrupt(), 0u);
}
