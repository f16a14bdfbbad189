//===- VerdictStore.cpp ---------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/VerdictStore.h"

#include "support/Telemetry.h"

using namespace cobalt;
using namespace cobalt::checker;

bool VerdictStore::open(const std::string &Dir) {
  // Version bumps orphan (rather than misread) old entries; bump it when
  // serializeCheckReport's format, the fingerprint recipe, or the
  // DiskCache entry layout changes.
  // v2: per-obligation rlimit spend.
  // v3: checksummed self-healing cache entries — pre-checksum entries
  //     would all be quarantined as corrupt, so orphan them instead.
  // v4: rlimit is the obligation's spend in its set's world.
  // v5: rlimit and counterexamples come from Z3's SMT kernel.
  return Disk.open(Dir, "verdict", /*Version=*/5);
}

VerdictStore::Claim VerdictStore::claim(uint64_t Key, uint64_t TraceId) {
  Claim C = Flights.claim(Key, TraceId);
  if (!C.leads()) {
    ++MemHits;
    support::metricAdd("cache.mem.hits");
    support::metricAdd("checker.cache.hits");
    return C;
  }
  support::metricAdd("cache.mem.misses");
  // The leader probes the disk while joiners wait on its claim, so one
  // entry is read and decoded once however many callers want it.
  if (std::optional<std::string> Blob = Disk.load(Key))
    if (std::optional<CheckReport> R = deserializeCheckReport(*Blob)) {
      R->CacheHit = true;
      Flights.settle(C, std::make_shared<const CheckReport>(std::move(*R)),
                     /*Keep=*/true);
      support::metricAdd("checker.cache.hits");
      return C;
    }
  support::metricAdd("checker.cache.misses");
  return C;
}

std::vector<uint64_t> VerdictStore::settle(Claim &C, CheckReport R) {
  // Only definitive verdicts are kept: an Unproven verdict reflects
  // transient prover limits, and a rerun (possibly with a larger budget)
  // may well decide it.
  bool Keep = R.V != CheckReport::Verdict::V_Unproven;
  if (Keep && Disk.enabled())
    Disk.store(C.key(), serializeCheckReport(R));
  return Flights.settle(C, std::make_shared<const CheckReport>(std::move(R)),
                        Keep);
}
