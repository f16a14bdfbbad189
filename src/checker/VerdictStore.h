//===- VerdictStore.h - The one verdict memo --------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memo of checker verdicts (DESIGN.md §8): a support::SingleFlight
/// of decoded CheckReports keyed by a definition's structural
/// fingerprint, in front of the optional checksummed disk tier
/// (support::DiskCache). It serves standalone checkers, validation
/// checkers and every request of a CobaltService alike. It owns the
/// never-keep-Unproven rule and decodes a disk entry once: the decoded
/// report, marked CacheHit, is settled in memory. Claims count
/// `cache.mem.hits/misses`, and `checker.cache.hits/misses` for the
/// combined outcome (served / must prove); the disk tier counts its own.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_VERDICTSTORE_H
#define COBALT_CHECKER_VERDICTSTORE_H

#include "checker/Soundness.h"
#include "support/DiskCache.h"
#include "support/SingleFlight.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cobalt {
namespace checker {

class VerdictStore {
public:
  using Claim = support::SingleFlight<CheckReport>::Claim;

  /// Puts the disk tier under \p Dir (created if absent); memory only
  /// until then. Returns false and stays memory-only when the directory
  /// is unusable. Set-up only: not safe against concurrent claims.
  bool open(const std::string &Dir);

  /// Joins \p Key or leads it. A leader probes the disk tier first: a
  /// disk hit comes back settled and not leading. \p TraceId (nonzero)
  /// is recorded as a follower if the key is in flight.
  Claim claim(uint64_t Key, uint64_t TraceId = 0);

  /// Publishes the leader's report (\p C must lead) to every waiter and,
  /// unless it is Unproven, keeps it in memory and writes it to disk.
  /// Returns the trace IDs of the followers that joined.
  std::vector<uint64_t> settle(Claim &C, CheckReport R);

  /// Hands \p E to every waiter of \p C (which must lead) and forgets the
  /// key, so the next claim leads.
  void abandon(Claim &C, std::exception_ptr E) {
    Flights.abandon(C, std::move(E));
  }

  unsigned memHits() const { return MemHits; }
  unsigned diskHits() const { return Disk.hits(); }
  const support::DiskCache &disk() const { return Disk; }

private:
  support::SingleFlight<CheckReport> Flights;
  support::DiskCache Disk;
  std::atomic<unsigned> MemHits{0};
};

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_VERDICTSTORE_H
