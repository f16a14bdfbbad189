//===- DiskCache.h - Checksummed fingerprint-keyed disk store ---*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, crash-tolerant, *self-healing* key→blob store on disk:
/// the tier behind checker::VerdictStore that carries verdicts across
/// process runs. As in Souper's persistent solver-result cache, the key
/// is a 64-bit structural fingerprint of the query, the value an opaque
/// blob the *caller* versions and validates. Invariants (DESIGN.md §12.4):
///
///  * One entry = one file `<ns>-<16 hex digits>.v<version>` in the cache
///    directory. Writes go to a uniquely named temp file in the same
///    directory (pid + per-process sequence number, so concurrent
///    writers — threads *or* processes — never share a temp), are
///    fsync'd, and renamed into place: readers never observe a torn
///    entry via the normal write path.
///  * Every entry carries a checksum header over its payload. load()
///    verifies it; an entry that fails (truncated, bit-flipped, written
///    by a crashed process through some non-atomic channel) is
///    **quarantined** — renamed aside so it is never read again — and
///    reported as a miss. The caller re-verifies; a corrupt cache can
///    slow the pipeline down but can never feed it a wrong verdict.
///  * The namespace + version are part of the file name: bumping the
///    serialization version orphans old entries instead of misreading
///    them.
///  * Unreadable / missing / corrupt entries are misses, never errors —
///    the cache is an accelerator, the prover remains the source of
///    truth. Counted as `cache.disk.hits/misses/stores/corrupt`.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_DISKCACHE_H
#define COBALT_SUPPORT_DISKCACHE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace cobalt {
namespace support {

class DiskCache {
public:
  /// A disabled cache: every load misses, every store is dropped.
  DiskCache() = default;

  /// Binds the cache to \p Dir (created if absent) with entries named
  /// `<Namespace>-<key>.v<Version>`. Returns false (and stays disabled)
  /// when the directory cannot be created or is not writable.
  bool open(const std::string &Dir, const std::string &Namespace,
            unsigned Version);

  bool enabled() const { return !Dir.empty(); }

  /// The checksum-verified payload stored under \p Key; corrupt entries
  /// are quarantined and reported as misses (see file comment).
  std::optional<std::string> load(uint64_t Key) const;
  void store(uint64_t Key, const std::string &Value) const;

  unsigned hits() const { return Hits; }
  unsigned misses() const { return Misses; }
  unsigned stores() const { return Stores; }
  unsigned corrupt() const { return Corrupt; }

private:
  std::string entryPath(uint64_t Key) const;
  /// Moves a failed entry aside (never read again) and counts it.
  void quarantine(const std::string &Path) const;

  std::string Dir; ///< Empty = disabled.
  std::string Namespace;
  unsigned Version = 0;
  mutable std::atomic<unsigned> Hits{0}, Misses{0}, Stores{0}, Corrupt{0};
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_DISKCACHE_H
