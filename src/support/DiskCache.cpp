//===- DiskCache.cpp ------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/DiskCache.h"

#include "support/FaultInjection.h"
#include "support/Fnv1a.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace cobalt;
using namespace cobalt::support;
namespace fs = std::filesystem;

namespace {

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Entry layout: one header line `cc1 <fnv1a-hex> <payload-bytes>\n`
/// followed by the raw payload. The header is what makes entries
/// self-validating — see DiskCache::load. FNV-1a is enough: collisions
/// only matter against *accidental* corruption (truncation, bit rot, torn
/// concurrent writes), not an adversary.
std::string encodeEntry(const std::string &Value) {
  return "cc1 " + hex16(fnv1a(Value)) + " " + std::to_string(Value.size()) +
         "\n" + Value;
}

/// Returns the verified payload, or nullopt when the blob is not a
/// complete, checksum-correct entry.
std::optional<std::string> decodeEntry(const std::string &Blob) {
  size_t Nl = Blob.find('\n');
  if (Nl == std::string::npos || Blob.compare(0, 4, "cc1 ") != 0)
    return std::nullopt;
  std::istringstream Header(Blob.substr(4, Nl - 4));
  std::string SumHex;
  size_t Size = 0;
  if (!(Header >> SumHex >> Size) || SumHex.size() != 16)
    return std::nullopt;
  if (Blob.size() - (Nl + 1) != Size)
    return std::nullopt; // truncated (or padded) payload
  std::string Value = Blob.substr(Nl + 1);
  if (hex16(fnv1a(Value)) != SumHex)
    return std::nullopt;
  return Value;
}

/// POSIX write of \p Data to \p Path with O_EXCL (the name is unique by
/// construction; a collision means something is deeply wrong, so fail)
/// and an fsync before close — after rename, a crash cannot leave the
/// final name pointing at unwritten blocks.
bool writeFileDurable(const std::string &Path, const std::string &Data) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (Fd < 0)
    return false;
  const char *P = Data.data();
  size_t N = Data.size();
  bool Ok = true;
  while (N > 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Ok = false;
      break;
    }
    P += W;
    N -= static_cast<size_t>(W);
  }
  if (Ok)
    Ok = ::fsync(Fd) == 0;
  Ok = (::close(Fd) == 0) && Ok;
  if (!Ok)
    ::unlink(Path.c_str());
  return Ok;
}

/// Per-process sequence for temp-file uniqueness. Combined with the pid,
/// two writers can never share a temp name: different processes differ
/// in pid, different threads (or successive stores) in sequence number.
std::atomic<uint64_t> TempSeq{0};

} // namespace

bool DiskCache::open(const std::string &Directory, const std::string &Ns,
                     unsigned Ver) {
  std::error_code EC;
  fs::create_directories(Directory, EC);
  if (EC || !fs::is_directory(Directory, EC))
    return false;
  Dir = Directory;
  Namespace = Ns;
  Version = Ver;
  Hits = Misses = Stores = Corrupt = 0;
  return true;
}

std::string DiskCache::entryPath(uint64_t Key) const {
  return Dir + "/" + Namespace + "-" + hex16(Key) + ".v" +
         std::to_string(Version);
}

void DiskCache::quarantine(const std::string &Path) const {
  // Rename aside rather than delete: the corpse is evidence for humans
  // debugging a flaky disk, and the unique suffix keeps two processes
  // quarantining the same entry from racing. If the rename fails (e.g.
  // the other process won), fall back to removal; either way the entry
  // is never read again.
  std::string Aside = Path + ".quarantined." +
                      std::to_string(static_cast<long>(::getpid()));
  std::error_code EC;
  fs::rename(Path, Aside, EC);
  if (EC)
    fs::remove(Path, EC);
  metricAdd("cache.disk.corrupt");
  ++Corrupt;
}

std::optional<std::string> DiskCache::load(uint64_t Key) const {
  if (!enabled())
    return std::nullopt;

  std::string Path = entryPath(Key);
  std::string Blob;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      metricAdd("cache.disk.misses");
      ++Misses;
      return std::nullopt;
    }
    std::ostringstream Out;
    Out << In.rdbuf();
    Blob = Out.str();
  }
  std::optional<std::string> Value = decodeEntry(Blob);
  if (!Value) {
    // Never trust a failed checksum: quarantine the entry and miss, so
    // the caller re-verifies instead of consuming corruption.
    quarantine(Path);
    metricAdd("cache.disk.misses");
    ++Misses;
    return std::nullopt;
  }
  metricAdd("cache.disk.hits");
  ++Hits;
  return Value;
}

void DiskCache::store(uint64_t Key, const std::string &Value) const {
  if (!enabled())
    return;

  // Write-then-rename: the entry appears atomically under its final
  // name. The temp name is unique per (pid, sequence) — concurrent
  // writers of the same key, in this process or another, each write
  // their own temp and the renames settle on one complete value.
  std::string Final = entryPath(Key);
  std::string Temp = Final + ".tmp." +
                     std::to_string(static_cast<long>(::getpid())) + "." +
                     std::to_string(
                         TempSeq.fetch_add(1, std::memory_order_relaxed));

  std::string Entry = encodeEntry(Value);
  // Fault-injection: model a torn write that somehow reached the final
  // name (crashed writer + non-atomic filesystem) by installing an entry
  // whose payload is cut in half. load() must quarantine it.
  if (faultFires(faults::CacheTruncateWrite))
    Entry.resize(Entry.size() - Value.size() / 2);

  if (!writeFileDurable(Temp, Entry))
    return; // cache is best-effort; never an error
  std::error_code EC;
  fs::rename(Temp, Final, EC);
  if (EC) {
    fs::remove(Temp, EC);
    return;
  }
  metricAdd("cache.disk.stores");
  ++Stores;
}
