//===- Fnv1a.h - 64-bit FNV-1a hashing --------------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one FNV-1a of the code base. It keys verdicts (definition and
/// validation-pair fingerprints), fault-injection decisions and the disk
/// cache's entry checksums, all of which are persisted or compared across
/// runs: the constants here must never change. Cheap and stable across
/// runs and platforms; not collision-resistant against an adversary.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_FNV1A_H
#define COBALT_SUPPORT_FNV1A_H

#include <cstdint>
#include <string_view>

namespace cobalt {
namespace support {

/// The 64-bit FNV offset basis: the hash of no bytes.
inline constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;

/// Folds one byte into the running hash \p H.
constexpr uint64_t fnv1a(unsigned char Byte, uint64_t H) {
  return (H ^ Byte) * 0x100000001b3ull;
}

/// Folds the bytes of \p Bytes into the running hash \p H.
constexpr uint64_t fnv1a(std::string_view Bytes, uint64_t H = Fnv1aBasis) {
  for (char C : Bytes)
    H = fnv1a(static_cast<unsigned char>(C), H);
  return H;
}

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_FNV1A_H
