//===- PersistentCache.h - Former name of the verdict store -----*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict store's former name, kept only because the repository
/// benchmark (perfbench/workloads.cpp) still spells it. Removable once
/// perfbench names checker::VerdictStore; the disk tier alone is
/// support::DiskCache.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_PERSISTENTCACHE_H
#define COBALT_SUPPORT_PERSISTENTCACHE_H

#include "checker/VerdictStore.h"

namespace cobalt {
namespace support {

using PersistentCache = checker::VerdictStore;

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_PERSISTENTCACHE_H
