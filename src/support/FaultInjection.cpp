//===- FaultInjection.cpp -------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Fnv1a.h"

#include <cstdlib>

using namespace cobalt;
using namespace cobalt::support;

namespace {

/// splitmix64: a small, well-mixed hash used to make %P rules
/// deterministic per (site, hit index, seed) without global RNG state.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

//===----------------------------------------------------------------------===//
// Keyed scopes (thread-local job identity).
//===----------------------------------------------------------------------===//

struct ScopedFaultKey::State {
  uint64_t Key;
  /// Per-scope, per-site hit ordinals — deterministic because each job's
  /// internal control flow is sequential even when jobs run in parallel.
  std::map<std::string, unsigned> SiteHits;
};

namespace {
thread_local ScopedFaultKey::State *ActiveFaultKey = nullptr;
} // namespace

ScopedFaultKey::ScopedFaultKey(uint64_t Key) : Prev(ActiveFaultKey) {
  ActiveFaultKey = new State{Key, {}};
}

ScopedFaultKey::~ScopedFaultKey() {
  delete ActiveFaultKey;
  ActiveFaultKey = Prev;
}

//===----------------------------------------------------------------------===//
// FaultInjector.
//===----------------------------------------------------------------------===//

FaultInjector &FaultInjector::instance() {
  static FaultInjector FI;
  if (!FI.EnvLoaded) {
    FI.EnvLoaded = true;
    FI.configureFromEnv();
  }
  return FI;
}

void FaultInjector::configure(const std::string &Spec, uint64_t NewSeed) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Rules.clear();
  Stats.clear();
  Seed = NewSeed;

  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Clause = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    // Trim surrounding spaces.
    while (!Clause.empty() && Clause.front() == ' ')
      Clause.erase(Clause.begin());
    while (!Clause.empty() && Clause.back() == ' ')
      Clause.pop_back();
    if (Clause.empty())
      continue;

    Rule R;
    std::string Site = Clause;
    if (size_t At = Clause.find('@'); At != std::string::npos) {
      Site = Clause.substr(0, At);
      R.Nth = static_cast<unsigned>(
          std::strtoul(Clause.c_str() + At + 1, nullptr, 10));
      if (R.Nth == 0)
        R.Nth = 1;
    } else if (size_t Pct = Clause.find('%'); Pct != std::string::npos) {
      Site = Clause.substr(0, Pct);
      long P = std::strtol(Clause.c_str() + Pct + 1, nullptr, 10);
      R.Percent = static_cast<int>(P < 0 ? 0 : (P > 100 ? 100 : P));
    } else if (size_t Eq = Clause.find('='); Eq != std::string::npos) {
      Site = Clause.substr(0, Eq);
      R.Payload = std::strtol(Clause.c_str() + Eq + 1, nullptr, 10);
      R.HasPayload = true;
    } else {
      R.Always = true;
    }
    if (!Site.empty())
      Rules[Site] = R;
  }
  HasRules.store(!Rules.empty(), std::memory_order_relaxed);
}

void FaultInjector::configureFromEnv() {
  const char *Spec = std::getenv("COBALT_FAULTS");
  if (!Spec || !*Spec)
    return;
  const char *SeedText = std::getenv("COBALT_FAULT_SEED");
  uint64_t EnvSeed = SeedText ? std::strtoull(SeedText, nullptr, 10) : 0;
  configure(Spec, EnvSeed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Rules.clear();
  Stats.clear();
  Seed = 0;
  HasRules.store(false, std::memory_order_relaxed);
}

bool FaultInjector::shouldFire(const char *Site) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Rules.find(Site);
  if (It == Rules.end())
    return false;
  const Rule R = It->second;
  if (R.HasPayload)
    return false; // payload rules never fire as faults
  Counters &C = Stats[Site];
  unsigned GlobalHit = ++C.Hits; // 1-based arrival index
  uint64_t LocalSeed = Seed;

  // The trigger index: keyed (per-job ordinal) when a scope is active,
  // arrival-ordered otherwise.
  unsigned Hit = GlobalHit;
  uint64_t KeyMix = 0;
  if (ScopedFaultKey::State *S = ActiveFaultKey) {
    Lock.unlock(); // per-thread state: no lock needed for the ordinal
    Hit = ++S->SiteHits[Site];
    KeyMix = mix64(S->Key);
  }

  bool Fire = false;
  if (R.Always)
    Fire = true;
  else if (R.Nth != 0)
    Fire = Hit == R.Nth;
  else if (R.Percent >= 0)
    Fire = static_cast<int>(mix64(fnv1a(Site) ^ KeyMix ^
                                  (LocalSeed * 0x9e3779b9ull) ^ Hit) %
                            100) < R.Percent;
  if (Fire) {
    if (!Lock.owns_lock())
      Lock.lock();
    ++Stats[Site].Fired;
  }
  return Fire;
}

long FaultInjector::payload(const char *Site) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Rules.find(Site);
  if (It == Rules.end() || !It->second.HasPayload)
    return 0;
  ++Stats[Site].Hits;
  return It->second.Payload;
}

unsigned FaultInjector::hits(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Stats.find(Site);
  return It == Stats.end() ? 0 : It->second.Hits;
}

unsigned FaultInjector::fired(const std::string &Site) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Stats.find(Site);
  return It == Stats.end() ? 0 : It->second.Fired;
}
