//===- FaultInjection.h - Deterministic fault injection ---------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness. Production code declares named
/// *injection points* (prover about to run, rewrite in flight, interpreter
/// about to step); a process-wide plan decides which hits of which points
/// actually fire. Tests and benches use it to exercise every degradation
/// path of the fault-tolerant pipeline — forced prover timeouts, exceptions
/// thrown mid-rewrite, interpreters going stuck — without depending on
/// real resource exhaustion.
///
/// The plan is configured programmatically (tests) or from the
/// environment (CLI runs, CI):
///
/// \code
///   COBALT_FAULTS="checker.force_timeout,engine.throw_mid_rewrite@2"
///   COBALT_FAULT_SEED=7
/// \endcode
///
/// Each comma-separated clause names a site with an optional trigger:
///
///   site        every hit fires
///   site@N      only the Nth hit fires (1-based)
///   site%P      each hit fires with probability P percent, decided by a
///               counter-keyed hash of (site, hit index, seed) — fully
///               deterministic for a fixed seed, no global RNG state.
///   site=V      a *payload* rule: the site never "fires" as a fault, but
///               faultPayload() returns V there (e.g. a simulated prover
///               latency in milliseconds for scheduler benches).
///
/// ## Concurrency and determinism
///
/// Injection points are zero-cost when the plan is empty (one relaxed
/// atomic load); the harness itself is thread-safe. But raw hit counters
/// are *arrival-ordered*, which is meaningless once jobs run on a thread
/// pool. Parallel drivers therefore wrap each independent job in a
/// ScopedFaultKey carrying a stable 64-bit job fingerprint (a procedure
/// name hash, an obligation fingerprint). Within a scope, trigger
/// decisions are keyed on (site, job key, per-scope ordinal, seed)
/// instead of the global arrival counter:
///
///   site        fires every hit (unchanged)
///   site@N      fires on the Nth hit *within each job* (e.g. the Nth
///               solver attempt of every obligation)
///   site%P      fires per hit with probability P, hashed from the job
///               key + ordinal — the same hits fire at --jobs 1 and
///               --jobs 8, regardless of scheduling.
///
/// Global hit/fired counters are still maintained for observability.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_FAULTINJECTION_H
#define COBALT_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace cobalt {
namespace support {

/// The canonical injection-point names (single source of truth shared by
/// production code, tests, and benches).
namespace faults {
/// SoundnessChecker: the next solver attempt reports unknown(timeout)
/// without invoking Z3.
inline constexpr const char *CheckerForceTimeout = "checker.force_timeout";
/// SoundnessChecker: the next solver attempt reports a non-resource
/// unknown without invoking Z3.
inline constexpr const char *CheckerForceUnknown = "checker.force_unknown";
/// SoundnessChecker: payload site — each solver attempt sleeps this many
/// milliseconds first, modeling a slow / remote prover (the paper's
/// minutes-per-pass Simplify latencies). Used by bench_parallel to
/// measure dispatch overlap independently of single-core Z3 throughput.
inline constexpr const char *CheckerProverStallMs =
    "checker.prover_stall_ms";
/// Engine: applySites throws PassError(EK_PassPanic) right after a
/// rewrite landed, leaving the procedure half-transformed.
inline constexpr const char *EngineThrowMidRewrite =
    "engine.throw_mid_rewrite";
/// Interpreter: step() reports SR_Stuck regardless of the statement.
inline constexpr const char *InterpForceStuck = "interp.force_stuck";
/// Prover worker subprocess: _exit(42) instead of answering the request
/// (models a solver segfault / abort). Checked in the worker child under
/// the obligation's fault key, so the same obligations crash at every
/// --jobs width.
inline constexpr const char *WorkerCrash = "worker.crash";
/// Prover worker subprocess: sleep forever instead of answering; the
/// watchdog's wall budget must kill it.
inline constexpr const char *WorkerHang = "worker.hang";
/// Prover worker subprocess: allocate and touch memory until well past
/// any sane rss budget, then sleep; the watchdog's rss poll must kill it.
inline constexpr const char *WorkerOom = "worker.oom";
/// Prover worker subprocess: write a frame header followed by only half
/// the payload, then _exit — a torn response the parent must treat as a
/// crash, never as data.
inline constexpr const char *WorkerPartialWrite = "worker.partial_write";
/// DiskCache: store() installs an entry whose payload was truncated
/// to half its length (with the checksum header describing the *full*
/// value) — the self-healing load path must quarantine it as corrupt.
inline constexpr const char *CacheTruncateWrite = "cache.truncate_write";
} // namespace faults

/// Process-wide fault plan. All state is per-site hit counters plus the
/// configured rules; reset() restores the no-faults state. Thread-safe;
/// see the file comment for how parallel drivers get determinism.
class FaultInjector {
public:
  /// The singleton. The first call loads COBALT_FAULTS / COBALT_FAULT_SEED
  /// from the environment so CLI binaries need no extra wiring.
  static FaultInjector &instance();

  /// Replaces the plan with \p Spec (see file comment for the grammar).
  /// Unknown site names are accepted (they simply never fire). Clears all
  /// hit counters. Not safe to call while jobs are in flight.
  void configure(const std::string &Spec, uint64_t Seed = 0);

  /// Loads the plan from COBALT_FAULTS / COBALT_FAULT_SEED (no-op when
  /// unset).
  void configureFromEnv();

  /// Removes every rule and counter.
  void reset();

  /// True when no rules are configured (the fast path).
  bool empty() const {
    return !HasRules.load(std::memory_order_relaxed);
  }

  /// Called by an injection point: records the hit and decides whether
  /// this hit fires. Under an active ScopedFaultKey the decision is
  /// keyed (stable across job schedules); otherwise it is the legacy
  /// arrival-ordered one.
  bool shouldFire(const char *Site);

  /// Payload rules (`site=V`): the configured value, or 0 when the site
  /// has no payload rule. Records a hit when a payload is configured.
  long payload(const char *Site);

  /// Observability for tests: how often a site was hit / actually fired.
  unsigned hits(const std::string &Site) const;
  unsigned fired(const std::string &Site) const;

private:
  struct Rule {
    bool Always = false;
    unsigned Nth = 0;       ///< 1-based; 0 = not an @N rule.
    int Percent = -1;       ///< 0-100; -1 = not a %P rule.
    long Payload = 0;       ///< Meaningful iff HasPayload.
    bool HasPayload = false;
  };
  struct Counters {
    unsigned Hits = 0;
    unsigned Fired = 0;
  };

  std::map<std::string, Rule> Rules;
  mutable std::mutex Mutex; ///< Guards Rules + Stats.
  std::atomic<bool> HasRules{false};
  std::map<std::string, Counters> Stats;
  uint64_t Seed = 0;
  bool EnvLoaded = false;

  friend class ScopedFaultKey;
};

/// The one-line form used at injection points.
inline bool faultFires(const char *Site) {
  FaultInjector &FI = FaultInjector::instance();
  return !FI.empty() && FI.shouldFire(Site);
}

/// The one-line payload form (0 = no payload configured).
inline long faultPayload(const char *Site) {
  FaultInjector &FI = FaultInjector::instance();
  return FI.empty() ? 0 : FI.payload(Site);
}

/// Marks the current thread as executing the job identified by \p Key
/// (a stable fingerprint: procedure-name hash, obligation fingerprint).
/// While active, fault decisions on this thread are keyed on
/// (site, Key, per-scope hit ordinal, seed) — independent of how jobs
/// interleave across threads, so `--jobs 8` fires exactly the faults
/// `--jobs 1` does. Scopes nest; the innermost wins.
class ScopedFaultKey {
public:
  explicit ScopedFaultKey(uint64_t Key);
  ~ScopedFaultKey();
  ScopedFaultKey(const ScopedFaultKey &) = delete;
  ScopedFaultKey &operator=(const ScopedFaultKey &) = delete;

  struct State; ///< Definition local to FaultInjection.cpp.

private:
  State *Prev; ///< Restored on destruction.
};

/// RAII plan for tests: installs a plan on construction, restores the
/// empty plan on destruction so no faults leak across test cases.
class ScopedFaultPlan {
public:
  explicit ScopedFaultPlan(const std::string &Spec, uint64_t Seed = 0) {
    FaultInjector::instance().configure(Spec, Seed);
  }
  ~ScopedFaultPlan() { FaultInjector::instance().reset(); }
  ScopedFaultPlan(const ScopedFaultPlan &) = delete;
  ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_FAULTINJECTION_H
