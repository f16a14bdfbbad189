//===- ProverWorkerPool.h - Crash-contained prover workers ------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-process obligation discharge (DESIGN.md §12). Each lane of
/// the checker's ThreadPool owns one forked worker subprocess
/// (support::Subprocess) that runs its Z3 queries: a prover segfault,
/// runaway memory grab, or hang takes down one expendable child, never
/// the pipeline.
///
/// The division of labor:
///
///  * The **parent** keeps every thread Z3-free while the pool is live —
///    a job on lane L only writes a request frame to lane L's worker and
///    sits in a supervised read. That is what makes mid-run respawn forks
///    safe: no parent thread can hold a Z3 (or other library) lock at
///    fork time.
///  * A **worker child** loops: read a request frame
///    (`<job-index> <fault-key> <remaining-ms> <trace-id> <trace?>`),
///    open a fresh ScopedFaultKey for the job (so injected faults are
///    per-obligation deterministic at every --jobs width and identical
///    on retries), run the job closure (which keeps the Z3 world of the
///    set it is proving across requests) under a fresh child telemetry
///    session carrying the request's trace ID, and write the serialized
///    ObligationResult back — followed, when tracing is on, by the
///    child's span buffer, which the parent merges into the ambient
///    recorder so one Chrome trace shows both sides of the fork.
///
/// Supervision (the watchdog) lives in run(): every request carries a
/// wall deadline and an rss budget enforced by Subprocess::readFrame.
/// A worker that crashes (EOF / torn frame), hangs (deadline), or
/// balloons (rss) is SIGKILLed and replaced in its lane — with
/// exponential backoff plus a deterministic stagger so a crash storm
/// cannot busy-loop forks. The same obligation is retried on the fresh
/// worker up to MaxRestarts times; past that it is **quarantined**:
/// reported unknown(EK_WorkerCrash), which the checker maps to an
/// Unproven verdict, and the lane forks its next worker when it next
/// runs a job. The run always completes; containment degrades answers,
/// never availability.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_CHECKER_PROVERWORKERPOOL_H
#define COBALT_CHECKER_PROVERWORKERPOOL_H

#include "checker/Soundness.h"
#include "support/Subprocess.h"

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace cobalt {
namespace checker {

class ProverWorkerPool {
public:
  struct Config {
    unsigned Workers = 1; ///< Lanes, one worker subprocess each.
    /// Watchdog wall budget per request (ms). A worker that has not
    /// answered by then is killed and counted as hung.
    unsigned WallMs = 60000;
    /// Watchdog rss budget per request (MB of *growth* while the request
    /// runs — the fork-inherited baseline is free); 0 = unwatched.
    unsigned RssMb = 0;
    /// Fresh workers tried per obligation before quarantining it.
    unsigned MaxRestarts = 2;
  };

  /// Executed in the worker child: discharge job \p Index with
  /// \p RemainingMs of the definition's wall budget left (< 0 =
  /// unlimited). Runs under the job's ScopedFaultKey (the pool opens it).
  using JobRunner =
      std::function<ObligationResult(size_t Index, int64_t RemainingMs)>;

  ProverWorkerPool(const Config &C, JobRunner Run);
  ~ProverWorkerPool(); ///< stop()s.

  ProverWorkerPool(const ProverWorkerPool &) = delete;
  ProverWorkerPool &operator=(const ProverWorkerPool &) = delete;

  /// Forks one worker per lane. Call before fanning jobs onto threads —
  /// this is the one fork done from a quiescent parent. False when no
  /// worker could be forked (caller should fall back to in-process); a
  /// lane whose fork failed retries it on its first job.
  bool start();

  /// Kills every worker. Call once no run() is in flight.
  void stop();

  /// Discharges job \p Index on lane \p Lane's worker. Thread-safe as
  /// long as no two concurrent calls share a lane (ThreadPool lanes are
  /// unique among a batch's running jobs). \p Name and \p FaultKey
  /// identify the obligation in the request frame and in quarantine
  /// messages; \p TraceId is the request's trace ID, carried into the
  /// child so worker spans join the request's trace. Never throws and
  /// always returns a result: on repeated worker death the result is
  /// unknown(EK_WorkerCrash).
  ObligationResult run(unsigned Lane, size_t Index, const std::string &Name,
                       uint64_t FaultKey, int64_t RemainingMs,
                       uint64_t TraceId = 0);

private:
  using WorkerPtr = std::unique_ptr<support::Subprocess>;

  /// The child-side serve loop (runs after fork, single-threaded).
  int childLoop(int SocketFd);
  /// Forks one worker; registers its fd for sibling closing.
  WorkerPtr spawnOne();
  /// Kills a worker and drops its fd from the books.
  void discard(WorkerPtr W);

  Config C;
  JobRunner Run;
  /// Lane L's worker, touched only by the job running on lane L; null
  /// once killed, until the lane forks its replacement.
  std::vector<WorkerPtr> Lanes;
  std::mutex M;            ///< Guards AllFds.
  std::vector<int> AllFds; ///< Parent-side fds of live workers.
};

} // namespace checker
} // namespace cobalt

#endif // COBALT_CHECKER_PROVERWORKERPOOL_H
