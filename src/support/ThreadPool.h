//===- ThreadPool.h - Fixed-width lane pool for pipeline jobs ---*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread pool the whole pipeline shares: the soundness checker
/// fans proof obligations into it (each job owns a fresh Z3 context), and
/// the pass manager fans per-procedure pipeline runs into it. A
/// CobaltService owns one pool sized by its `Jobs` config, and every
/// request it serves runs on that pool.
///
/// Design points:
///
///  * **Lanes.** `ThreadPool(N)` runs N lanes: the thread that calls
///    parallelFor is lane 0 of its batch, and the pool owns N-1 worker
///    threads, lanes 1..N-1. `jobs()` counts lanes, so a batch never
///    has more than N jobs in flight. `ThreadPool(1)` has no workers at
///    all: the caller runs every index in order — `--jobs 1` is
///    genuinely the sequential pipeline. A running job reads its lane
///    with currentLane(); the lane is unique among its batch's running
///    jobs, which is what lets a caller give each lane a private
///    resource (the checker gives each lane its own prover worker).
///
///  * **Per-batch claiming.** Each parallelFor call is a batch with its
///    own index counter. Workers claim indices from any open batch; a
///    caller claims only from its own, so concurrent callers never run
///    each other's jobs, and a job may itself call parallelFor on the
///    same pool (its caller drains the inner batch if no worker is free).
///
///  * **Deterministic fan-out.** `parallelFor(N, Body)` runs Body(0..N-1)
///    with results keyed by index, not by completion order; callers write
///    into index `I` of a pre-sized output vector, so collection order
///    never depends on scheduling.
///
///  * **Exception discipline.** A job that throws does not kill a lane:
///    parallelFor captures per-index exceptions, runs every remaining
///    index, and rethrows the lowest-index exception after the batch
///    completes — what a sequential loop would have thrown first.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_THREADPOOL_H
#define COBALT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cobalt {
namespace support {

class ThreadPool {
public:
  /// \p Lanes concurrent jobs; 0 means "one per hardware thread"
  /// (std::thread::hardware_concurrency). Spawns Lanes - 1 workers.
  explicit ThreadPool(unsigned Lanes = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Degree of parallelism: the number of lanes (>= 1).
  unsigned jobs() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// The lane of the job running on this thread, in [0, jobs()): 0 on a
  /// parallelFor caller, the worker's index on a pool worker.
  static unsigned currentLane();

  /// Runs Body(I) for every I in [0, N) on this thread and the pool's
  /// workers, blocking until all complete. If any body throws, the
  /// exception of the lowest failing index is rethrown after the whole
  /// batch has finished (no index is skipped or abandoned half-run).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  struct Batch;

  /// Worker \p Lane's loop; the lane doubles as its trace lane.
  void workerLoop(unsigned Lane);
  /// Claims \p B's next index; the caller holds M and B has one left.
  size_t claimLocked(Batch &B);
  static void runIndex(Batch &B, size_t I);

  std::mutex M; ///< Guards Open, ShuttingDown and every open Batch.
  std::condition_variable WorkReady;
  std::vector<Batch *> Open; ///< Batches with unclaimed indices.
  bool ShuttingDown = false;
  std::vector<std::thread> Workers; ///< Lanes 1..N-1, in lane order.
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_THREADPOOL_H
