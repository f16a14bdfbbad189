//===- ThreadPool.h - Fixed-size worker pool for pipeline jobs --*- C++ -*-===//
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
///  * **Inline mode.** A pool with fewer than two workers executes jobs
///    inline on the submitting thread — `--jobs 1` is genuinely the
///    sequential pipeline, with zero thread machinery in the way. This is
///    what makes "parallel results are bit-identical to sequential"
///    testable: both paths run the same job bodies in the same order or
///    in a deterministic merge of it.
///
///  * **Deterministic fan-out.** `parallelFor(N, Body)` runs Body(0..N-1)
///    with results keyed by index, not by completion order; callers write
///    into index `I` of a pre-sized output vector, so collection order
///    never depends on scheduling.
///
///  * **Exception discipline.** A job that throws does not kill a worker:
///    parallelFor captures per-index exceptions and rethrows the
///    lowest-index one after the batch completes (again: deterministic,
///    matching what a sequential loop would have thrown first).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_THREADPOOL_H
#define COBALT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cobalt {
namespace support {

class ThreadPool {
public:
  /// \p Threads worker threads; 0 means "one per hardware thread"
  /// (std::thread::hardware_concurrency). With Threads <= 1 no workers
  /// are spawned and every job runs inline on the submitting thread.
  explicit ThreadPool(unsigned Threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Degree of parallelism: number of workers, or 1 in inline mode.
  unsigned jobs() const {
    return Workers.empty() ? 1u : static_cast<unsigned>(Workers.size());
  }
  bool inlineMode() const { return Workers.empty(); }

  /// Runs Body(I) for every I in [0, N), blocking until all complete.
  /// Inline mode runs them in index order on this thread. If any body
  /// throws, the exception of the lowest failing index is rethrown after
  /// the whole batch has finished (no job is abandoned half-run).
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  /// \p Index identifies the worker: it becomes trace lane Index + 1
  /// (lane 0 is the submitting/driver thread) via
  /// TraceRecorder::setCurrentLane.
  void workerLoop(unsigned Index);

  std::vector<std::thread> Workers;
  std::mutex QueueMutex;
  std::condition_variable QueueReady;
  std::queue<std::function<void()>> Queue;
  bool ShuttingDown = false;
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_THREADPOOL_H
