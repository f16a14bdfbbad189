//===- ThreadPool.cpp -----------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

using namespace cobalt;
using namespace cobalt::support;

namespace {
thread_local unsigned LaneTLS = 0;
} // namespace

/// One parallelFor call. Lives on its caller's stack; the caller returns
/// only after every claimed index has reported back under the pool mutex.
struct ThreadPool::Batch {
  Batch(size_t N, const std::function<void(size_t)> &Body)
      : N(N), Body(Body), Telem(Telemetry::active()),
        Enqueued(std::chrono::steady_clock::now()), Errors(N) {}

  size_t N;
  const std::function<void(size_t)> &Body;
  /// Telemetry is sampled once per batch: the pointer stays valid for
  /// the whole call, and jobs read it without touching the ambient
  /// atomic again. The wait/exec histograms carry wall noise and are for
  /// humans; the jobs counter is deterministic per batch shape.
  Telemetry *Telem;
  std::chrono::steady_clock::time_point Enqueued;
  size_t Next = 0;     ///< Next unclaimed index (guarded by the pool's M).
  size_t Finished = 0; ///< Completed indices (guarded by the pool's M).
  std::condition_variable Done;
  std::vector<std::exception_ptr> Errors; ///< Slot I owned by index I.
};

ThreadPool::ThreadPool(unsigned Lanes) {
  if (Lanes == 0)
    Lanes = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(Lanes - 1);
  for (unsigned Lane = 1; Lane < Lanes; ++Lane)
    Workers.emplace_back([this, Lane] { workerLoop(Lane); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

unsigned ThreadPool::currentLane() { return LaneTLS; }

size_t ThreadPool::claimLocked(Batch &B) {
  size_t I = B.Next++;
  if (B.Next == B.N)
    Open.erase(std::remove(Open.begin(), Open.end(), &B), Open.end());
  return I;
}

void ThreadPool::runIndex(Batch &B, size_t I) {
  auto Start = std::chrono::steady_clock::now();
  if (B.Telem)
    B.Telem->Metrics.observe(
        "threadpool.job_wait_seconds",
        std::chrono::duration<double>(Start - B.Enqueued).count());
  try {
    B.Body(I);
  } catch (...) {
    B.Errors[I] = std::current_exception();
  }
  if (B.Telem)
    B.Telem->Metrics.observe(
        "threadpool.job_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count());
}

void ThreadPool::workerLoop(unsigned Lane) {
  // Worker lanes are fixed for the thread's lifetime, and double as its
  // trace lane (lane 0 is the calling thread).
  LaneTLS = Lane;
  TraceRecorder::setCurrentLane(Lane);
  std::unique_lock<std::mutex> Lock(M);
  for (;;) {
    WorkReady.wait(Lock, [this] { return ShuttingDown || !Open.empty(); });
    if (Open.empty())
      return; // shutting down and drained
    Batch &B = *Open.front();
    size_t I = claimLocked(B);
    Lock.unlock();
    runIndex(B, I);
    Lock.lock();
    if (++B.Finished == B.N)
      B.Done.notify_all();
  }
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  Batch B(N, Body);
  if (B.Telem)
    B.Telem->Metrics.add("threadpool.jobs", N);

  // The caller is lane 0 of its own batch, even when it is a worker
  // running an outer job; it claims only this batch's indices, so with
  // no workers this is the index-order loop.
  const unsigned OuterLane = std::exchange(LaneTLS, 0);
  std::unique_lock<std::mutex> Lock(M);
  Open.push_back(&B);
  WorkReady.notify_all();
  while (B.Next < N) {
    size_t I = claimLocked(B);
    Lock.unlock();
    runIndex(B, I);
    Lock.lock();
    ++B.Finished;
  }
  B.Done.wait(Lock, [&B] { return B.Finished == B.N; });
  Lock.unlock();
  LaneTLS = OuterLane;

  // Deterministic rethrow: the lowest failing index, exactly what a
  // sequential for-loop would have surfaced first.
  for (size_t I = 0; I < N; ++I)
    if (B.Errors[I])
      std::rethrow_exception(B.Errors[I]);
}
