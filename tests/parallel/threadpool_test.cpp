//===- threadpool_test.cpp - The deterministic fan-out primitive ----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support::ThreadPool, the one concurrency primitive the
/// parallel checker and pass manager are built on. The contract under
/// test: parallelFor covers every index exactly once, width N means N
/// lanes — the caller plus N-1 workers, so width 1 runs inline on the
/// caller — each running job sees a lane unique in its batch, a caller
/// runs only its own batch, and exceptions surface deterministically
/// (lowest failing index) regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using cobalt::support::ThreadPool;

TEST(ThreadPoolTest, WidthOneIsInlineWithNoWorkers) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1u);

  // With no workers the caller runs every index, in index order, on
  // lane 0.
  std::vector<size_t> Order;
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(5, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    EXPECT_EQ(ThreadPool::currentLane(), 0u);
    Order.push_back(I);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, WidthZeroMeansHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.jobs(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  constexpr size_t N = 257; // deliberately not a multiple of the width
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool Pool(4);
  Pool.parallelFor(0, [&](size_t) { FAIL() << "body ran for N=0"; });
}

TEST(ThreadPoolTest, LowestFailingIndexIsRethrownDeterministically) {
  // Indices 3 and 7 both throw; whichever thread finishes first, the
  // caller must always observe index 3's exception. Repeat to give a
  // racy implementation a chance to misbehave.
  for (int Round = 0; Round < 20; ++Round) {
    ThreadPool Pool(4);
    try {
      Pool.parallelFor(16, [&](size_t I) {
        if (I == 3 || I == 7)
          throw std::runtime_error("boom at " + std::to_string(I));
      });
      FAIL() << "exception swallowed";
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "boom at 3");
    }
  }
}

TEST(ThreadPoolTest, RemainingIndicesStillRunAfterAThrow) {
  // One failing index must not abandon the rest of the range: every
  // index is still visited exactly once (the parallel checker relies on
  // this — one faulted obligation may not silently skip its siblings).
  ThreadPool Pool(4);
  constexpr size_t N = 64;
  std::vector<std::atomic<unsigned>> Hits(N);
  try {
    Pool.parallelFor(N, [&](size_t I) {
      ++Hits[I];
      if (I == 5)
        throw std::runtime_error("one bad job");
    });
  } catch (const std::runtime_error &) {
  }
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool Pool(3);
  std::atomic<size_t> Total{0};
  for (int Round = 0; Round < 8; ++Round)
    Pool.parallelFor(10, [&](size_t) { ++Total; });
  EXPECT_EQ(Total.load(), 80u);
}

TEST(ThreadPoolTest, WidthFourRunsExactlyFourLanes) {
  // Every job blocks until four have started, so four lanes must run at
  // once; a fifth concurrent job would mean the caller and four workers.
  ThreadPool Pool(4);
  constexpr unsigned Lanes = 4;
  constexpr size_t N = 12;
  std::mutex M;
  std::condition_variable Cv;
  unsigned Started = 0, Running = 0, MaxRunning = 0;
  std::set<std::thread::id> Threads;
  std::set<unsigned> RunningLanes;
  std::vector<std::string> Violations;
  const std::thread::id Caller = std::this_thread::get_id();

  Pool.parallelFor(N, [&](size_t) {
    const unsigned Lane = ThreadPool::currentLane();
    const bool OnCaller = std::this_thread::get_id() == Caller;
    std::unique_lock<std::mutex> Lock(M);
    if (Lane >= Lanes)
      Violations.push_back("lane " + std::to_string(Lane) + " out of range");
    if ((Lane == 0) != OnCaller)
      Violations.push_back("lane " + std::to_string(Lane) +
                           (OnCaller ? " on the caller" : " off the caller"));
    if (!RunningLanes.insert(Lane).second)
      Violations.push_back("lane " + std::to_string(Lane) + " ran twice");
    Threads.insert(std::this_thread::get_id());
    MaxRunning = std::max(MaxRunning, ++Running);
    ++Started;
    Cv.notify_all();
    // The deadline only keeps a broken pool from hanging the test.
    Cv.wait_for(Lock, std::chrono::seconds(10),
                [&] { return Started >= Lanes; });
    // Linger so a would-be fifth lane gets the chance to overlap.
    Lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Lock.lock();
    --Running;
    RunningLanes.erase(Lane);
  });

  EXPECT_TRUE(Violations.empty()) << Violations.front();
  EXPECT_EQ(MaxRunning, Lanes);
  EXPECT_EQ(Threads.size(), Lanes);
  EXPECT_EQ(Threads.count(Caller), 1u);
}

TEST(ThreadPoolTest, CallersRunOnlyTheirOwnBatch) {
  // Two threads share one pool. Each batch's indices may run on its own
  // caller or on a pool worker, never on the other caller.
  ThreadPool Pool(4);
  for (int Round = 0; Round < 10; ++Round) {
    std::thread::id Callers[2];
    std::vector<std::thread::id> Ran[2];
    std::atomic<unsigned> Ready{0};
    auto Submit = [&](int Side) {
      Callers[Side] = std::this_thread::get_id();
      Ran[Side].resize(64);
      ++Ready;
      while (Ready.load() < 2)
        std::this_thread::yield();
      Pool.parallelFor(64, [&, Side](size_t I) {
        Ran[Side][I] = std::this_thread::get_id();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    };
    std::thread A(Submit, 0), B(Submit, 1);
    A.join();
    B.join();
    for (int Side = 0; Side < 2; ++Side)
      for (size_t I = 0; I < 64; ++I)
        EXPECT_NE(Ran[Side][I], Callers[1 - Side])
            << "round " << Round << ": caller " << 1 - Side
            << " ran index " << I << " of the other batch";
  }
}

TEST(ThreadPoolTest, NestedParallelForOnTheSamePoolCompletes) {
  // A job that fans out on its own pool drains the inner batch itself
  // when every worker is busy, so nesting cannot deadlock.
  ThreadPool Pool(2);
  std::vector<std::atomic<unsigned>> Hits(4 * 4);
  Pool.parallelFor(4, [&](size_t Outer) {
    const unsigned OuterLane = ThreadPool::currentLane();
    Pool.parallelFor(4, [&](size_t Inner) {
      EXPECT_LT(ThreadPool::currentLane(), Pool.jobs());
      ++Hits[Outer * 4 + Inner];
    });
    EXPECT_EQ(ThreadPool::currentLane(), OuterLane);
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}
