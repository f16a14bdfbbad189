//===- bench_pipeline.cpp - Experiment E6b: full pipelines ----------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end pipelines over generated programs: the §2.3 PRE pipeline
/// (duplicate → CSE → self-assignment removal) and the full registered
/// suite, measured per program size. Counters report how many rewrites
/// actually fired, so the series doubles as a transformation census.
///
//===----------------------------------------------------------------------===//

#include "engine/PassManager.h"
#include "ir/Generator.h"
#include "opts/Optimizations.h"

#include <benchmark/benchmark.h>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

Program makeProgram(unsigned Stmts, uint64_t Seed) {
  GenOptions Options;
  Options.NumStmts = Stmts;
  Options.NumVars = 5;
  Options.WithPointers = true;
  return generateProgram(Options, Seed);
}

void BM_PrePipeline(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)), 7);
  PassManager PM;
  PM.addOptimization(opts::preDuplicate());
  PM.addOptimization(opts::cse());
  PM.addOptimization(opts::selfAssignRemoval());
  uint64_t Applied = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Program Copy = Prog;
    State.ResumeTiming();
    for (const PassReport &R : PM.run(Copy))
      Applied += R.AppliedCount;
  }
  State.counters["applied"] =
      benchmark::Counter(static_cast<double>(Applied),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PrePipeline)->Arg(25)->Arg(100)->Arg(400);

void BM_FullSuite(benchmark::State &State) {
  Program Prog = makeProgram(static_cast<unsigned>(State.range(0)), 11);
  PassManager PM;
  for (PureAnalysis &A : opts::allAnalyses())
    PM.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    PM.addOptimization(std::move(O));
  uint64_t Applied = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Program Copy = Prog;
    State.ResumeTiming();
    for (const PassReport &R : PM.run(Copy))
      Applied += R.AppliedCount;
  }
  State.counters["applied"] =
      benchmark::Counter(static_cast<double>(Applied),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FullSuite)->Arg(25)->Arg(100)->Arg(400);

} // namespace

BENCHMARK_MAIN();
