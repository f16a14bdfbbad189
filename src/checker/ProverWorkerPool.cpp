//===- ProverWorkerPool.cpp -----------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/ProverWorkerPool.h"

#include "support/Errors.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include <sys/wait.h>

using namespace cobalt;
using namespace cobalt::checker;
using support::ErrorKind;
using support::IoStatus;
using support::Subprocess;

namespace {

/// Replacement-fork backoff: exponential in the attempt number with a
/// small deterministic stagger derived from the obligation key, so a
/// crash storm across threads neither busy-loops fork() nor thunders in
/// lockstep. Deterministic on purpose — retry timing must not perturb
/// verdicts, and it does not: only wall time varies.
void backoff(unsigned Attempt, uint64_t Key) {
  unsigned BaseMs = std::min(200u, 10u << std::min(Attempt, 5u));
  unsigned JitterMs =
      static_cast<unsigned>((Key ^ (Key >> 17)) % 13) + Attempt;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(BaseMs + JitterMs));
}

std::string describeExit(int WaitStatus) {
  if (WaitStatus < 0)
    return "not reaped";
  if (WIFEXITED(WaitStatus))
    return "exit " + std::to_string(WEXITSTATUS(WaitStatus));
  if (WIFSIGNALED(WaitStatus))
    return "signal " + std::to_string(WTERMSIG(WaitStatus));
  return "status " + std::to_string(WaitStatus);
}

} // namespace

ProverWorkerPool::ProverWorkerPool(const Config &C, JobRunner Run)
    : C(C), Run(std::move(Run)), Lanes(std::max(1u, C.Workers)) {}

ProverWorkerPool::~ProverWorkerPool() { stop(); }

int ProverWorkerPool::childLoop(int SocketFd) {
  std::string Req;
  while (Subprocess::readFrameBlocking(SocketFd, Req) == IoStatus::IO_Ok) {
    std::istringstream In(Req);
    size_t Index = 0;
    uint64_t Key = 0;
    long long RemainingMs = -1;
    uint64_t TraceId = 0;
    int TraceWanted = 0;
    In >> Index >> std::hex >> Key >> std::dec >> RemainingMs >>
        std::hex >> TraceId >> std::dec >> TraceWanted;
    if (!In)
      return 2; // malformed request: a parent bug, not a prover crash

    // Fresh fault scope per request: ordinals restart at 1, so the same
    // obligation draws the same fault decision on every retry and at
    // every --jobs width. These sites model the prover failure modes the
    // watchdog must contain.
    support::ScopedFaultKey Scope(Key);
    if (support::faultFires(support::faults::WorkerCrash))
      return 42; // Subprocess::spawn _exits with this
    if (support::faultFires(support::faults::WorkerHang))
      for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(1));
    if (support::faultFires(support::faults::WorkerOom)) {
      // Grow the resident set until the rss watchdog reacts; cap the hog
      // so a run without an rss budget falls to the wall watchdog
      // instead of pressuring the host.
      std::vector<std::unique_ptr<char[]>> Hog;
      constexpr size_t ChunkBytes = 4u << 20, CapBytes = 1u << 30;
      while (Hog.size() * ChunkBytes < CapBytes) {
        Hog.push_back(std::make_unique<char[]>(ChunkBytes));
        std::memset(Hog.back().get(), 0x5a, ChunkBytes);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(1));
    }

    // Fresh telemetry session per request: the fork's copy-on-write view
    // of the parent recorder is a dead end (its writes never travel
    // back), so the child records into its own buffer and ships it in
    // the response frame. The ambient trace ID stitches the child's
    // spans to the request that dispatched them.
    support::Telemetry ChildTelem;
    ChildTelem.TraceEnabled = TraceWanted != 0;
    support::TelemetryScope TelemScope(&ChildTelem);
    support::TraceIdScope IdScope(TraceId);
    // One thread per child: lane 0, in the child's own pid track.
    support::TraceRecorder::setCurrentLane(0);
    ObligationResult R;
    {
      support::TraceSpan Span("worker", "discharge");
      R = Run(Index, static_cast<int64_t>(RemainingMs));
      if (Span.enabled())
        Span.arg("ob", R.Name);
    }
    std::string Resp = serializeObligationResult(R);
    if (TraceWanted) {
      // Span buffer rides behind a sentinel line the obresult parser
      // never emits; the parent splits before deserializing.
      Resp += "spans 1\n";
      Resp += ChildTelem.Trace.serializeEvents();
    }
    if (support::faultFires(support::faults::WorkerPartialWrite)) {
      // A torn response: header promising more bytes than follow. The
      // parent must classify this as a crash, never surface the prefix.
      Subprocess::writeTornFrame(SocketFd, Resp);
      return 43;
    }
    if (!Subprocess::writeFrame(SocketFd, Resp))
      return 3; // parent went away
  }
  return 0; // clean shutdown: parent closed its end
}

ProverWorkerPool::WorkerPtr ProverWorkerPool::spawnOne() {
  auto W = std::make_unique<Subprocess>();
  std::vector<int> Siblings;
  {
    std::lock_guard<std::mutex> Lock(M);
    Siblings = AllFds;
  }
  bool Ok = W->spawn([this](int Fd) { return childLoop(Fd); }, Siblings);
  if (!Ok)
    return nullptr;
  {
    std::lock_guard<std::mutex> Lock(M);
    AllFds.push_back(W->socketFd());
  }
  support::metricAdd("worker.spawns");
  return W;
}

bool ProverWorkerPool::start() {
  for (WorkerPtr &W : Lanes)
    W = spawnOne();
  return std::any_of(Lanes.begin(), Lanes.end(),
                     [](const WorkerPtr &W) { return W != nullptr; });
}

void ProverWorkerPool::stop() {
  for (WorkerPtr &W : Lanes)
    discard(std::move(W));
}

void ProverWorkerPool::discard(WorkerPtr W) {
  if (!W)
    return;
  int Fd = W->socketFd();
  W->kill();
  std::lock_guard<std::mutex> Lock(M);
  AllFds.erase(std::remove(AllFds.begin(), AllFds.end(), Fd),
               AllFds.end());
}

ObligationResult ProverWorkerPool::run(unsigned Lane, size_t Index,
                                       const std::string &Name,
                                       uint64_t FaultKey,
                                       int64_t RemainingMs,
                                       uint64_t TraceId) {
  support::Telemetry *T = support::Telemetry::active();
  const bool TraceWanted = T && T->TraceEnabled;
  std::ostringstream Req;
  Req << Index << " " << std::hex << FaultKey << std::dec << " "
      << RemainingMs << " " << std::hex << TraceId << std::dec << " "
      << (TraceWanted ? 1 : 0);
  const std::string Frame = Req.str();
  const long RssLimit =
      C.RssMb ? static_cast<long>(C.RssMb) * (1l << 20) : 0;

  WorkerPtr &W = Lanes.at(Lane);
  std::string LastWhy = "no worker available";
  for (unsigned Attempt = 0; Attempt <= C.MaxRestarts; ++Attempt) {
    if (Attempt)
      backoff(Attempt, FaultKey);
    if (!W) {
      // Replace the lane's dead worker in place.
      auto ForkStart = std::chrono::steady_clock::now();
      W = spawnOne();
      if (!W)
        break;
      if (Attempt) {
        // Recovery latency: backoff excluded, fork + books included.
        support::metricAdd("worker.restarts");
        support::metricObserve(
            "worker.respawn_ms",
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - ForkStart)
                .count());
      }
    }

    std::string Resp;
    IoStatus St = W->writeFrame(Frame)
                      ? W->readFrame(Resp, C.WallMs, RssLimit)
                      : IoStatus::IO_Error;
    if (St == IoStatus::IO_Ok) {
      // The child's span buffer rides behind a sentinel line; split it
      // off before handing the payload to the obresult parser.
      std::string Spans;
      static constexpr char Marker[] = "\nspans 1\n";
      if (size_t Pos = Resp.find(Marker); Pos != std::string::npos) {
        Spans = Resp.substr(Pos + sizeof(Marker) - 1);
        Resp.resize(Pos + 1);
      }
      if (std::optional<ObligationResult> R =
              deserializeObligationResult(Resp)) {
        if (TraceWanted && !Spans.empty()) {
          T->Trace.importSerialized(Spans, W->pid());
          T->Trace.setProcessName(W->pid(), "prover-worker");
        }
        return *R;
      }
      St = IoStatus::IO_Error; // decodable frame, undecodable payload
      LastWhy = "undecodable worker response";
    }

    // The request failed: classify and kill; the next attempt forks the
    // lane's replacement. The kill-then-reap in discard() also recovers
    // the exit status for the message.
    const char *Metric = "worker.crashes";
    switch (St) {
    case IoStatus::IO_Timeout:
      LastWhy = "watchdog: wall budget (" + std::to_string(C.WallMs) +
                " ms) exceeded";
      Metric = "worker.kills_wall";
      break;
    case IoStatus::IO_RssExceeded:
      LastWhy = "watchdog: rss budget (" + std::to_string(C.RssMb) +
                " MB) exceeded";
      Metric = "worker.kills_rss";
      break;
    case IoStatus::IO_Eof:
      W->kill(); // reaps (blocking), recording the exit status
      LastWhy = "worker died mid-request (" +
                describeExit(W->exitStatus()) + ")";
      break;
    default:
      if (LastWhy == "no worker available")
        LastWhy = "worker I/O error";
      break;
    }
    support::metricAdd(Metric);
    if (TraceWanted) {
      // A zero-length span on this lane: which obligation's worker died
      // and why, even when a retry then succeeds.
      support::TraceEvent Kill;
      Kill.Cat = "worker";
      Kill.Name = "kill";
      Kill.Lane = support::TraceRecorder::currentLane();
      Kill.StartUs = T->Trace.nowUs();
      Kill.TraceId = TraceId;
      Kill.Args = {{"ob", Name}, {"why", LastWhy}};
      T->Trace.record(std::move(Kill));
    }
    discard(std::move(W));
  }

  // Quarantine: this obligation has consumed its worker budget. Degrade
  // it to unproven — never cached, never fatal — and let the run finish.
  support::metricAdd("worker.quarantined");
  ObligationResult R;
  R.Name = Name;
  R.St = ObligationResult::Status::OS_Unknown;
  R.Err = support::Error(
      ErrorKind::EK_WorkerCrash,
      "quarantined after " + std::to_string(C.MaxRestarts + 1) +
          " worker attempts; last failure: " + LastWhy);
  return R;
}
