//===- Daemon.cpp ---------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "api/ReportJson.h"
#include "ir/Printer.h"
#include "service/Protocol.h"
#include "support/JsonEscape.h"
#include "support/Subprocess.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cobalt;
using namespace cobalt::service;
using support::ErrorKind;

Daemon::Daemon(std::shared_ptr<api::CobaltService> Svc,
               std::string SocketPath)
    : Svc(std::move(Svc)), SocketPath(std::move(SocketPath)) {}

Daemon::~Daemon() { stop(); }

support::Error Daemon::start() {
  if (Running.load(std::memory_order_relaxed) || ListenFd != -1)
    return support::Error(ErrorKind::EK_IoError, "daemon already started");

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return support::Error(ErrorKind::EK_IoError,
                          "socket path too long: " + SocketPath);
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return support::Error(ErrorKind::EK_IoError, "socket() failed");
  // A stale socket file from a crashed daemon would make bind fail;
  // removing it is safe because connect() to a dead socket fails anyway.
  ::unlink(SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    ::close(Fd);
    return support::Error(ErrorKind::EK_IoError,
                          "cannot bind/listen on '" + SocketPath + "'");
  }
  ListenFd = Fd;
  Running.store(true, std::memory_order_relaxed);
  // The lifetime scope that makes concurrent per-request scopes
  // value-idempotent (see the class comment).
  LifetimeScope.emplace(Svc->telemetry());
  Acceptor = std::thread([this] { acceptLoop(); });
  return {};
}

void Daemon::acceptLoop() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    pollfd P{ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, /*timeout_ms=*/100);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0 || !(P.revents & POLLIN))
      continue;
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn < 0)
      continue;
    reapFinished();
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (Stopping.load(std::memory_order_relaxed)) {
      ::close(Conn);
      break;
    }
    Conns.push_back(
        {Conn, std::thread([this, Conn] { serveConnection(Conn); })});
  }
  // Wake wait()ers: either stop() was requested or the listener died.
  Stopping.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(StopMutex);
  StopCv.notify_all();
}

void Daemon::serveConnection(int Fd) {
  std::string Payload;
  while (!Stopping.load(std::memory_order_relaxed)) {
    // Blocking read is fine: stop() shutdown(2)s the fd, turning this
    // into IO_Eof.
    support::IoStatus St = support::Subprocess::readFrameBlocking(Fd, Payload);
    if (St != support::IoStatus::IO_Ok)
      break;
    bool Shutdown = false;
    std::string Response = handleFrame(Payload, Shutdown);
    if (!support::Subprocess::writeFrame(Fd, Response))
      break;
    if (Shutdown) {
      requestStop();
      std::lock_guard<std::mutex> Lock(StopMutex);
      StopCv.notify_all();
      break;
    }
  }
  // Retire the connection: close its fd here and hand its thread to
  // Finished, so a long-lived daemon accumulates neither fds nor stacks
  // of finished connections. (stop() may already hold the thread.)
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto It = Conns.begin(); It != Conns.end(); ++It)
    if (It->Fd == Fd) {
      Finished.push_back(std::move(It->Thread));
      Conns.erase(It);
      break;
    }
  ::shutdown(Fd, SHUT_RDWR);
  ::close(Fd);
}

void Daemon::reapFinished() {
  std::vector<std::thread> Done;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Done.swap(Finished);
  }
  for (std::thread &T : Done)
    if (T.joinable())
      T.join();
}

std::string Daemon::handleFrame(const std::string &Payload, bool &Shutdown) {
  std::string ParseErr;
  std::optional<JsonValue> Req = parseJson(Payload, &ParseErr);
  if (!Req || Req->K != JsonValue::Kind::JK_Object)
    return "{\"status\": \"error\", \"error\": \"parse_error\", "
           "\"reason\": \"" +
           support::jsonEscape(ParseErr.empty() ? "request is not an object"
                                            : ParseErr) +
           "\"}";
  const JsonValue *Cmd = Req->find("cmd");
  std::string Name = Cmd ? Cmd->asString() : std::string();

  // Trace context: a client-supplied trace_id is adopted verbatim; a
  // frame without one gets a freshly minted ID. Either way every span
  // this frame produces — daemon, service, and prover workers across
  // the fork — carries the same 64-bit ID.
  uint64_t TraceId = 0;
  if (const JsonValue *V = Req->find("trace_id"))
    TraceId = V->asU64();
  if (TraceId == 0)
    TraceId = support::mintTraceId();
  support::TraceIdScope IdScope(TraceId);

  // Per-request-type latency histograms (ms): the p50/p90/p99 the stats
  // frame reports per command.
  auto Start = std::chrono::steady_clock::now();
  auto Observe = [&Start](const char *Metric) {
    support::metricObserve(
        Metric, std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count());
  };

  if (Name == "ping")
    return handlePing();
  if (Name == "check") {
    support::TraceSpan Span("daemon", "check");
    std::string Resp = handleCheck(*Req, TraceId);
    Observe("service.latency.check");
    return Resp;
  }
  if (Name == "run") {
    support::TraceSpan Span("daemon", "run");
    std::string Resp = handleRun(*Req, TraceId);
    Observe("service.latency.run");
    return Resp;
  }
  if (Name == "validate") {
    support::TraceSpan Span("daemon", "validate");
    std::string Resp = handleValidate(*Req, TraceId);
    Observe("service.latency.validate");
    return Resp;
  }
  if (Name == "stats") {
    support::TraceSpan Span("daemon", "stats");
    std::string Resp = handleStats();
    Observe("service.latency.stats");
    return Resp;
  }
  if (Name == "shutdown") {
    Shutdown = true;
    return "{\"status\": \"ok\", \"stopping\": true}";
  }
  return "{\"status\": \"error\", \"error\": \"parse_error\", "
         "\"reason\": \"unknown cmd '" +
         support::jsonEscape(Name) + "'\"}";
}

std::string Daemon::handlePing() {
  return "{\"status\": \"ok\", \"protocol\": " +
         std::to_string(ProtocolVersion) +
         ", \"definitions\": " + std::to_string(Svc->definitionCount()) +
         "}";
}

std::string Daemon::handleCheck(const JsonValue &Req, uint64_t TraceId) {
  api::CheckRequest CR;
  CR.Only = Req.stringList("only");
  CR.TraceId = TraceId;
  if (const JsonValue *V = Req.find("jobs"))
    CR.Jobs = static_cast<unsigned>(V->asU64());
  if (const JsonValue *V = Req.find("budget_ms"))
    CR.BudgetMs = V->asI64(-1);
  if (const JsonValue *V = Req.find("fault_salt"))
    CR.FaultKeySalt = V->asU64();

  api::CheckResponse R = Svc->check(CR);
  if (R.Status == api::ResponseStatus::RS_Error)
    return "{\"status\": \"error\", \"error\": \"" +
           std::string(R.Err.kindName()) + "\", \"reason\": \"" +
           support::jsonEscape(R.Err.Message) + "\"}";

  std::string Out = "{\n  \"status\": \"ok\",\n";
  api::emitDefinitionsJson(Out, R.Suite.Reports);
  Out += ",\n  \"remarks\": [";
  for (size_t I = 0; I < R.Remarks.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + support::jsonEscape(R.Remarks[I].str()) + "\"";
  }
  Out += "],\n  \"exit\": " +
         std::to_string(api::CobaltService::exitCodeFor(
             R.Suite, /*PipelineDegraded=*/false)) +
         "\n}";
  return Out;
}

std::string Daemon::handleRun(const JsonValue &Req, uint64_t TraceId) {
  const JsonValue *Program = Req.find("program");
  if (!Program || Program->K != JsonValue::Kind::JK_String)
    return "{\"status\": \"error\", \"error\": \"parse_error\", "
           "\"reason\": \"run requires a 'program' string\"}";
  support::Expected<ir::Program> Prog = Svc->parseProgram(Program->Str);
  if (!Prog)
    return "{\"status\": \"error\", \"error\": \"" +
           std::string(Prog.error().kindName()) + "\", \"reason\": \"" +
           support::jsonEscape(Prog.error().Message) + "\"}";

  api::PipelineRequest PR;
  PR.Prog = Prog.take();
  PR.TraceId = TraceId;
  PR.PassNames = Req.stringList("selected");
  if (const JsonValue *V = Req.find("selected_only"))
    PR.SelectedOnly = V->asBool();
  if (const JsonValue *V = Req.find("jobs"))
    PR.Jobs = static_cast<unsigned>(V->asU64());

  api::PipelineResponse R = Svc->run(std::move(PR));
  std::string Out = "{\n  \"status\": \"ok\",\n";
  api::emitPipelineJson(Out, R.Result.Reports);
  Out += ",\n  \"applied\": " + std::to_string(R.Result.Applied);
  Out += ",\n  \"degraded\": ";
  Out += R.Result.Degraded ? "true" : "false";
  Out += ",\n  \"optimized_il\": \"" +
         support::jsonEscape(ir::toString(R.Prog)) + "\"";
  Out += ",\n  \"exit\": " + std::to_string(R.Result.Degraded ? 3 : 0);
  Out += "\n}";
  return Out;
}

std::string Daemon::handleValidate(const JsonValue &Req, uint64_t TraceId) {
  const JsonValue *Original = Req.find("original");
  const JsonValue *Candidate = Req.find("candidate");
  if (!Original || Original->K != JsonValue::Kind::JK_String ||
      !Candidate || Candidate->K != JsonValue::Kind::JK_String)
    return "{\"status\": \"error\", \"error\": \"parse_error\", "
           "\"reason\": \"validate requires 'original' and 'candidate' "
           "strings\"}";
  support::Expected<ir::Program> Orig = Svc->parseProgram(Original->Str);
  if (!Orig)
    return "{\"status\": \"error\", \"error\": \"" +
           std::string(Orig.error().kindName()) + "\", \"reason\": \"" +
           support::jsonEscape("original: " + Orig.error().Message) + "\"}";
  support::Expected<ir::Program> Cand = Svc->parseProgram(Candidate->Str);
  if (!Cand)
    return "{\"status\": \"error\", \"error\": \"" +
           std::string(Cand.error().kindName()) + "\", \"reason\": \"" +
           support::jsonEscape("candidate: " + Cand.error().Message) + "\"}";

  api::ValidateRequest VR;
  VR.Original = Orig.take();
  VR.Candidate = Cand.take();
  VR.TraceId = TraceId;
  if (const JsonValue *V = Req.find("jobs"))
    VR.Jobs = static_cast<unsigned>(V->asU64());
  if (const JsonValue *V = Req.find("budget_ms"))
    VR.BudgetMs = V->asI64(-1);
  if (const JsonValue *V = Req.find("fault_salt"))
    VR.FaultKeySalt = V->asU64();

  api::ValidateResponse R = Svc->validate(std::move(VR));
  if (R.Status == api::ResponseStatus::RS_Error)
    return "{\"status\": \"error\", \"error\": \"" +
           std::string(R.Err.kindName()) + "\", \"reason\": \"" +
           support::jsonEscape(R.Err.Message) + "\"}";

  std::string Out = "{\n  \"status\": \"ok\",\n";
  api::emitValidationJson(Out, R.Report);
  Out += ",\n  \"exit\": " +
         std::to_string(api::CobaltService::exitCodeFor(R.Report));
  Out += "\n}";
  return Out;
}

std::string Daemon::handleStats() {
  std::string Out = "{\"status\": \"ok\", \"definitions\": " +
                    std::to_string(Svc->definitionCount());
  Out += ", \"cache_hits\": " + std::to_string(Svc->cacheHits());
  if (support::Telemetry *T = Svc->telemetry()) {
    // The metrics registry renders itself as a JSON document; embed it
    // raw (it is already valid JSON with byte-stable key order).
    Out += ", \"metrics\": " + T->Metrics.json();
  }
  Out += "}";
  return Out;
}

void Daemon::wait() {
  std::unique_lock<std::mutex> Lock(StopMutex);
  StopCv.wait(Lock, [this] {
    return Stopping.load(std::memory_order_relaxed) || Stopped;
  });
}

void Daemon::stop() {
  Stopping.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    StopCv.notify_all();
  }
  if (Acceptor.joinable())
    Acceptor.join();
  // Wake every live connection (its blocking read sees EOF) and join
  // it; each closes its own fd on the way out.
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (Connection &C : Conns) {
      ::shutdown(C.Fd, SHUT_RDWR);
      Threads.push_back(std::move(C.Thread));
    }
  }
  for (std::thread &T : Threads)
    T.join();
  reapFinished();
  if (ListenFd != -1) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(SocketPath.c_str());
  }
  LifetimeScope.reset();
  Running.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(StopMutex);
  Stopped = true;
  StopCv.notify_all();
}
