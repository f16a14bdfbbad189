//===- Daemon.h - The cobaltd server loop ----------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived server half of verification-as-a-service (DESIGN.md
/// §13): accepts AF_UNIX connections, reads length-prefixed JSON request
/// frames (service/Protocol.h), drives one shared api::CobaltService,
/// and answers with the same serialized reports cobaltc emits.
///
/// Threading: one accept thread plus one thread per live connection
/// (the accept loop joins finished ones as new connections arrive). A
/// connection's frames are answered strictly in order (pipelining =
/// request batching); frames on *different* connections execute
/// concurrently and the service deduplicates overlapping obligations —
/// the first requester proves, the rest await the shared result.
///
/// The daemon holds a process-lifetime TelemetryScope over the service's
/// telemetry session while running: concurrent per-request scopes then
/// all install the same pointer, so scope teardown in any order cannot
/// drop another request's counters.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SERVICE_DAEMON_H
#define COBALT_SERVICE_DAEMON_H

#include "api/Service.h"
#include "support/Expected.h"
#include "support/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace cobalt {
namespace service {

class JsonValue;

class Daemon {
public:
  /// \p Svc must be fully built. The daemon owns the socket file: it
  /// unlinks a stale one at start() and removes its own at stop().
  Daemon(std::shared_ptr<api::CobaltService> Svc, std::string SocketPath);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds, listens, and spawns the accept thread. EK_IoError when the
  /// socket cannot be created (path too long for sockaddr_un, bind
  /// refused, ...). Idempotence: a second start() fails.
  support::Error start();

  /// Blocks until stop() is called (by any thread, a signal handler via
  /// requestStop(), or a client's "shutdown" command).
  void wait();

  /// Async-signal-safe stop request: flags the loops and lets wait()
  /// return; safe to call from a signal handler.
  void requestStop() { Stopping.store(true, std::memory_order_relaxed); }

  /// Stops accepting, closes live connections, joins all threads, and
  /// removes the socket file. Idempotent.
  void stop();

  const std::string &socketPath() const { return SocketPath; }
  bool running() const { return Running.load(std::memory_order_relaxed); }

private:
  /// One live connection: its socket and the thread serving it.
  struct Connection {
    int Fd;
    std::thread Thread;
  };

  void acceptLoop();
  void serveConnection(int Fd);
  /// Joins the threads of connections that have finished.
  void reapFinished();
  /// One request frame in, one response frame out. Sets \p Shutdown when
  /// the frame was a shutdown command.
  std::string handleFrame(const std::string &Payload, bool &Shutdown);

  std::string handleCheck(const JsonValue &Req, uint64_t TraceId);
  std::string handleRun(const JsonValue &Req, uint64_t TraceId);
  std::string handleValidate(const JsonValue &Req, uint64_t TraceId);
  std::string handlePing();
  std::string handleStats();

  std::shared_ptr<api::CobaltService> Svc;
  std::string SocketPath;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Running{false};
  std::optional<support::TelemetryScope> LifetimeScope;
  std::thread Acceptor;
  std::mutex ConnMutex;
  std::vector<Connection> Conns; ///< Live connections.
  /// Threads of finished connections, not yet joined: an exited thread
  /// keeps its stack until it is joined, so the accept loop joins these
  /// as new connections arrive.
  std::vector<std::thread> Finished;
  std::mutex StopMutex;
  std::condition_variable StopCv;
  bool Stopped = false;
};

} // namespace service
} // namespace cobalt

#endif // COBALT_SERVICE_DAEMON_H
