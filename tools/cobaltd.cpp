//===- cobaltd.cpp - The Cobalt verification daemon -----------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Verification-as-a-service (DESIGN.md §13): load modules once, build
/// an immutable CobaltService, and serve check/run/validate/stats
/// requests over an AF_UNIX socket until shutdown.
///
///   cobaltd <module.cob>... --socket <path> [flags]
///
/// A module path of "stdlib" loads the bundled standard module. Flags
/// come from the same table as cobaltc (tools/Flags.cpp):
///
///   --socket <path>        AF_UNIX socket to listen on (required)
///   --jobs <n>             service thread pool width (0 = hardware)
///   --cache-dir <dir>      disk tier behind the in-memory verdict store
///   --telemetry            keep a metrics session for "stats" (spans are
///                          kept only with --trace-out=)
///   --trace-out=FILE       write the daemon's lifetime Chrome trace on
///                          clean shutdown (implies --telemetry)
///   --metrics-out=FILE     write the lifetime metrics registry as JSON
///                          on clean shutdown (implies --telemetry)
///   --prover-* / --worker-* / --isolate-workers
///                          prover policy, identical to cobaltc
///
/// On success prints one readiness line to stdout:
///
///   cobaltd: listening on <socket> (<N> definitions)
///
/// and serves until SIGINT/SIGTERM or a client "shutdown" request.
/// Exit: 0 clean shutdown, 2 usage/startup failure.
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "service/Daemon.h"
#include "support/FaultInjection.h"

#include "Flags.h"

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

using namespace cobalt;

namespace {

constexpr unsigned DaemonFlagSets =
    cli::FS_Core | cli::FS_Prover | cli::FS_Service | cli::FS_Telemetry;

int usage() {
  std::fprintf(stderr,
               "usage: cobaltd <module.cob>... --socket <path> [flags]\n"
               "       (a module path of \"stdlib\" loads the bundled "
               "module)\n"
               "%s"
               "exit:  0 clean shutdown; 2 usage/startup failure\n",
               cli::flagUsage(DaemonFlagSets).c_str());
  return 2;
}

/// Signal handling: handlers may only do async-signal-safe work, and
/// Daemon::requestStop is exactly that (one atomic store). The accept
/// loop polls the flag every 100 ms.
service::Daemon *ActiveDaemon = nullptr;

void onSignal(int) {
  if (ActiveDaemon)
    ActiveDaemon->requestStop();
}

} // namespace

int main(int Argc, char **Argv) {
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (!FI.empty())
    std::fprintf(stderr,
                 "cobaltd: fault injection active (COBALT_FAULTS)\n");

  cli::CommonOptions Opts;
  std::vector<const char *> Positional;
  if (!cli::parseFlags(Argc, Argv, "cobaltd", DaemonFlagSets, Opts,
                       Positional))
    return usage();
  if (Positional.empty()) {
    std::fprintf(stderr, "cobaltd: no modules given\n");
    return usage();
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "cobaltd: --socket is required\n");
    return usage();
  }

  api::CobaltService::Builder B;
  B.config(Opts.Config);
  for (const char *Path : Positional) {
    support::Expected<CobaltModule> Module = api::loadModule(Path);
    if (!Module) {
      std::fprintf(stderr, "cobaltd: %s: %s\n", Path,
                   Module.error().Message.c_str());
      return 2;
    }
    B.addModule(std::move(*Module));
  }
  std::shared_ptr<api::CobaltService> Svc = B.build();
  // A daemon lives long: keep every request's spans only when they will
  // be written out. (Prover workers follow the same switch.)
  if (support::Telemetry *T = Svc->telemetry())
    T->TraceEnabled = !Opts.TraceOut.empty();

  service::Daemon D(Svc, Opts.SocketPath);
  if (support::Error E = D.start(); E.failed()) {
    std::fprintf(stderr, "cobaltd: %s\n", E.str().c_str());
    return 2;
  }
  ActiveDaemon = &D;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // SIGPIPE would kill the daemon when a client disconnects mid-write.
  std::signal(SIGPIPE, SIG_IGN);

  // The readiness line: scripts (and the test suite) wait for it before
  // connecting, so flush immediately.
  std::printf("cobaltd: listening on %s (%zu definitions)\n",
              D.socketPath().c_str(), Svc->definitionCount());
  std::fflush(stdout);

  D.wait();
  D.stop();
  ActiveDaemon = nullptr;

  // Lifetime telemetry: --trace-out=/--metrics-out= switched the session
  // on (Flags.cpp).
  cli::writeTelemetryFiles(Svc->telemetry(), Opts.TraceOut, Opts.MetricsOut,
                           "cobaltd");
  std::printf("cobaltd: stopped\n");
  return 0;
}
