//===- cobaltd.cpp - The Cobalt verification daemon -----------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Verification-as-a-service (DESIGN.md §13): load modules once, build
/// an immutable CobaltService, and serve check/run/stats requests over
/// an AF_UNIX socket until shutdown.
///
///   cobaltd <module.cob>... --socket <path> [flags]
///
/// A module path of "stdlib" loads the bundled standard module. Flags
/// come from the same table as cobaltc (tools/Flags.cpp):
///
///   --socket <path>        AF_UNIX socket to listen on (required)
///   --jobs <n>             service thread pool width (0 = hardware)
///   --cache-dir <dir>      disk tier behind the in-memory verdict store
///   --max-inflight <n>     admission bound on concurrently proving
///                          obligations (0 = unbounded); over-bound
///                          requests get "retry" responses
///   --telemetry            keep a metrics session for "stats"
///   --trace-out=FILE       write the daemon's lifetime Chrome trace on
///                          clean shutdown (implies --telemetry)
///   --metrics-out=FILE     write the lifetime metrics registry as JSON
///                          on clean shutdown (implies --telemetry)
///   --flight-recorder=FILE flight-recorder black box: dumped here on
///                          worker quarantine, SIGINT/SIGTERM, and
///                          explicit "dump" frames (implies --telemetry)
///   --flight-events=<n>    flight-recorder ring capacity (default 1024)
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
/// loop polls the flag every 100 ms. SignalStop distinguishes a
/// signal-initiated shutdown (flight recorder dumped: something outside
/// decided to kill us) from a client "shutdown" frame (clean).
service::Daemon *ActiveDaemon = nullptr;
volatile std::sig_atomic_t SignalStop = 0;

void onSignal(int) {
  SignalStop = 1;
  if (ActiveDaemon)
    ActiveDaemon->requestStop();
}

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return (std::fclose(F) == 0) && Ok;
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
  if (support::Telemetry *T = Svc->telemetry())
    if (Opts.FlightEvents != 0)
      T->Flight.setCapacity(Opts.FlightEvents);

  service::Daemon D(Svc, Opts.SocketPath);
  D.setFlightRecorderPath(Opts.FlightOut);
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
  // Black-box dump *before* stop(): a SIGTERM post-mortem wants the
  // events as they stood when the signal arrived, not after teardown
  // traffic. (Quarantine and "dump"-frame dumps happen inline.)
  if (SignalStop)
    D.dumpFlightRecorder("signal");
  D.stop();
  ActiveDaemon = nullptr;

  // Lifetime telemetry: --trace-out=/--metrics-out= switched the session
  // on (Flags.cpp). Failures warn and never change the exit code.
  if (support::Telemetry *T = Svc->telemetry()) {
    if (!Opts.TraceOut.empty() &&
        !writeTextFile(Opts.TraceOut, T->Trace.json()))
      std::fprintf(stderr, "cobaltd: warning: cannot write trace to '%s'\n",
                   Opts.TraceOut.c_str());
    if (!Opts.MetricsOut.empty() &&
        !writeTextFile(Opts.MetricsOut, T->Metrics.json()))
      std::fprintf(stderr,
                   "cobaltd: warning: cannot write metrics to '%s'\n",
                   Opts.MetricsOut.c_str());
  }
  std::printf("cobaltd: stopped\n");
  return 0;
}
