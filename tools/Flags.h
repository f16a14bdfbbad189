//===- Flags.h - Table-driven flags shared by the Cobalt tools -*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag table for cobaltc, cobaltd, and `cobaltc client`, so the
/// three entry points cannot drift: `--jobs`, `--cache-dir`,
/// `--worker-*`, `--degraded=`, ... are parsed by the same rows with the
/// same validation everywhere. Each tool selects the *subsets* it
/// accepts (FlagSet); unknown or out-of-set flags fail parsing with the
/// tool's name in the message, and usage text is generated from the
/// same table.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_TOOLS_FLAGS_H
#define COBALT_TOOLS_FLAGS_H

#include "api/Service.h"

#include <string>
#include <vector>

namespace cobalt {
namespace cli {

/// Everything any of the tools can be configured with. Tools read only
/// the fields their flag sets can populate.
struct CommonOptions {
  api::CobaltConfig Config;
  bool FailFast = false;
  bool KeepGoing = false;
  bool ReportJson = false;
  std::string TraceOut;
  std::string MetricsOut;
  /// cobaltd: flight-recorder dump file (--flight-recorder=); written on
  /// worker quarantine, SIGTERM, and explicit "dump" frames.
  std::string FlightOut;
  /// cobaltd: flight-recorder ring capacity (--flight-events=);
  /// 0 = the recorder's default.
  unsigned FlightEvents = 0;
  enum class RemarkLevel { RL_None, RL_Missed, RL_All };
  RemarkLevel Remarks = RemarkLevel::RL_None;
  /// cobaltd / cobaltc client: the AF_UNIX socket path.
  std::string SocketPath;
  /// cobaltc client: per-response wait bound in ms (0 = forever).
  int64_t DeadlineMs = 30000;
  /// cobaltc client: definition subset for check / pass subset for run.
  std::vector<std::string> Only;
  /// cobaltd: enable the telemetry session (counters behind "stats").
  bool Telemetry = false;
};

/// Flag groups a tool opts into (bitwise-or).
enum FlagSet : unsigned {
  FS_Core = 1u << 0,      ///< --jobs, --cache-dir
  FS_Prover = 1u << 1,    ///< --prover-*, --isolate-workers, --worker-*,
                          ///< --degraded=
  FS_Driver = 1u << 2,    ///< --fail-fast, --keep-going, --report=json,
                          ///< --remarks=
  FS_Telemetry = 1u << 3, ///< --trace-out=, --metrics-out=,
                          ///< --flight-recorder=, --flight-events=
  FS_Service = 1u << 4,   ///< --socket, --max-inflight, --telemetry
  FS_Client = 1u << 5,    ///< --deadline, --only
};

/// Strips and parses the flags in \p Sets from Argv[1..); leaves
/// positional arguments in \p Positional. On a malformed, unknown, or
/// out-of-set flag, prints "<tool>: ..." to stderr and returns false.
/// Sets Config.Prover.TimeoutMs to the CLI default (8000) before
/// parsing, and enables Config.Telemetry when --trace-out=/
/// --metrics-out=/--flight-recorder= or --telemetry were given.
bool parseFlags(int Argc, char **Argv, const char *Tool, unsigned Sets,
                CommonOptions &Opts,
                std::vector<const char *> &Positional);

/// Usage lines ("       --jobs <n>  ...") for the flags in \p Sets,
/// generated from the table.
std::string flagUsage(unsigned Sets);

} // namespace cli
} // namespace cobalt

#endif // COBALT_TOOLS_FLAGS_H
