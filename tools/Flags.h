//===- Flags.h - Table-driven flags shared by the Cobalt tools -*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag table for cobaltc, cobaltd, and `cobaltc client`, so the
/// three entry points cannot drift: `--jobs`, `--cache-dir`,
/// `--prover-*`, `--worker-*`, ... are parsed by the same rows with the
/// same validation everywhere. Each tool selects the *subsets* it
/// accepts (FlagSet); unknown or out-of-set flags fail parsing with the
/// tool's name in the message, and usage text is generated from the
/// same table. It also holds the --trace-out=/--metrics-out= writer
/// that cobaltc, cobaltd and cobalt-fuzz share.
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
  FS_Prover = 1u << 1,    ///< --prover-*, --isolate-workers, --worker-*
  FS_Driver = 1u << 2,    ///< --fail-fast, --keep-going, --report=json,
                          ///< --remarks=
  FS_Telemetry = 1u << 3, ///< --trace-out=, --metrics-out=
  FS_Service = 1u << 4,   ///< --socket, --telemetry
  FS_Client = 1u << 5,    ///< --deadline, --only
};

/// Strips and parses the flags in \p Sets from Argv[1..); leaves
/// positional arguments in \p Positional. On a malformed, unknown, or
/// out-of-set flag, prints "<tool>: ..." to stderr and returns false.
/// Sets Config.Prover.TimeoutMs to the CLI default (8000) before
/// parsing, and enables Config.Telemetry when --trace-out=,
/// --metrics-out= or --telemetry was given.
bool parseFlags(int Argc, char **Argv, const char *Tool, unsigned Sets,
                CommonOptions &Opts,
                std::vector<const char *> &Positional);

/// Usage lines ("       --jobs <n>  ...") for the flags in \p Sets,
/// generated from the table.
std::string flagUsage(unsigned Sets);

/// Writes \p T's Chrome trace to \p TraceOut and its metrics JSON to
/// \p MetricsOut, each only when its path is nonempty (nothing when \p T
/// is null). A failed write prints "<Tool>: warning: ..." on stderr and
/// is otherwise ignored: telemetry never changes a tool's exit code.
void writeTelemetryFiles(const support::Telemetry *T,
                         const std::string &TraceOut,
                         const std::string &MetricsOut, const char *Tool);

} // namespace cli
} // namespace cobalt

#endif // COBALT_TOOLS_FLAGS_H
