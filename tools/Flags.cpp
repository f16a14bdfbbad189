//===- Flags.cpp ----------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace cobalt;
using namespace cobalt::cli;

namespace {

/// How a flag takes its value.
enum class Style {
  S_Bool,     ///< --flag
  S_SepValue, ///< --flag <value>
  S_EqValue,  ///< --flag=<value>
};

struct FlagRow {
  const char *Name;   ///< Including "--"; for S_EqValue, including "=".
  Style St;
  unsigned Set;       ///< FlagSet membership.
  const char *Help;   ///< Short operand hint for usage ("<n>", "MODE").
  /// Applies the (possibly empty) value. Returns false with \p Err set
  /// on a malformed value.
  bool (*Apply)(CommonOptions &Opts, const char *Value, std::string &Err);
};

bool parseU64(const char *Value, unsigned long long &Out) {
  if (!Value || !*Value)
    return false;
  char *End = nullptr;
  Out = std::strtoull(Value, &End, 10);
  return End && *End == '\0';
}

template <typename T>
bool applyUInt(const char *Value, T &Field, std::string &Err,
               const char *What, bool AllowZero = true) {
  unsigned long long V = 0;
  if (!parseU64(Value, V) || (!AllowZero && V == 0)) {
    Err = std::string(What) + " requires a " +
          (AllowZero ? "number" : "positive number");
    return false;
  }
  Field = static_cast<T>(V);
  return true;
}

const FlagRow Rows[] = {
    // FS_Core ------------------------------------------------------------
    {"--jobs", Style::S_SepValue, FS_Core, "<n>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Jobs, E, "--jobs");
     }},
    {"--cache-dir", Style::S_SepValue, FS_Core, "<dir>",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!V || !*V) {
         E = "--cache-dir requires a directory";
         return false;
       }
       O.Config.CacheDir = V;
       return true;
     }},
    // FS_Prover ----------------------------------------------------------
    {"--prover-timeout", Style::S_SepValue, FS_Prover, "<ms>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.TimeoutMs, E,
                        "--prover-timeout", /*AllowZero=*/false);
     }},
    {"--prover-retries", Style::S_SepValue, FS_Prover, "<n>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.Retries, E, "--prover-retries");
     }},
    {"--prover-budget", Style::S_SepValue, FS_Prover, "<ms>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.BudgetMs, E, "--prover-budget");
     }},
    {"--isolate-workers", Style::S_Bool, FS_Prover, "",
     [](CommonOptions &O, const char *, std::string &) {
       O.Config.Prover.Isolation = checker::WorkerIsolation::WI_Subprocess;
       return true;
     }},
    {"--worker-wall", Style::S_SepValue, FS_Prover, "<ms>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.WorkerWallMs, E,
                        "--worker-wall", /*AllowZero=*/false);
     }},
    {"--worker-rss", Style::S_SepValue, FS_Prover, "<mb>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.WorkerRssMb, E, "--worker-rss",
                        /*AllowZero=*/false);
     }},
    {"--worker-restarts", Style::S_SepValue, FS_Prover, "<n>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.Prover.WorkerRestarts, E,
                        "--worker-restarts");
     }},
    // FS_Driver ----------------------------------------------------------
    {"--fail-fast", Style::S_Bool, FS_Driver, "",
     [](CommonOptions &O, const char *, std::string &) {
       O.FailFast = true;
       return true;
     }},
    {"--keep-going", Style::S_Bool, FS_Driver, "",
     [](CommonOptions &O, const char *, std::string &) {
       O.KeepGoing = true;
       return true;
     }},
    {"--report=json", Style::S_Bool, FS_Driver | FS_Client, "",
     [](CommonOptions &O, const char *, std::string &) {
       O.ReportJson = true;
       return true;
     }},
    {"--remarks=", Style::S_EqValue, FS_Driver, "[all|missed|none]",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (std::strcmp(V, "all") == 0)
         O.Remarks = CommonOptions::RemarkLevel::RL_All;
       else if (std::strcmp(V, "missed") == 0)
         O.Remarks = CommonOptions::RemarkLevel::RL_Missed;
       else if (std::strcmp(V, "none") == 0)
         O.Remarks = CommonOptions::RemarkLevel::RL_None;
       else {
         E = "--remarks= takes all, missed, or none";
         return false;
       }
       return true;
     }},
    // FS_Telemetry -------------------------------------------------------
    {"--trace-out=", Style::S_EqValue, FS_Telemetry, "FILE",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!*V) {
         E = "--trace-out= requires a file";
         return false;
       }
       O.TraceOut = V;
       return true;
     }},
    {"--metrics-out=", Style::S_EqValue, FS_Telemetry, "FILE",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!*V) {
         E = "--metrics-out= requires a file";
         return false;
       }
       O.MetricsOut = V;
       return true;
     }},
    {"--flight-recorder=", Style::S_EqValue, FS_Telemetry, "FILE",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!*V) {
         E = "--flight-recorder= requires a file";
         return false;
       }
       O.FlightOut = V;
       return true;
     }},
    {"--flight-events=", Style::S_EqValue, FS_Telemetry, "<n>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.FlightEvents, E, "--flight-events=",
                        /*AllowZero=*/false);
     }},
    // FS_Service ---------------------------------------------------------
    {"--socket", Style::S_SepValue, FS_Service | FS_Client, "<path>",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!V || !*V) {
         E = "--socket requires a path";
         return false;
       }
       O.SocketPath = V;
       return true;
     }},
    {"--max-inflight", Style::S_SepValue, FS_Service, "<obligations>",
     [](CommonOptions &O, const char *V, std::string &E) {
       return applyUInt(V, O.Config.MaxInFlightObligations, E,
                        "--max-inflight");
     }},
    {"--telemetry", Style::S_Bool, FS_Service, "",
     [](CommonOptions &O, const char *, std::string &) {
       O.Telemetry = true;
       return true;
     }},
    // FS_Client ----------------------------------------------------------
    {"--deadline", Style::S_SepValue, FS_Client, "<ms>",
     [](CommonOptions &O, const char *V, std::string &E) {
       unsigned long long Ms = 0;
       if (!parseU64(V, Ms)) {
         E = "--deadline requires a number of milliseconds";
         return false;
       }
       O.DeadlineMs = static_cast<int64_t>(Ms);
       return true;
     }},
    {"--only", Style::S_SepValue, FS_Client, "<name>",
     [](CommonOptions &O, const char *V, std::string &E) {
       if (!V || !*V) {
         E = "--only requires a definition name";
         return false;
       }
       O.Only.push_back(V);
       return true;
     }},
};

} // namespace

bool cli::parseFlags(int Argc, char **Argv, const char *Tool, unsigned Sets,
                     CommonOptions &Opts,
                     std::vector<const char *> &Positional) {
  // The CLI default is tighter than the library default: command-line
  // runs want fast feedback; embedders can afford the full 30 s.
  Opts.Config.Prover.TimeoutMs = 8000;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-' || Arg[1] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    const FlagRow *Match = nullptr;
    const char *Value = nullptr;
    for (const FlagRow &Row : Rows) {
      if (Row.St == Style::S_EqValue) {
        size_t Len = std::strlen(Row.Name);
        if (std::strncmp(Arg, Row.Name, Len) == 0) {
          Match = &Row;
          Value = Arg + Len;
          break;
        }
      } else if (std::strcmp(Arg, Row.Name) == 0) {
        Match = &Row;
        break;
      }
    }
    if (!Match) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", Tool, Arg);
      return false;
    }
    if (!(Match->Set & Sets)) {
      std::fprintf(stderr, "%s: flag '%s' is not accepted by this tool\n",
                   Tool, Arg);
      return false;
    }
    if (Match->St == Style::S_SepValue) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", Tool,
                     Match->Name);
        return false;
      }
      Value = Argv[++I];
    }
    std::string Err;
    if (!Match->Apply(Opts, Value, Err)) {
      std::fprintf(stderr, "%s: %s\n", Tool, Err.c_str());
      return false;
    }
  }
  // Telemetry failures never change exit codes: a soundness tool's
  // verdict must not depend on whether its instrumentation worked.
  if (!Opts.TraceOut.empty() || !Opts.MetricsOut.empty() ||
      !Opts.FlightOut.empty() || Opts.Telemetry)
    Opts.Config.Telemetry = true;
  return true;
}

std::string cli::flagUsage(unsigned Sets) {
  std::string Out;
  std::string Line = "flags:";
  for (const FlagRow &Row : Rows) {
    if (!(Row.Set & Sets))
      continue;
    std::string Item = Row.Name;
    if (Row.St == Style::S_EqValue)
      Item += Row.Help;
    else if (*Row.Help) {
      Item += ' ';
      Item += Row.Help;
    }
    if (Line.size() + Item.size() + 1 > 70) {
      Out += Line + "\n";
      Line = "      ";
    }
    Line += ' ';
    Line += Item;
  }
  if (Line.size() > 7)
    Out += Line + "\n";
  return Out;
}
