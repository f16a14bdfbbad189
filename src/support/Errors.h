//===- Errors.h - Structured failure taxonomy for the pipeline --*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure taxonomy threaded through checker and engine results. The
/// system's core guarantee is that an *unsound* optimization can never be
/// applied; this header is about the orthogonal axis — the infrastructure
/// itself failing (a prover timeout, an exception escaping a pass, a
/// partially applied rewrite). Every such failure is classified so that
/// callers can dispatch on it: "degraded but safe" (skip the pass, keep
/// the pipeline alive) is fundamentally different from "proved unsound"
/// (reject the definition) and from "proven" (apply it).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_ERRORS_H
#define COBALT_SUPPORT_ERRORS_H

#include <stdexcept>
#include <string>

namespace cobalt {
namespace support {

/// What went wrong, at the granularity callers dispatch on.
enum class ErrorKind {
  EK_None, ///< No failure.

  // Prover-side degradation: the obligation was neither proven nor
  // refuted. The optimization must not be applied, but it is *unproven*,
  // not unsound — retrying with a larger budget may succeed.
  EK_ProverTimeout,     ///< Z3 hit its wall-clock timeout (or the check's
                        ///< total budget was exhausted).
  EK_ProverUnknown,     ///< Z3 gave up for a non-resource reason
                        ///< (incomplete quantifier instantiation, ...).
  EK_ProverResourceOut, ///< Z3 hit its rlimit or memory cap.
  EK_WorkerCrash,       ///< An out-of-process prover worker crashed, hung
                        ///< past its wall budget, or blew its rss budget
                        ///< repeatedly on this obligation; the obligation
                        ///< was quarantined to Unproven (the containment
                        ///< layer of DESIGN.md §12).

  // Engine-side failures: a pass misbehaved at run time. The transactional
  // pass manager rolls the procedure back, so these never corrupt the
  // program being compiled.
  EK_PassPanic,       ///< An exception escaped the pass.
  EK_RewriteConflict, ///< The post-pass sanity check failed (ill-formed
                      ///< CFG or an interpreter spot-check divergence);
                      ///< the rewrite was rolled back.
  EK_Quarantined,     ///< The pass was skipped: it failed too many
                      ///< consecutive times and is quarantined.

  // Front-end / environment failures surfaced by the api loaders and
  // parsers (Expected<T> carriers). These map to the CLI's usage exit
  // code, not to the degraded exit code.
  EK_ParseError, ///< A .cob module or .il program failed to parse.
  EK_IoError,    ///< A file could not be read or written.

  // Service-side failures (the cobaltd request path). A client maps
  // EK_Unavailable from connect/request to its distinct "server
  // unreachable" exit code (5), never to a verdict.
  EK_Unavailable, ///< cobaltd unreachable, connection lost mid-request,
                  ///< or a requested definition is not registered with
                  ///< the service.
};

/// Stable short name, for reports and JSON.
inline const char *errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::EK_None:
    return "none";
  case ErrorKind::EK_ProverTimeout:
    return "prover_timeout";
  case ErrorKind::EK_ProverUnknown:
    return "prover_unknown";
  case ErrorKind::EK_ProverResourceOut:
    return "prover_resource_out";
  case ErrorKind::EK_WorkerCrash:
    return "worker_crash";
  case ErrorKind::EK_PassPanic:
    return "pass_panic";
  case ErrorKind::EK_RewriteConflict:
    return "rewrite_conflict";
  case ErrorKind::EK_Quarantined:
    return "quarantined";
  case ErrorKind::EK_ParseError:
    return "parse_error";
  case ErrorKind::EK_IoError:
    return "io_error";
  case ErrorKind::EK_Unavailable:
    return "unavailable";
  }
  return "unknown";
}

/// Inverse of errorKindName (for deserializing cached verdicts).
/// Unrecognized names map to EK_None.
inline ErrorKind errorKindFromName(const std::string &Name) {
  for (ErrorKind K :
       {ErrorKind::EK_ProverTimeout, ErrorKind::EK_ProverUnknown,
        ErrorKind::EK_ProverResourceOut, ErrorKind::EK_WorkerCrash,
        ErrorKind::EK_PassPanic,
        ErrorKind::EK_RewriteConflict, ErrorKind::EK_Quarantined,
        ErrorKind::EK_ParseError, ErrorKind::EK_IoError,
        ErrorKind::EK_Unavailable})
    if (Name == errorKindName(K))
      return K;
  return ErrorKind::EK_None;
}

/// True for failures of the *infrastructure* (prover gave up, pass
/// crashed) as opposed to a genuine soundness refutation. Infra failures
/// degrade the pipeline (exit code "infra degraded") without implying any
/// definition is wrong.
inline bool isInfraError(ErrorKind K) { return K != ErrorKind::EK_None; }

/// The exception type thrown across pass boundaries. The transactional
/// PassManager catches it (and any other std::exception) and rolls back;
/// it never escapes a pipeline run.
class PassError : public std::runtime_error {
public:
  PassError(ErrorKind Kind, const std::string &Message)
      : std::runtime_error(Message), Kind(Kind) {}

  ErrorKind kind() const { return Kind; }

private:
  ErrorKind Kind;
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_ERRORS_H
