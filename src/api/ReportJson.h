//===- ReportJson.h - Shared machine-readable report emission ---*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON fragments of cobaltc's --report=json output, factored out so
/// the daemon (cobaltd) and the CLI emit byte-identical documents — the
/// concurrent-client determinism guarantee is "N clients, same suite,
/// same bytes", which only holds if there is exactly one serializer.
/// Emission is append-to-string (no DOM): deterministic field order,
/// deterministic escaping, no floating-point timing fields in the
/// definition reports (seconds vary run to run and are deliberately
/// excluded here; they live in telemetry).
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_API_REPORTJSON_H
#define COBALT_API_REPORTJSON_H

#include "checker/Soundness.h"
#include "engine/PassManager.h"
#include "validate/Validate.h"

#include <string>
#include <vector>

namespace cobalt {
namespace api {

/// Appends `"definitions": [...]` (two-space indented, no trailing
/// comma) for a suite of check reports.
void emitDefinitionsJson(std::string &Out,
                         const std::vector<checker::CheckReport> &Reports);

/// Appends `"pipeline": [...]` for a pipeline run's pass reports.
void emitPipelineJson(std::string &Out,
                      const std::vector<engine::PassReport> &Reports);

/// Appends `"validation": {...}` for a translation-validation report.
/// Timing fields are deliberately excluded: the document is
/// byte-identical for a fixed pair at every --jobs width.
void emitValidationJson(std::string &Out,
                        const validate::ValidationReport &Report);

} // namespace api
} // namespace cobalt

#endif // COBALT_API_REPORTJSON_H
