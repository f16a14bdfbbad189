//===- ReportJson.cpp -----------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/ReportJson.h"

#include "support/JsonEscape.h"

using namespace cobalt;
using namespace cobalt::api;
using support::jsonEscape;

void api::emitDefinitionsJson(
    std::string &Out, const std::vector<checker::CheckReport> &Reports) {
  Out += "  \"definitions\": [";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const checker::CheckReport &R = Reports[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"name\": \"" + jsonEscape(R.Name) + "\"";
    Out += ", \"verdict\": \"" +
           std::string(checker::CheckReport::verdictName(R.V)) + "\"";
    Out += ", \"cached\": ";
    Out += R.CacheHit ? "true" : "false";
    Out += ", \"degradation\": \"" +
           std::string(support::errorKindName(R.Degradation)) + "\"";
    Out += ", \"assumed_analyses\": [";
    for (size_t J = 0; J < R.AssumedAnalyses.size(); ++J) {
      if (J)
        Out += ", ";
      Out += "\"" + jsonEscape(R.AssumedAnalyses[J]) + "\"";
    }
    Out += "], \"obligations\": [";
    for (size_t J = 0; J < R.Obligations.size(); ++J) {
      const checker::ObligationResult &Ob = R.Obligations[J];
      if (J)
        Out += ", ";
      Out += "{\"name\": \"" + jsonEscape(Ob.Name) + "\"";
      Out += ", \"status\": \"" +
             std::string(checker::ObligationResult::statusName(Ob.St)) +
             "\"";
      Out += ", \"error\": \"" + std::string(Ob.Err.kindName()) + "\"";
      if (!Ob.Err.Message.empty())
        Out += ", \"reason\": \"" + jsonEscape(Ob.Err.Message) + "\"";
      if (!Ob.Counterexample.empty())
        Out += ", \"counterexample\": \"" + jsonEscape(Ob.Counterexample) +
               "\"";
      Out += "}";
    }
    Out += "]}";
  }
  Out += "\n  ]";
}

void api::emitPipelineJson(std::string &Out,
                           const std::vector<engine::PassReport> &Reports) {
  Out += "  \"pipeline\": [";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const engine::PassReport &R = Reports[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"pass\": \"" + jsonEscape(R.PassName) + "\"";
    Out += ", \"proc\": \"" + jsonEscape(R.ProcName) + "\"";
    Out += ", \"applied\": " + std::to_string(R.AppliedCount);
    Out += ", \"error\": \"" + std::string(R.Err.kindName()) + "\"";
    if (!R.Err.Message.empty())
      Out += ", \"detail\": \"" + jsonEscape(R.Err.Message) + "\"";
    Out += ", \"rolled_back\": ";
    Out += R.RolledBack ? "true" : "false";
    Out += "}";
  }
  Out += "\n  ]";
}

void api::emitValidationJson(std::string &Out,
                             const validate::ValidationReport &Report) {
  Out += "  \"validation\": {";
  Out += "\"verdict\": \"" +
         std::string(validate::verdictName(Report.V)) + "\"";
  Out += ", \"method\": \"" + jsonEscape(Report.Method) + "\"";
  if (!Report.Witness.empty())
    Out += ", \"witness\": \"" + jsonEscape(Report.Witness) + "\"";
  if (!Report.Detail.empty())
    Out += ", \"detail\": \"" + jsonEscape(Report.Detail) + "\"";
  Out += ", \"degraded\": ";
  Out += Report.Degraded ? "true" : "false";
  Out += ", \"procs\": [";
  for (size_t I = 0; I < Report.Procs.size(); ++I) {
    const validate::ProcOutcome &P = Report.Procs[I];
    Out += I ? ",\n    {" : "\n    {";
    Out += "\"name\": \"" + jsonEscape(P.Name) + "\"";
    Out += ", \"verdict\": \"" + std::string(validate::verdictName(P.V)) +
           "\"";
    Out += ", \"method\": \"" + jsonEscape(P.Method) + "\"";
    if (!P.Detail.empty())
      Out += ", \"detail\": \"" + jsonEscape(P.Detail) + "\"";
    Out += ", \"obligations\": " + std::to_string(P.Obligations);
    Out += ", \"proven\": " + std::to_string(P.Proven);
    Out += ", \"failed\": " + std::to_string(P.Failed);
    Out += ", \"unproven\": " + std::to_string(P.Unproven);
    Out += ", \"cached\": ";
    Out += P.CacheHit ? "true" : "false";
    Out += "}";
  }
  Out += Report.Procs.empty() ? "]" : "\n  ]";
  Out += "}";
}
