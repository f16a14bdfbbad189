//===- Protocol.h - cobaltd wire protocol ----------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cobaltd request/response protocol: uint32-length-prefixed JSON
/// frames (the same framing support::Subprocess uses for prover workers,
/// so the deadline/torn-frame machinery is shared) over an AF_UNIX
/// stream socket. Requests are flat JSON objects dispatched on "cmd":
///
///   {"cmd": "ping"}
///   {"cmd": "check", "only": ["licm"], "jobs": 0, "budget_ms": -1,
///    "fault_salt": 0, "trace_id": 1234}
///   {"cmd": "run", "program": "<IL text>", "selected": ["licm"],
///    "selected_only": true, "jobs": 0, "trace_id": 1234}
///   {"cmd": "validate", "original": "<IL text>", "candidate":
///    "<IL text>", "jobs": 0, "budget_ms": -1, "trace_id": 1234}
///   {"cmd": "stats"}
///   {"cmd": "shutdown"}
///
/// "trace_id" is the client's 64-bit request trace ID (decimal; 0/absent
/// = the daemon mints one). It tags every span the request produces,
/// through the service and across the prover-worker fork.
///
/// Responses carry "status": "ok" | "error" plus
/// command-specific members ("definitions", "pipeline", "exit", ...),
/// emitted by the same api::ReportJson serializers cobaltc uses for
/// --report=json — one serializer, so N clients asking for the same
/// suite receive byte-identical documents.
///
/// Clients may pipeline: send any number of request frames before
/// reading; the server answers each connection's frames in order
/// (batching), while frames from *different* connections are served
/// concurrently and deduplicated at obligation level by the service.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SERVICE_PROTOCOL_H
#define COBALT_SERVICE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cobalt {
namespace service {

/// Protocol revision, reported by "ping". Bump on incompatible change
/// (2: "pipeline" entries no longer carry "quarantined"; 3: no "dump"
/// command and no "retry" status).
inline constexpr int ProtocolVersion = 3;

/// A parsed JSON value — the minimal DOM the daemon needs to read
/// requests and clients need to read response envelopes. Numbers keep
/// their raw spelling (fault salts are full uint64; double would drop
/// bits). Object member order is preserved.
class JsonValue {
public:
  enum class Kind { JK_Null, JK_Bool, JK_Number, JK_String, JK_Array,
                    JK_Object };

  Kind K = Kind::JK_Null;
  bool B = false;
  std::string Raw; ///< Number spelling (JK_Number only).
  std::string Str; ///< Decoded string (JK_String only).
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  bool isNull() const { return K == Kind::JK_Null; }

  /// Member lookup (JK_Object); nullptr when absent or not an object.
  const JsonValue *find(std::string_view Name) const {
    if (K != Kind::JK_Object)
      return nullptr;
    for (const auto &M : Members)
      if (M.first == Name)
        return &M.second;
    return nullptr;
  }

  /// Typed accessors with defaults — requests treat absent and
  /// default-valued members identically.
  int64_t asI64(int64_t Default = 0) const;
  uint64_t asU64(uint64_t Default = 0) const;
  bool asBool(bool Default = false) const {
    return K == Kind::JK_Bool ? B : Default;
  }
  std::string asString(std::string Default = {}) const {
    return K == Kind::JK_String ? Str : std::move(Default);
  }
  /// The member \p Name as a string list ([] when absent / mistyped).
  std::vector<std::string> stringList(std::string_view Name) const;
};

/// Parses one JSON document. Trailing garbage after the document is an
/// error. Returns nullopt (with a short reason in \p Err) on failure.
std::optional<JsonValue> parseJson(std::string_view Text,
                                   std::string *Err = nullptr);

/// \name Request builders (what `cobaltc client` sends).
/// @{
std::string makePingRequest();
std::string makeCheckRequest(const std::vector<std::string> &Only,
                             unsigned Jobs = 0, int64_t BudgetMs = -1,
                             uint64_t FaultSalt = 0, uint64_t TraceId = 0);
std::string makeRunRequest(const std::string &ProgramText,
                           const std::vector<std::string> &Selected,
                           bool SelectedOnly, unsigned Jobs = 0,
                           uint64_t TraceId = 0);
std::string makeValidateRequest(const std::string &OriginalText,
                                const std::string &CandidateText,
                                unsigned Jobs = 0, int64_t BudgetMs = -1,
                                uint64_t TraceId = 0);
std::string makeStatsRequest();
std::string makeShutdownRequest();
/// @}

} // namespace service
} // namespace cobalt

#endif // COBALT_SERVICE_PROTOCOL_H
