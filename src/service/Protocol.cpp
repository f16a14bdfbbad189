//===- Protocol.cpp -------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/JsonEscape.h"

#include <cctype>
#include <cstdlib>

using namespace cobalt;
using namespace cobalt::service;

int64_t JsonValue::asI64(int64_t Default) const {
  if (K != Kind::JK_Number)
    return Default;
  return std::strtoll(Raw.c_str(), nullptr, 10);
}

uint64_t JsonValue::asU64(uint64_t Default) const {
  if (K != Kind::JK_Number)
    return Default;
  if (!Raw.empty() && Raw[0] == '-')
    return Default;
  return std::strtoull(Raw.c_str(), nullptr, 10);
}

std::vector<std::string> JsonValue::stringList(std::string_view Name) const {
  std::vector<std::string> Out;
  const JsonValue *V = find(Name);
  if (!V || V->K != Kind::JK_Array)
    return Out;
  for (const JsonValue &Item : V->Items)
    if (Item.K == Kind::JK_String)
      Out.push_back(Item.Str);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser. Recursive descent over a cursor; depth-limited so a hostile
// frame cannot blow the stack.
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  std::string_view Text;
  size_t Pos = 0;
  std::string Err;
  static constexpr unsigned MaxDepth = 64;

  bool fail(const char *Why) {
    if (Err.empty())
      Err = std::string(Why) + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("bad literal");
    Pos += Word.size();
    return true;
  }

  void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= Text.size())
          return fail("truncated escape");
        char E = Text[++Pos];
        ++Pos;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          appendUtf8(Out, Code);
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = JsonValue::Kind::JK_Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        JsonValue Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.Members.emplace_back(std::move(Key), std::move(Member));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = JsonValue::Kind::JK_Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JsonValue Item;
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.Items.push_back(std::move(Item));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::JK_String;
      return parseString(Out.Str);
    }
    if (C == 't') {
      Out.K = JsonValue::Kind::JK_Bool;
      Out.B = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = JsonValue::Kind::JK_Bool;
      Out.B = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::JK_Null;
      return literal("null");
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      Out.K = JsonValue::Kind::JK_Number;
      size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      if (Pos >= Text.size() ||
          !std::isdigit(static_cast<unsigned char>(Text[Pos])))
        return fail("bad number");
      while (Pos < Text.size() &&
             (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
              Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      Out.Raw = std::string(Text.substr(Start, Pos - Start));
      return true;
    }
    return fail("unexpected character");
  }
};

} // namespace

std::optional<JsonValue> service::parseJson(std::string_view Text,
                                            std::string *Err) {
  Parser P;
  P.Text = Text;
  JsonValue Root;
  if (!P.parseValue(Root, 0)) {
    if (Err)
      *Err = P.Err;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Err)
      *Err = "trailing garbage at offset " + std::to_string(P.Pos);
    return std::nullopt;
  }
  return Root;
}

//===----------------------------------------------------------------------===//
// Request builders.
//===----------------------------------------------------------------------===//

static void appendStringArray(std::string &Out, const char *Name,
                              const std::vector<std::string> &Items) {
  Out += std::string(", \"") + Name + "\": [";
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + support::jsonEscape(Items[I]) + "\"";
  }
  Out += "]";
}

std::string service::makePingRequest() { return "{\"cmd\": \"ping\"}"; }

std::string service::makeCheckRequest(const std::vector<std::string> &Only,
                                      unsigned Jobs, int64_t BudgetMs,
                                      uint64_t FaultSalt, uint64_t TraceId) {
  std::string Out = "{\"cmd\": \"check\"";
  if (!Only.empty())
    appendStringArray(Out, "only", Only);
  if (Jobs != 0)
    Out += ", \"jobs\": " + std::to_string(Jobs);
  if (BudgetMs >= 0)
    Out += ", \"budget_ms\": " + std::to_string(BudgetMs);
  if (FaultSalt != 0)
    Out += ", \"fault_salt\": " + std::to_string(FaultSalt);
  if (TraceId != 0)
    Out += ", \"trace_id\": " + std::to_string(TraceId);
  Out += "}";
  return Out;
}

std::string service::makeRunRequest(const std::string &ProgramText,
                                    const std::vector<std::string> &Selected,
                                    bool SelectedOnly, unsigned Jobs,
                                    uint64_t TraceId) {
  std::string Out = "{\"cmd\": \"run\", \"program\": \"" +
                    support::jsonEscape(ProgramText) + "\"";
  if (SelectedOnly) {
    appendStringArray(Out, "selected", Selected);
    Out += ", \"selected_only\": true";
  }
  if (Jobs != 0)
    Out += ", \"jobs\": " + std::to_string(Jobs);
  if (TraceId != 0)
    Out += ", \"trace_id\": " + std::to_string(TraceId);
  Out += "}";
  return Out;
}

std::string service::makeValidateRequest(const std::string &OriginalText,
                                         const std::string &CandidateText,
                                         unsigned Jobs, int64_t BudgetMs,
                                         uint64_t TraceId) {
  std::string Out = "{\"cmd\": \"validate\", \"original\": \"" +
                    support::jsonEscape(OriginalText) +
                    "\", \"candidate\": \"" +
                    support::jsonEscape(CandidateText) + "\"";
  if (Jobs != 0)
    Out += ", \"jobs\": " + std::to_string(Jobs);
  if (BudgetMs >= 0)
    Out += ", \"budget_ms\": " + std::to_string(BudgetMs);
  if (TraceId != 0)
    Out += ", \"trace_id\": " + std::to_string(TraceId);
  Out += "}";
  return Out;
}

std::string service::makeStatsRequest() { return "{\"cmd\": \"stats\"}"; }

std::string service::makeShutdownRequest() {
  return "{\"cmd\": \"shutdown\"}";
}
