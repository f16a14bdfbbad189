//===- JsonEscape.h - JSON string escaping ----------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper of the code base: report JSON, daemon
/// frames, metrics and trace dumps, and the fuzz summary all write their
/// strings through it, so every document escapes the same way. Quotes,
/// backslashes, `\n`, `\r` and `\t` get their short escapes, every other
/// control byte becomes `\u00XX`, and all other bytes (UTF-8 included)
/// pass through unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_JSONESCAPE_H
#define COBALT_SUPPORT_JSONESCAPE_H

#include <cstdio>
#include <string>
#include <string_view>

namespace cobalt {
namespace support {

/// Appends \p S to \p Out, escaped for a JSON string literal.
inline void appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char Ch : S) {
    unsigned char C = static_cast<unsigned char>(Ch);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
}

/// \p S escaped for embedding inside a JSON string literal.
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_JSONESCAPE_H
