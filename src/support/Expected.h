//===- Expected.h - Unified error carrier for the pipeline ------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one result shape threaded through checker, engine, parsers, and
/// the `api` loaders. Before this header, every layer invented
/// its own `(bool, ErrorKind, string)` triple — ObligationResult carried
/// `Err` + `UnknownReason`, PassReport carried `Error` + `ErrorDetail`,
/// parsers returned `optional<T>` with the message hidden in a
/// DiagnosticEngine. Callers had to learn each dialect. Now:
///
///  * `support::Error` is the carrier of *what went wrong*: an ErrorKind
///    plus a human-readable message. Embedded by value in report structs
///    (an EK_None kind means "no failure").
///  * `support::Expected<T>` is the carrier of *either a T or an Error*,
///    for operations that produce a value or fail as a whole (parsing a
///    module, reading a file).
///
/// Both are deliberately minimal — no exceptions, no virtual anything —
/// so they can cross thread-pool job boundaries by value.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_EXPECTED_H
#define COBALT_SUPPORT_EXPECTED_H

#include "support/Errors.h"

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace cobalt {
namespace support {

/// What went wrong and why, in one dispatchable value. The default state
/// (EK_None, empty message) means "no failure", so report structs embed
/// an Error by value instead of a separate flag + kind + string.
struct Error {
  ErrorKind Kind = ErrorKind::EK_None;
  std::string Message;

  Error() = default;
  Error(ErrorKind Kind, std::string Message)
      : Kind(Kind), Message(std::move(Message)) {}

  /// True when this actually carries a failure.
  bool failed() const { return Kind != ErrorKind::EK_None; }
  explicit operator bool() const { return failed(); }

  /// Stable short name of the kind, for reports and JSON.
  const char *kindName() const { return errorKindName(Kind); }

  /// "kind: message" (or "none") — the uniform rendering used by the
  /// CLI and the examples.
  std::string str() const {
    if (!failed())
      return "none";
    return Message.empty() ? std::string(kindName())
                           : std::string(kindName()) + ": " + Message;
  }

  friend bool operator==(const Error &A, const Error &B) {
    return A.Kind == B.Kind && A.Message == B.Message;
  }
};

/// A value of type T, or the Error explaining why there is none.
/// `if (auto M = Ctx.parseModule(Text)) use(*M); else report(M.error());`
template <typename T> class Expected {
public:
  /*implicit*/ Expected(T Value) : Storage(std::move(Value)) {}
  /*implicit*/ Expected(Error E) : Storage(std::move(E)) {
    assert(std::get<Error>(Storage).failed() &&
           "Expected constructed from a non-failure Error");
  }
  Expected(ErrorKind Kind, std::string Message)
      : Storage(Error(Kind, std::move(Message))) {}

  bool ok() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return ok(); }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

  T &value() {
    assert(ok() && "value() on failed Expected");
    return std::get<T>(Storage);
  }
  const T &value() const {
    assert(ok() && "value() on failed Expected");
    return std::get<T>(Storage);
  }

  const Error &error() const {
    assert(!ok() && "error() on successful Expected");
    return std::get<Error>(Storage);
  }

  /// Moves the value out (the Expected is left in a valid empty-error
  /// state; do not reuse).
  T take() {
    assert(ok() && "take() on failed Expected");
    return std::move(std::get<T>(Storage));
  }

private:
  std::variant<T, Error> Storage;
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_EXPECTED_H
