//===- SingleFlight.h - Fingerprint-keyed single-flight memo ----*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One memo in front of a deterministic, expensive computation keyed by a
/// 64-bit fingerprint (a verdict, a validation report). The first caller
/// to claim a key *leads*: it computes the value and settles it. Every
/// other caller *joins*: it holds the leader's future, ready at once for
/// a settled key, blocking while the leader works. The value is one
/// `shared_ptr<const T>`, so the leader, every waiter and every later hit
/// read the same object. A transient value is settled with Keep=false
/// (waiters get it, the key is forgotten); a failed leader abandons (its
/// waiters get the exception, the key is forgotten), and a lead dropped
/// unsettled abandons itself with `broken_promise`. Trace IDs of callers
/// that join a key in flight are handed to its leader by settle().
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_SINGLEFLIGHT_H
#define COBALT_SUPPORT_SINGLEFLIGHT_H

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cobalt {
namespace support {

template <class T> class SingleFlight {
public:
  using Ptr = std::shared_ptr<const T>;

  /// One caller's stake in a key: either it leads (and must settle or
  /// abandon) or it holds the future of whoever does.
  class Claim {
  public:
    bool leads() const { return L != nullptr; }
    uint64_t key() const { return Key; }
    /// The settled value. Blocks while another caller leads; rethrows
    /// the exception of a leader that abandoned.
    const Ptr &get() const { return Result.get(); }

  private:
    friend class SingleFlight;
    struct Lead {
      SingleFlight *Owner; ///< Null once settled or abandoned.
      uint64_t Key;
      std::promise<Ptr> Promise;
      /// Dropped unsettled: forget the key, then the promise breaks.
      ~Lead() {
        if (Owner)
          Owner->forget(Key);
      }
    };
    uint64_t Key = 0;
    std::unique_ptr<Lead> L; ///< Non-null while leading.
    std::shared_future<Ptr> Result;
  };

  /// Joins \p Key (recording a nonzero \p TraceId as a follower while the
  /// key is in flight) or, when nobody holds it, leads it.
  Claim claim(uint64_t Key, uint64_t TraceId = 0) {
    Claim C;
    C.Key = Key;
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Fresh] = Flights.try_emplace(Key);
    if (Fresh) {
      C.L.reset(new typename Claim::Lead{this, Key, {}});
      It->second.Result = C.L->Promise.get_future().share();
    } else if (It->second.InFlight && TraceId != 0) {
      It->second.Followers.push_back(TraceId);
    }
    C.Result = It->second.Result;
    return C;
  }

  /// Hands \p V to every holder of \p C's key (\p C must lead). With
  /// \p Keep false the key is forgotten first. Returns the trace IDs of
  /// the callers that joined while it was in flight.
  std::vector<uint64_t> settle(Claim &C, Ptr V, bool Keep) {
    std::vector<uint64_t> Followers;
    {
      std::lock_guard<std::mutex> Lock(M);
      auto It = Flights.find(C.Key);
      Followers = std::move(It->second.Followers);
      if (Keep)
        It->second.InFlight = false;
      else
        Flights.erase(It);
    }
    std::unique_ptr<typename Claim::Lead> L = std::move(C.L);
    L->Owner = nullptr;
    L->Promise.set_value(std::move(V));
    return Followers;
  }

  /// Forgets \p C's key, then hands \p E to its waiters (\p C must lead).
  void abandon(Claim &C, std::exception_ptr E) {
    std::unique_ptr<typename Claim::Lead> L = std::move(C.L);
    L->Owner = nullptr;
    forget(C.Key);
    L->Promise.set_exception(std::move(E));
  }

private:
  struct Flight {
    std::shared_future<Ptr> Result;
    bool InFlight = true;
    std::vector<uint64_t> Followers; ///< Joined while in flight.
  };

  void forget(uint64_t Key) {
    std::lock_guard<std::mutex> Lock(M);
    Flights.erase(Key);
  }

  std::mutex M;
  std::unordered_map<uint64_t, Flight> Flights;
};

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_SINGLEFLIGHT_H
