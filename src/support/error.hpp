// Error handling primitives shared by every dls module.
//
// Policy (following the C++ Core Guidelines): exceptions signal violated
// preconditions on *user-supplied* data (malformed platforms, infeasible
// fixings, bad parameters); DLS_ASSERT guards *internal* invariants and
// aborts, because an internal invariant failure means the library itself
// is wrong and no recovery is meaningful.
//
// Cost of a passing check: require(cond, "literal") picks the const
// char* overload and builds no std::string unless it throws, so literal
// messages are free on success. A message assembled with `+` or
// std::to_string is built before the call, pass or fail: never do that
// on a hot path (per event, per route, per LP term). Branch first and
// build the message only on failure, e.g.
//   if (!ok) throw Error("link " + std::to_string(li) + " is down");
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dls {

/// Exception thrown on violated preconditions and malformed inputs.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws dls::Error with the given message if `cond` is false. The
/// message is only turned into a std::string when the check fails.
inline void require(bool cond, const char* message) {
  if (!cond) throw Error(message);
}

/// Overload for messages that are already strings (built by the caller).
inline void require(bool cond, const std::string& message) {
  if (!cond) throw Error(message);
}

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "dls internal invariant violated: %s (%s:%d)\n", expr, file, line);
  std::abort();
}
}  // namespace detail

}  // namespace dls

/// Internal invariant check. Active in all build types: the cost is
/// negligible next to the simplex inner loops it protects, and silent
/// corruption of a scheduling result is worse than an abort.
#define DLS_ASSERT(expr) \
  ((expr) ? static_cast<void>(0) : ::dls::detail::assert_fail(#expr, __FILE__, __LINE__))
