// Error handling for the simulator.
//
// Configuration mistakes (bad geometry, inconsistent parameters) throw
// SimError at construction time; internal invariant violations use
// STTGPU_ASSERT which is active in all build types — a silently wrong
// simulator is worse than a dead one.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sttgpu {

/// Thrown for user-visible configuration / usage errors.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// A command line naming a knob its command does not take. Still a
/// SimError, so every configuration-error handler catches it; the CLI maps
/// it to the usage exit code.
class UsageError : public SimError {
 public:
  using SimError::SimError;
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const std::string& msg) {
  std::ostringstream os;
  os << "STTGPU_ASSERT failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}
}  // namespace detail

}  // namespace sttgpu

/// Internal invariant check, active in every build type.
#define STTGPU_ASSERT(expr)                                                  \
  do {                                                                       \
    if (!(expr)) ::sttgpu::detail::assert_fail(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define STTGPU_ASSERT_MSG(expr, msg)                                          \
  do {                                                                        \
    if (!(expr)) ::sttgpu::detail::assert_fail(#expr, __FILE__, __LINE__, msg); \
  } while (false)

/// Configuration validation: throws SimError with the given message.
#define STTGPU_REQUIRE(expr, msg)                      \
  do {                                                 \
    if (!(expr)) throw ::sttgpu::SimError(msg);        \
  } while (false)
