// Always-on assertion macros for invariants and preconditions.
//
// SMTU_CHECK is enabled in every build type: simulator correctness depends on
// structural invariants (block bounds, format consistency) that silent release
// builds must not skip. SMTU_DCHECK compiles out in NDEBUG builds and is meant
// for hot inner loops only.
//
// The failure path is cold and takes no std::string for a literal or absent
// detail: SMTU_CHECK and SMTU_CHECK_MSG with a string literal pass plain
// pointers, so a hot caller (every interpreter handler checks register
// indices) sets up no stack frame for a branch it never takes. A computed
// std::string detail picks the std::string overload.
#pragma once

#include <string>

namespace smtu {

// Prints the failure (expression, location, optional detail) and aborts.
// A null or empty detail prints no detail line.
[[noreturn, gnu::cold]] void assertion_failure(const char* expr, const char* file, int line,
                                               const char* detail);
[[noreturn, gnu::cold]] void assertion_failure(const char* expr, const char* file, int line,
                                               const std::string& detail);

}  // namespace smtu

#define SMTU_CHECK(expr)                                                 \
  do {                                                                   \
    if (!(expr)) [[unlikely]] {                                          \
      ::smtu::assertion_failure(#expr, __FILE__, __LINE__, nullptr);     \
    }                                                                    \
  } while (false)

#define SMTU_CHECK_MSG(expr, detail)                                      \
  do {                                                                    \
    if (!(expr)) [[unlikely]] {                                           \
      ::smtu::assertion_failure(#expr, __FILE__, __LINE__, (detail));     \
    }                                                                     \
  } while (false)

#ifdef NDEBUG
#define SMTU_DCHECK(expr) \
  do {                    \
  } while (false)
#else
#define SMTU_DCHECK(expr) SMTU_CHECK(expr)
#endif
