#include "support/assert.hpp"

#include <cstdio>
#include <cstdlib>

namespace smtu {

void assertion_failure(const char* expr, const char* file, int line, const char* detail) {
  std::fprintf(stderr, "SMTU_CHECK failed: %s\n  at %s:%d\n", expr, file, line);
  if (detail != nullptr && detail[0] != '\0') {
    std::fprintf(stderr, "  detail: %s\n", detail);
  }
  std::fflush(stderr);
  std::abort();
}

void assertion_failure(const char* expr, const char* file, int line,
                       const std::string& detail) {
  assertion_failure(expr, file, line, detail.c_str());
}

}  // namespace smtu
