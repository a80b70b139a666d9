#include "fingerprint.h"

#include <cpuid.h>

#include <cstring>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

namespace {

// The processor brand string, read with CPUID rather than from a file.
std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; i++) {
    if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

elmo::json::Object Fingerprint() {
  return elmo::json::Object{
      {"nproc", static_cast<int>(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
  };
}

std::string BuildRefusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "built with a sanitizer";
  }
  return "";
}

}  // namespace perfbench
