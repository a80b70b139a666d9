// Host and build fingerprint stamped into every result.
#pragma once

#include <string>

#include "util/json.h"

namespace perfbench {

// nproc, CPU model, compiler id and version, build type and flags.
elmo::json::Object Fingerprint();

// Empty when this build may report timings; otherwise why it may not
// (a Debug or unoptimized build, assertions on, or a sanitizer).
std::string BuildRefusal();

}  // namespace perfbench
