// The benchmark's workloads. Each is a traffic mix served two ways:
// by the engine on MemEnv under the wall clock (closed loop, checked
// against an expected state), and by the ELMo-Tune loop on SimEnv for
// the matching paper workload. A run reports every end-to-end metric,
// or with tracing every per-layer metric; see ../README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string spans_out;  // traced runs write their spans here if set
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Percentile picks, data sizes, flush policy, op accounting.
  elmo::json::Object detail;
};

const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunOptions& opt);

}  // namespace perfbench
