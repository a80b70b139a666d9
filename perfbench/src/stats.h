// Sample statistics shared by the benchmark's workloads and tests.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile of a latency sample, with the sample it was read from.
struct Percentile {
  double value = 0;    // nearest-rank value, in the samples' unit
  double pct = 0;      // percentile actually reported; 0 = none supported
  uint64_t count = 0;  // samples
};

// The `want`-th percentile of `sorted` (ascending, nearest rank). A
// percentile is only reported when at least ten samples lie beyond it;
// when `want` lacks them, the highest lower percentile of the ladder
// 99.9/99/95/90/75/50 that has them is reported instead.
Percentile PickPercentile(const std::vector<uint32_t>& sorted, double want);

// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> v);

// Arithmetic mean of `v`; 0 when empty.
double Mean(const std::vector<double>& v);

}  // namespace perfbench
