#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

// Index of the nearest-rank `pct`-th percentile in a sample of `n`.
uint64_t RankIndex(uint64_t n, double pct) {
  // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
  const double rank = std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
  return rank < 1 ? 0 : static_cast<uint64_t>(rank) - 1;
}

}  // namespace

Percentile PickPercentile(const std::vector<uint32_t>& sorted, double want) {
  static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  Percentile p;
  p.count = sorted.size();
  for (double pct : kLadder) {
    if (pct > want) continue;
    const uint64_t idx = RankIndex(p.count, pct);
    if (idx >= p.count || p.count - 1 - idx < 10) continue;
    p.value = sorted[idx];
    p.pct = pct;
    return p;
  }
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace perfbench
