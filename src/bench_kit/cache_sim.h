// Offline block-cache simulator. Replays a trace produced by
// DB::StartTrace(TraceKind::kBlockCache) (table/block_cache_tracer.h)
// against "ghost" LRU caches — same sharding, hashing, and eviction
// policy as the real table/cache.cc, but holding no block payloads — at
// a ladder of capacities, producing the miss-ratio-vs-capacity curve
// the tuning prompt uses to argue for or against a bigger
// block_cache_size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "env/env.h"
#include "util/json.h"
#include "util/status.h"

namespace elmo::bench {

struct CacheSimPoint {
  uint64_t capacity = 0;  // simulated cache capacity in bytes
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_ratio = 0.0;
  double miss_ratio = 0.0;
};

struct CacheSimResult {
  uint64_t records = 0;        // trace records replayed
  uint64_t unique_blocks = 0;  // distinct (file, offset) blocks seen
  uint64_t total_charge = 0;   // sum of distinct block charges (working set)
  std::vector<CacheSimPoint> curve;  // sorted by ascending capacity
  // Index into `curve` of the diminishing-returns knee (max curvature of
  // miss ratio over log-capacity); 0 when the curve is too short.
  size_t knee_index = 0;

  json::Object ToJson() const;
  std::string ToText() const;
  // Compact curve summary for the tuning prompt.
  std::string ToPromptText(uint64_t configured_capacity) const;
};

// Replay the trace at `path` through ghost LRUs at each capacity in
// `capacities` (deduplicated + sorted internally; must be non-empty).
// `num_shard_bits` should match the real cache (NewLruCache default 4).
Status SimulateCacheTrace(Env* env, const std::string& path,
                          const std::vector<uint64_t>& capacities,
                          int num_shard_bits, CacheSimResult* out);

// The default capacity ladder for miss-ratio curves: {1/4, 1/2, 1, 2, 4,
// 8} x base (deduplicated, zero-free). `base` is the configured
// block_cache_size.
std::vector<uint64_t> DefaultCapacityLadder(uint64_t base);

}  // namespace elmo::bench
