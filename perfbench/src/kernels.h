// Table kernel rows for the traced run: direct calls into the engine's
// public table functions on inputs shaped like the workloads' (16-byte
// table-cache keys, 16-byte user keys in internal-key form, 100-byte
// values, 4 KiB blocks), which bench/micro_engine.cc's loops do not
// use. Each figure is the median of five timed rounds. The util and
// MemTable rows come from micro_engine itself (see run.py).
#pragma once

#include <cstdint>

namespace perfbench {

struct KernelRows {
  double cache_lookup_ns = 0;  // LRU cache Lookup hit, table-cache key
  double bloom_probe_ns = 0;   // BloomFilterPolicy::KeyMayMatch, 10 bits
  double block_seek_ns = 0;    // Block iterator Seek in a 4 KiB block
};

KernelRows MeasureKernels(uint64_t seed);

}  // namespace perfbench
