#include "kernels.h"

#include <string>
#include <vector>

#include "bench_kit/generators.h"
#include "lsm/dbformat.h"
#include "stats.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/bloom.h"
#include "table/cache.h"
#include "table/comparator.h"
#include "trace.h"
#include "util/coding.h"
#include "util/random.h"

namespace perfbench {

namespace {

using elmo::Slice;

constexpr int kRounds = 5;
constexpr size_t kValueSize = 100;

// Kernel results are folded into this so the calls cannot be elided.
volatile uint64_t g_sink = 0;
void Sink(uint64_t v) { g_sink = g_sink + v; }

// Median over kRounds of `round()`'s nanoseconds divided by `ops`.
template <typename F>
double NsPerOp(uint64_t ops, F round) {
  std::vector<double> per_op;
  for (int r = 0; r < kRounds; r++) {
    const uint64_t start = NowNanos();
    round();
    per_op.push_back(static_cast<double>(NowNanos() - start) /
                     static_cast<double>(ops));
  }
  return Median(per_op);
}

std::vector<std::string> Keys(size_t n, uint64_t seed) {
  elmo::Random64 rng(seed);
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; i++) {
    keys.push_back(elmo::bench::MakeKey(rng.Uniform(1ull << 40)));
  }
  return keys;
}

}  // namespace

KernelRows MeasureKernels(uint64_t seed) {
  KernelRows k;
  elmo::Random64 rng(seed);

  {
    // 4 KiB blocks keyed like the table reader's cache keys (cache id +
    // block offset), all resident.
    auto cache = elmo::NewLruCache(64ull << 20);
    const uint64_t id = cache->NewId();
    const int kBlocks = 4096;
    auto block = std::make_shared<std::string>(4096, 'b');
    std::vector<std::string> cache_keys;
    for (int i = 0; i < kBlocks; i++) {
      char buf[16];
      elmo::EncodeFixed64(buf, id);
      elmo::EncodeFixed64(buf + 8, static_cast<uint64_t>(i) * 4096);
      cache_keys.emplace_back(buf, sizeof(buf));
      cache->Insert(cache_keys.back(), block, block->size());
    }
    std::vector<uint32_t> order;
    for (int i = 0; i < 1 << 18; i++) order.push_back(rng.Uniform(kBlocks));
    k.cache_lookup_ns = NsPerOp(order.size(), [&] {
      uint64_t hits = 0;
      for (uint32_t i : order) hits += cache->Lookup(cache_keys[i]) != nullptr;
      Sink(hits);
    });
  }

  {
    // One filter per 4 KiB data block's worth of keys is what a table
    // holds; probe a table-sized filter with present and absent keys.
    const elmo::BloomFilterPolicy policy(10);
    const std::vector<std::string> keys = Keys(20000, seed + 1);
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::string filter;
    policy.CreateFilter(slices.data(), static_cast<int>(slices.size()),
                        &filter);
    const std::vector<std::string> absent = Keys(20000, seed + 2);
    k.bloom_probe_ns = NsPerOp(keys.size() * 2, [&] {
      uint64_t matches = 0;
      for (size_t i = 0; i < keys.size(); i++) {
        matches += policy.KeyMayMatch(keys[i], filter);
        matches += policy.KeyMayMatch(absent[i], filter);
      }
      Sink(matches);
    });
  }

  {
    const elmo::InternalKeyComparator icmp(elmo::BytewiseComparator());
    elmo::BlockBuilder builder(16);
    std::vector<std::string> ikeys;
    const std::string value(kValueSize, 'v');
    for (uint64_t i = 0; builder.CurrentSizeEstimate() < 4096; i++) {
      ikeys.push_back(
          elmo::InternalKey(elmo::bench::MakeKey(i * 2), 1, elmo::kTypeValue)
              .Encode()
              .ToString());
      builder.Add(ikeys.back(), value);
    }
    elmo::Block block(builder.Finish().ToString());
    auto it = block.NewIterator(&icmp);
    std::vector<std::string> targets;
    for (int i = 0; i < 4096; i++) targets.push_back(ikeys[rng.Uniform(ikeys.size())]);
    const uint64_t kSeeks = 1 << 18;
    k.block_seek_ns = NsPerOp(kSeeks, [&] {
      uint64_t valid = 0;
      for (uint64_t i = 0; i < kSeeks; i++) {
        it->Seek(targets[i & 4095]);
        valid += it->Valid();
      }
      Sink(valid);
    });
  }
  return k;
}

}  // namespace perfbench
