// Tests of the benchmark's own helpers: the percentile picker, the Env
// decorator's file-kind classification and byte accounting, and self
// time from nested spans.
#include <gtest/gtest.h>

#include <atomic>

#include <memory>
#include <string>
#include <vector>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<uint32_t> OneTo(uint32_t n) {
  std::vector<uint32_t> v;
  for (uint32_t i = 1; i <= n; i++) v.push_back(i);
  return v;
}

TEST(PickPercentile, ReportsWantedPercentileWithTenSamplesBeyond) {
  const Percentile p = PickPercentile(OneTo(1000), 99);
  EXPECT_EQ(p.pct, 99);
  EXPECT_EQ(p.value, 990);  // ten samples (991..1000) lie beyond it
  EXPECT_EQ(p.count, 1000u);
  EXPECT_EQ(PickPercentile(OneTo(10000), 99.9).pct, 99.9);
}

TEST(PickPercentile, FallsBackWhenTooFewSamplesBeyond) {
  const Percentile p = PickPercentile(OneTo(999), 99);  // 9 beyond p99
  EXPECT_EQ(p.pct, 95);
  EXPECT_EQ(p.value, 950);
  EXPECT_EQ(PickPercentile(OneTo(21), 50).value, 11);
  EXPECT_EQ(PickPercentile(OneTo(21), 99).pct, 50);
}

TEST(PickPercentile, NoneWhenEvenTheMedianLacksTenBeyond) {
  EXPECT_EQ(PickPercentile(OneTo(15), 50).pct, 0);
  EXPECT_EQ(PickPercentile({}, 50).pct, 0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Mean, OfValuesAndEmpty) {
  EXPECT_EQ(Mean({1, 2, 6}), 3);
  EXPECT_EQ(Mean({}), 0);
}

TEST(ProbeEnv, ClassifiesFilesByName) {
  EXPECT_EQ(ClassifyFile("/db/000012.log"), FileKind::kWal);
  EXPECT_EQ(ClassifyFile("/db/000013.sst"), FileKind::kSst);
  EXPECT_EQ(ClassifyFile("/db/MANIFEST-000004"), FileKind::kManifest);
  EXPECT_EQ(ClassifyFile("MANIFEST-000001"), FileKind::kManifest);
  for (const char* other :
       {"/db/CURRENT", "/db/LOG", "/db/OPTIONS-000005", "/db/000007.dbtmp",
        "/db/000008.log.old", "/db/.log", "/db.log/CURRENT"}) {
    EXPECT_EQ(ClassifyFile(other), FileKind::kOther) << other;
  }
}

void Append(ProbeEnv* env, const std::string& name, size_t bytes) {
  std::unique_ptr<elmo::WritableFile> f;
  ASSERT_TRUE(env->NewWritableFile(name, &f).ok());
  ASSERT_TRUE(f->Append(std::string(bytes, 'x')).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
}

TEST(ProbeEnv, AccountsBytesByKindAndWriteAmp) {
  elmo::MemEnv mem;
  ProbeEnv env(&mem);
  ASSERT_TRUE(env.CreateDirIfMissing("/db").ok());
  // Two 16 + 100 byte entries cost 2 x 138 WAL bytes, then a 500-byte
  // table, a 60-byte manifest and 40 bytes of other files.
  Append(&env, "/db/000003.log", 2 * 138);
  Append(&env, "/db/000004.sst", 500);
  Append(&env, "/db/MANIFEST-000002", 60);
  Append(&env, "/db/CURRENT", 40);
  EXPECT_EQ(env.Totals(FileKind::kWal).append_bytes, 276u);
  EXPECT_EQ(env.Totals(FileKind::kSst).append_bytes, 500u);
  EXPECT_EQ(env.Totals(FileKind::kManifest).append_bytes, 60u);
  EXPECT_EQ(env.Totals(FileKind::kOther).append_bytes, 40u);
  EXPECT_EQ(env.Totals(FileKind::kSst).sync_calls, 1u);
  EXPECT_EQ(env.AppendedBytes(), 876u);
  EXPECT_DOUBLE_EQ(WriteAmp(env.AppendedBytes(), 2 * 116), 876.0 / 232.0);
  EXPECT_EQ(WriteAmp(876, 0), 0);
  EXPECT_EQ(env.LiveBytes("/db"), 876u);

  std::unique_ptr<elmo::RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("/db/000004.sst", &f).ok());
  char scratch[100];
  elmo::Slice got;
  const uint64_t reads = ProbeEnv::ThreadSstReads();
  ASSERT_TRUE(f->Read(10, 100, &got, scratch).ok());
  EXPECT_EQ(ProbeEnv::ThreadSstReads(), reads + 1);
  EXPECT_EQ(env.Totals(FileKind::kSst).read_bytes, 100u);
  FileTotals sum = env.Totals(FileKind::kSst);
  sum += env.Totals(FileKind::kWal);
  EXPECT_EQ(sum.append_bytes, 776u);
  EXPECT_EQ(sum.read_bytes, 100u);
}

TEST(ProbeEnv, OnePutAppendsOneWalRecord) {
  elmo::MemEnv mem;
  ProbeEnv env(&mem);
  elmo::lsm::Options o;
  o.env = &env;
  std::unique_ptr<elmo::lsm::DB> db;
  ASSERT_TRUE(elmo::lsm::DB::Open(o, "/db", &db).ok());
  const uint64_t before = env.Totals(FileKind::kWal).append_bytes;
  ASSERT_TRUE(db->Put({}, std::string(16, 'k'), std::string(100, 'v')).ok());
  // 7-byte record header, 12-byte batch header, then type byte, varint
  // key length, key, varint value length, value.
  EXPECT_EQ(env.Totals(FileKind::kWal).append_bytes - before,
            7u + 12u + 1u + 1u + 16u + 1u + 100u);
}

TEST(ProbeEnv, TimesScheduledJobs) {
  elmo::MemEnv mem;
  ProbeEnv env(&mem);
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; i++) {
    env.Schedule([&] { ran++; }, elmo::JobPriority::kLow);
  }
  env.WaitForBackgroundWork();
  EXPECT_EQ(ran.load(), 3);
  const BgTotals bg = env.Background();
  EXPECT_EQ(bg.jobs, 3u);
  EXPECT_EQ(bg.queue_wait_ns.size(), 3u);
}

Span MakeSpan(uint64_t start, uint64_t end, int64_t parent) {
  Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // 0: root
      MakeSpan(10, 30, 0),   // 1: child
      MakeSpan(20, 50, 0),   // 2: child overlapping 1
      MakeSpan(90, 120, 0),  // 3: child running past the root's end
      MakeSpan(12, 18, 1),   // 4: grandchild, not the root's child
      MakeSpan(200, 210, -1),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
  EXPECT_EQ(self[5], 10u);
}

TEST(SpanScope, RecordsNestingAndSamplesRoots) {
  ClearSpans();
  SetTracing(true);
  {
    SpanScope op("op");
    SpanScope io("io");
  }
  for (uint64_t i = 0; i < 2 * kSampleEvery; i++) {
    SpanScope sampled("sampled", true);
    SpanScope child("child");
  }
  SetTracing(false);
  { SpanScope off("off"); }
  uint64_t dropped = 1;
  const std::vector<Span> spans = CollectSpans(&dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(spans.size(), 2u + 2u * 2u);
  EXPECT_EQ(std::string(spans[0].name), "op");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].op_id, spans[0].op_id);
  EXPECT_NE(spans[2].op_id, spans[0].op_id);
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0] + spans[1].duration(), spans[0].duration());
  // Only scopes under the sampled (per-operation) roots count as op scopes.
  const OpScopeCounts counts = CountOpScopes();
  EXPECT_EQ(counts.scopes, 2u * kSampleEvery * 2u);
  EXPECT_EQ(counts.recorded, 2u * 2u);
  ClearSpans();
  EXPECT_EQ(CountOpScopes().scopes, 0u);
}

TEST(MeasureScopeCost, PositiveAndLeavesNothingRecorded) {
  const ScopeCost cost = MeasureScopeCost();
  EXPECT_GT(cost.recorded_ns, 0);
  EXPECT_GT(cost.skipped_ns, 0);
  EXPECT_FALSE(TracingOn());
  uint64_t dropped = 1;
  EXPECT_TRUE(CollectSpans(&dropped).empty());
  EXPECT_EQ(CountOpScopes().scopes, 0u);
}

}  // namespace
}  // namespace perfbench
