// The record-log container (env/record_log.h) every trace is written in:
// framing round trip, clean EOF, and each way a file can be rejected
// (bad magic, wrong version, bit flip, torn tail, oversized length),
// plus the writer's open/close contract and appends racing a close.
// The format-pinning tests then write a fixed record sequence of each
// trace kind and compare the file with committed bytes, so any change
// to a trace's bytes fails here.
#include "env/record_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "env/io_trace.h"
#include "env/mem_env.h"
#include "lsm/span.h"
#include "lsm/trace.h"
#include "table/block_cache_tracer.h"
#include "util/coding.h"

namespace elmo {
namespace {

constexpr char kMagic[] = "TESTLOG1";

// Writes records "a", "" and 300 x 'z' to `path`.
void WriteSample(Env* env, const std::string& path) {
  RecordLogWriter w;
  ASSERT_TRUE(w.Open(env, path, kMagic, /*base_ts_us=*/77).ok());
  ASSERT_TRUE(w.Append("a").ok());
  ASSERT_TRUE(w.Append("").ok());
  ASSERT_TRUE(w.Append(std::string(300, 'z')).ok());
  EXPECT_EQ(3u, w.records());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_FALSE(w.active());
  EXPECT_EQ(3u, w.records());  // kept until the next Open
}

// Reads `path` to the end; returns the first error.
Status ReadAll(Env* env, const std::string& path, int* records) {
  *records = 0;
  RecordLogReader r(env);
  Status s = r.Open(path, kMagic);
  std::string payload;
  bool eof = false;
  while (s.ok()) {
    s = r.Next(&payload, &eof);
    if (eof) break;
    if (s.ok()) ++*records;
  }
  return s;
}

class RecordLogTest : public ::testing::Test {
 protected:
  RecordLogTest() {
    WriteSample(&env_, "/log");
    EXPECT_TRUE(env_.ReadFileToString("/log", &bytes_).ok());
  }

  // Reads `contents` back as a record log.
  Status ReadBytes(const std::string& contents, int* records) {
    EXPECT_TRUE(env_.WriteStringToFile(contents, "/mod").ok());
    return ReadAll(&env_, "/mod", records);
  }

  MemEnv env_;
  std::string bytes_;  // the sample log's file contents
};

TEST_F(RecordLogTest, RoundTripEndsInCleanEof) {
  // 20-byte header, then an 8-byte frame header per record.
  EXPECT_EQ(20u + 8 + 1 + 8 + 0 + 8 + 300, bytes_.size());
  RecordLogReader r(&env_);
  ASSERT_TRUE(r.Open("/log", kMagic).ok());
  EXPECT_EQ(77u, r.base_ts_us());
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(r.Next(&payload, &eof).ok());
  EXPECT_EQ("a", payload);
  ASSERT_TRUE(r.Next(&payload, &eof).ok());
  EXPECT_EQ("", payload);
  ASSERT_TRUE(r.Next(&payload, &eof).ok());
  EXPECT_EQ(std::string(300, 'z'), payload);
  ASSERT_FALSE(eof);
  ASSERT_TRUE(r.Next(&payload, &eof).ok());
  EXPECT_TRUE(eof);
  // A log with no records is a clean end of file at once.
  int records = -1;
  EXPECT_TRUE(ReadBytes(bytes_.substr(0, 20), &records).ok());
  EXPECT_EQ(0, records);
}

TEST_F(RecordLogTest, BadMagicRejectedAtOpen) {
  RecordLogReader r(&env_);
  EXPECT_TRUE(r.Open("/log", "OTHERLG1").IsCorruption());
  std::string payload;
  bool eof = false;
  EXPECT_FALSE(r.Next(&payload, &eof).ok());  // a failed Open reads nothing

  int records = 0;
  EXPECT_TRUE(ReadBytes("not a record log at all", &records).IsCorruption());
  EXPECT_TRUE(ReadBytes("", &records).IsCorruption());
  EXPECT_TRUE(ReadBytes(bytes_.substr(0, 12), &records).IsCorruption());
}

TEST_F(RecordLogTest, WrongVersionRejectedAtOpen) {
  std::string v2 = bytes_;
  EncodeFixed32(&v2[kRecordLogMagicSize], 2);
  int records = 0;
  EXPECT_TRUE(ReadBytes(v2, &records).IsCorruption());
}

TEST_F(RecordLogTest, BitFlipFailsTheCrc) {
  std::string flipped = bytes_;
  flipped[flipped.size() - 100] ^= 0x08;  // inside the third payload
  int records = 0;
  EXPECT_TRUE(ReadBytes(flipped, &records).IsCorruption());
  EXPECT_EQ(2, records);  // the records before it still read
}

TEST_F(RecordLogTest, TornTailIsCorruptionNotEof) {
  int records = 0;
  // Torn inside the last payload, and inside the last frame header.
  EXPECT_TRUE(
      ReadBytes(bytes_.substr(0, bytes_.size() - 1), &records).IsCorruption());
  EXPECT_EQ(2, records);
  EXPECT_TRUE(
      ReadBytes(bytes_.substr(0, bytes_.size() - 304), &records)
          .IsCorruption());
  EXPECT_EQ(2, records);
}

TEST_F(RecordLogTest, OversizedLengthRejected) {
  // First frame header claims one byte more than the limit.
  std::string big = bytes_;
  EncodeFixed32(&big[20 + 4], kMaxRecordLogPayload + 1);
  int records = 0;
  EXPECT_TRUE(ReadBytes(big, &records).IsCorruption());
  EXPECT_EQ(0, records);
}

TEST_F(RecordLogTest, WriterOpenCloseContract) {
  RecordLogWriter w;
  EXPECT_FALSE(w.active());
  EXPECT_TRUE(w.Close().IsInvalidArgument());
  EXPECT_TRUE(w.Append("x").IsIOError());
  EXPECT_TRUE(w.Open(&env_, "/w", "SHORT", 0).IsInvalidArgument());

  ASSERT_TRUE(w.Open(&env_, "/w", kMagic, 0).ok());
  EXPECT_TRUE(w.active());
  EXPECT_TRUE(w.Open(&env_, "/w2", kMagic, 0).IsBusy());
  ASSERT_TRUE(w.Append("x").ok());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_TRUE(w.Close().IsInvalidArgument());

  // Reopening starts a fresh log and a fresh count.
  ASSERT_TRUE(w.Open(&env_, "/w", kMagic, 0).ok());
  EXPECT_EQ(0u, w.records());
  ASSERT_TRUE(w.Close().ok());
  int records = -1;
  ASSERT_TRUE(ReadAll(&env_, "/w", &records).ok());
  EXPECT_EQ(0, records);

  std::string magic;
  ASSERT_TRUE(ReadRecordLogMagic(&env_, "/w", &magic).ok());
  EXPECT_EQ(kMagic, magic);
  ASSERT_TRUE(env_.WriteStringToFile("tiny", "/tiny").ok());
  EXPECT_TRUE(ReadRecordLogMagic(&env_, "/tiny", &magic).IsCorruption());
}

// Appends race a Close (as an IO or span trace ends while the engine is
// still running): every append either lands as a whole frame or fails,
// so the file always reads to a clean end with exactly records() frames.
TEST_F(RecordLogTest, AppendsRacingCloseNeverTearAFrame) {
  RecordLogWriter w;
  ASSERT_TRUE(w.Open(&env_, "/race", kMagic, 0).ok());
  std::atomic<int> appended{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&w, &appended, t] {
      const std::string payload(100 + t, static_cast<char>('a' + t));
      while (w.Append(payload).ok()) appended.fetch_add(1);
    });
  }
  while (appended.load() < 1000) std::this_thread::yield();
  ASSERT_TRUE(w.Close().ok());
  for (auto& t : threads) t.join();

  int records = 0;
  ASSERT_TRUE(ReadAll(&env_, "/race", &records).ok());
  EXPECT_EQ(static_cast<uint64_t>(records), w.records());
  EXPECT_EQ(appended.load(), records);
}

// ---------------------------------------------------------------------
// Format pinning: the hex literals are the files these exact sequences
// must produce. SimEnv charges every trace byte as device time, so a
// change here moves every SimEnv result.

// A MemEnv whose clock the test sets (the block-cache tracer stamps
// records with the env clock).
class ClockEnv : public MemEnv {
 public:
  uint64_t NowMicros() override { return now; }
  uint64_t now = 0;
};

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string FileBytes(Env* env, const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(env->ReadFileToString(path, &bytes).ok());
  return bytes;
}

// Every reader but the one for `path`'s kind must reject it at Open.
void ExpectOnlyReaderAccepts(Env* env, const std::string& path,
                             int accepting) {
  lsm::TraceReader op(env);
  IOTraceReader io(env);
  BlockCacheTraceReader bct(env);
  lsm::SpanTraceReader span(env);
  const Status opened[] = {op.Open(path), io.Open(path), bct.Open(path),
                           span.Open(path)};
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(i == accepting, opened[i].ok()) << path << " reader " << i;
  }
}

TEST(TraceFormatTest, OpTraceBytesPinned) {
  ClockEnv env;
  lsm::TraceWriter w(&env);
  ASSERT_TRUE(w.Open("/op", 1000).ok());
  ASSERT_TRUE(w.AddRecord(lsm::TraceOp::kPut, 1010, 7, "alpha", 128).ok());
  ASSERT_TRUE(w.AddRecord(lsm::TraceOp::kDelete, 1020, 7, "beta", 0).ok());
  ASSERT_TRUE(w.AddRecord(lsm::TraceOp::kGet, 1030, 9, "gamma", 0).ok());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_EQ(
      Unhex("454c4d4f5452433101000000e803000000000000f4d542b11500000001f20300"
            "00000000000700000005616c70686180014519af611300000002fc0300000000"
            "000007000000046265746100e455078314000000030604000000000000090000"
            "000567616d6d6100"),
      FileBytes(&env, "/op"));
  ExpectOnlyReaderAccepts(&env, "/op", 0);
}

TEST(TraceFormatTest, IOTraceBytesPinned) {
  ClockEnv env;
  IOTracer t(&env);
  ASSERT_TRUE(t.Open("/io", 999).ok());
  IOTraceRecord r;
  r.op = IOOp::kWrite;
  r.kind = IOFileKind::kWal;
  r.context = IOContextTag::kUserWrite;
  r.ts_us = 1000;
  r.offset = 4096;
  r.len = 512;
  r.latency_us = 80;
  r.fname = "/db/000005.log";
  ASSERT_TRUE(t.AddRecord(r).ok());
  r.op = IOOp::kSync;
  r.offset = 0;
  r.len = 0;
  r.ts_us = 1100;
  r.latency_us = 300;
  ASSERT_TRUE(t.AddRecord(r).ok());
  r.op = IOOp::kRead;
  r.kind = IOFileKind::kSstIndexFilter;
  r.context = IOContextTag::kUserGet;
  r.ts_us = 1500;
  r.offset = 65536;
  r.len = 4096;
  r.latency_us = 90;
  r.fname = "/db/000007.sst";
  ASSERT_TRUE(t.AddRecord(r).ok());
  ASSERT_TRUE(t.Close().ok());
  EXPECT_EQ(
      Unhex("454c4d4f494f543101000000e7030000000000006badcdd432000000020102e8"
            "030000000000000010000000000000000200000000000050000000000000000e"
            "2f64622f3030303030352e6c6f67e9b95b77320000000301024c040000000000"
            "00000000000000000000000000000000002c010000000000000e2f64622f3030"
            "303030352e6c6f675256d5fb32000000010301dc050000000000000000010000"
            "00000000100000000000005a000000000000000e2f64622f3030303030372e73"
            "7374"),
      FileBytes(&env, "/io"));
  ExpectOnlyReaderAccepts(&env, "/io", 1);
}

TEST(TraceFormatTest, BlockCacheTraceBytesPinned) {
  ClockEnv env;
  BlockCacheTracer t(&env);
  ASSERT_TRUE(t.Open("/bct", 2000).ok());
  env.now = 2010;
  t.Record(TraceBlockType::kData, false, true, 1, 7, 4096, 4111);
  env.now = 2020;
  t.Record(TraceBlockType::kIndex, true, true, -1, 7, 65536, 900);
  env.now = 2030;
  t.Record(TraceBlockType::kFilter, false, false, 3, 12, 0, 300);
  ASSERT_TRUE(t.Close().ok());
  EXPECT_EQ(
      Unhex("454c4d4f4243543101000000d0070000000000000d6c6d2c24000000da070000"
            "0000000001000101070000000000000000100000000000000f10000000000000"
            "05e5c58a24000000e407000000000000020101ff070000000000000000000100"
            "0000000084030000000000003035286724000000ee0700000000000003000003"
            "0c0000000000000000000000000000002c01000000000000"),
      FileBytes(&env, "/bct"));
  ExpectOnlyReaderAccepts(&env, "/bct", 2);
}

TEST(TraceFormatTest, SpanTraceBytesPinned) {
  ClockEnv env;
  lsm::SpanTracer t(&env);
  lsm::SpanTraceOptions o;
  o.slow_op_threshold_us = 100;
  o.sample_every = 2;
  ASSERT_TRUE(t.Open("/span", o, 3000).ok());
  lsm::SpanTree w;
  w.thread_id = 3;
  w.spans.resize(2);
  w.spans[0].kind = lsm::SpanKind::kWrite;
  w.spans[0].start_us = 3500;
  w.spans[0].duration_us = 150;
  w.spans[0].annotations = {{lsm::SpanTag::kBytes, 4096},
                            {lsm::SpanTag::kEntries, 2}};
  w.spans[1].kind = lsm::SpanKind::kWalSync;
  w.spans[1].parent = 0;
  w.spans[1].start_us = 3510;
  w.spans[1].duration_us = 120;
  w.spans[1].annotations = {{lsm::SpanTag::kBytes, 300}};
  t.Consume(w);  // slow and sampled
  w.spans[0].duration_us = 50;
  t.Consume(w);  // neither: not written
  lsm::SpanTree g;
  g.thread_id = 4;
  g.spans.resize(1);
  g.spans[0].kind = lsm::SpanKind::kGet;
  g.spans[0].start_us = 3700;
  g.spans[0].duration_us = 10;
  g.spans[0].annotations = {{lsm::SpanTag::kHit, 1}};
  t.Consume(g);  // sampled
  ASSERT_TRUE(t.Close().ok());
  EXPECT_EQ(2u, t.records());
  EXPECT_EQ(
      Unhex("454c4d4f53504e3101000000b80b0000000000009f025d5521000000ac0d0000"
            "00000000030000000302010000960102018020020221010a780101ac02cfbe72"
            "be15000000740e0000000000000400000002010200000a010901"),
      FileBytes(&env, "/span"));
  ExpectOnlyReaderAccepts(&env, "/span", 3);
}

}  // namespace
}  // namespace elmo
