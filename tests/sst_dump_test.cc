// dump_tool: SST dissection must round-trip what the engine wrote (key
// counts, ranges, bloom stats), MANIFEST/LOG dumps must decode real
// files, the whole-directory walk must cover every artifact, and the
// trace dump must decode every trace kind.
#include "bench_kit/dump_tool.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "env/sim_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"

namespace elmo {
namespace {

class SstDumpTest : public ::testing::Test {
 protected:
  SstDumpTest()
      : env_(HardwareProfile::Make(2, 4, DeviceModel::NvmeSsd()), 42) {}

  // Fill a DB with `keys` distinct keys (one version each), flush, and
  // return the paths of all live SSTs.
  std::vector<std::string> FillDb(const std::string& dbname, int keys,
                                  lsm::Options opts) {
    opts.env = &env_;
    opts.create_if_missing = true;
    std::unique_ptr<lsm::DB> db;
    EXPECT_TRUE(lsm::DB::Open(opts, dbname, &db).ok());
    const std::string value(256, 'v');
    for (int i = 0; i < keys; i++) {
      char key[32];
      snprintf(key, sizeof(key), "key%06d", i);
      EXPECT_TRUE(db->Put({}, key, value).ok());
    }
    EXPECT_TRUE(db->FlushMemTable().ok());
    db.reset();

    std::vector<std::string> children;
    EXPECT_TRUE(env_.GetChildren(dbname, &children).ok());
    std::vector<std::string> ssts;
    for (const std::string& child : children) {
      uint64_t number = 0;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        ssts.push_back(dbname + "/" + child);
      }
    }
    return ssts;
  }

  SimEnv env_;
};

TEST_F(SstDumpTest, SstRoundTripsKeyCountAndRange) {
  lsm::Options opts;
  opts.write_buffer_size = 32 << 10;  // force several flush-sized SSTs
  std::vector<std::string> ssts = FillDb("/db", 500, opts);
  ASSERT_FALSE(ssts.empty());

  uint64_t total_entries = 0;
  std::string smallest, largest;
  for (const std::string& path : ssts) {
    bench::SstSummary summary;
    std::string text;
    Status s = bench::DumpSst(&env_, path, /*scan=*/true,
                              /*list_blocks=*/true, &summary, &text);
    ASSERT_TRUE(s.ok()) << path << ": " << s.ToString();
    EXPECT_GT(summary.file_size, 0u);
    EXPECT_GT(summary.num_data_blocks, 0u);
    EXPECT_GT(summary.num_entries, 0u);
    EXPECT_EQ(0u, summary.num_deletions);
    EXPECT_LE(summary.smallest_user_key, summary.largest_user_key);
    total_entries += summary.num_entries;
    if (smallest.empty() || summary.smallest_user_key < smallest) {
      smallest = summary.smallest_user_key;
    }
    largest = std::max(largest, summary.largest_user_key);
    EXPECT_NE(std::string::npos, text.find("data block"));
  }
  // Every key written exactly once -> SST entries sum to the key count.
  EXPECT_EQ(500u, total_entries);
  EXPECT_EQ("key000000", smallest);
  EXPECT_EQ("key000499", largest);
}

TEST_F(SstDumpTest, BloomStatsSurface) {
  lsm::Options opts;
  opts.bloom_filter_bits_per_key = 10;
  std::vector<std::string> ssts = FillDb("/bloomdb", 200, opts);
  ASSERT_FALSE(ssts.empty());

  bench::SstSummary summary;
  std::string text;
  ASSERT_TRUE(bench::DumpSst(&env_, ssts[0], true, false, &summary, &text)
                  .ok());
  EXPECT_GT(summary.filter_size, 0u);
  // leveldb bloom scheme stores the probe count in the last byte;
  // 10 bits/key -> k = 10 * ln2 ~= 6.
  EXPECT_GE(summary.bloom_probes, 1);
  EXPECT_LE(summary.bloom_probes, 30);
  EXPECT_NE(std::string::npos, text.find("bloom"));
}

TEST_F(SstDumpTest, RejectsNonSstFiles) {
  ASSERT_TRUE(env_.CreateDirIfMissing("/junkdir").ok());
  ASSERT_TRUE(
      env_.WriteStringToFile("definitely not an sst", "/junkdir/000001.sst")
          .ok());
  bench::SstSummary summary;
  Status s =
      bench::DumpSst(&env_, "/junkdir/000001.sst", true, false, &summary,
                     nullptr);
  EXPECT_FALSE(s.ok());
}

TEST_F(SstDumpTest, ManifestAndLogAndDirDump) {
  lsm::Options opts;
  FillDb("/db2", 100, opts);

  std::vector<std::string> children;
  ASSERT_TRUE(env_.GetChildren("/db2", &children).ok());
  std::string manifest, info_log;
  for (const std::string& child : children) {
    uint64_t number = 0;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    if (type == FileType::kDescriptorFile) manifest = "/db2/" + child;
    if (type == FileType::kInfoLogFile) info_log = "/db2/" + child;
  }
  ASSERT_FALSE(manifest.empty());
  ASSERT_FALSE(info_log.empty());

  std::string text;
  ASSERT_TRUE(bench::DumpManifest(&env_, manifest, &text).ok());
  EXPECT_NE(std::string::npos, text.find("edit"));

  text.clear();
  ASSERT_TRUE(bench::DumpInfoLog(&env_, info_log, false, &text).ok());
  // The structured LOG always records open and close events.
  EXPECT_NE(std::string::npos, text.find("open"));
  EXPECT_NE(std::string::npos, text.find("close"));

  // A non-JSONL file is rejected, not half-parsed.
  ASSERT_TRUE(env_.WriteStringToFile("plain text line", "/db2/fake_log").ok());
  text.clear();
  EXPECT_TRUE(
      bench::DumpInfoLog(&env_, "/db2/fake_log", false, &text).IsCorruption());

  text.clear();
  ASSERT_TRUE(bench::DumpDbDir(&env_, "/db2", &text).ok());
  EXPECT_NE(std::string::npos, text.find("CURRENT ->"));
  EXPECT_NE(std::string::npos, text.find("entries:"));
  EXPECT_NE(std::string::npos, text.find("manifest"));
}

// `elmo_dump trace` picks the decoder from the file's magic: one DB run
// with every trace kind active must dump each of them, and anything
// else is rejected.
TEST_F(SstDumpTest, TraceDumpDispatchesOnMagic) {
  lsm::Options opts;
  opts.env = &env_;
  opts.create_if_missing = true;
  opts.write_buffer_size = 64 << 10;
  std::unique_ptr<lsm::DB> db;
  ASSERT_TRUE(lsm::DB::Open(opts, "/db3", &db).ok());
  using lsm::TraceKind;
  lsm::SpanTraceOptions every_op;
  every_op.slow_op_threshold_us = 0;
  ASSERT_TRUE(db->StartTrace(TraceKind::kOp, "/op.trace").ok());
  ASSERT_TRUE(db->StartTrace(TraceKind::kIO, "/io.trace").ok());
  ASSERT_TRUE(db->StartTrace(TraceKind::kBlockCache, "/cache.trace").ok());
  ASSERT_TRUE(db->StartTrace(TraceKind::kSpan, "/span.trace", every_op).ok());
  const std::string value(256, 'v');
  std::string out;
  for (int i = 0; i < 400; i++) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(db->Put({}, key, value).ok());
  }
  ASSERT_TRUE(db->Delete({}, "key7").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  for (int i = 0; i < 50; i++) db->Get({}, "key" + std::to_string(i), &out);
  for (TraceKind kind : {TraceKind::kOp, TraceKind::kIO,
                         TraceKind::kBlockCache, TraceKind::kSpan}) {
    ASSERT_TRUE(db->EndTrace(kind).ok());
  }
  db.reset();

  std::string text;
  ASSERT_TRUE(bench::DumpTrace(&env_, "/op.trace", true, &text).ok());
  EXPECT_NE(std::string::npos,
            text.find("451 ops (400 puts, 1 deletes, 50 gets)"))
      << text;
  EXPECT_NE(std::string::npos, text.find(" delete thread=")) << text;
  text.clear();
  ASSERT_TRUE(bench::DumpTrace(&env_, "/io.trace", false, &text).ok());
  EXPECT_EQ(0u, text.find("io trace: ")) << text;
  text.clear();
  ASSERT_TRUE(bench::DumpTrace(&env_, "/cache.trace", true, &text).ok());
  EXPECT_NE(std::string::npos, text.find("block cache trace /cache.trace: "))
      << text;
  text.clear();
  ASSERT_TRUE(bench::DumpTrace(&env_, "/span.trace", true, &text).ok());
  EXPECT_NE(std::string::npos, text.find("--- tree 0: thread ")) << text;
  EXPECT_NE(std::string::npos, text.find("span trace: ")) << text;

  ASSERT_TRUE(env_.WriteStringToFile("ELMOXXX1 is no trace", "/junk").ok());
  EXPECT_TRUE(bench::DumpTrace(&env_, "/junk", false, &text).IsCorruption());
  EXPECT_FALSE(bench::DumpTrace(&env_, "/missing", false, &text).ok());
}

}  // namespace
}  // namespace elmo
