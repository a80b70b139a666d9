// DB iterators over sorted levels: each level >= 1 is one lazy
// concatenation of its files. Checked against a std::map model, for its
// block-cache cost per Seek, for a corrupt file in the middle of a
// level, and for the Version it walks staying alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <mutex>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "table/table.h"
#include "util/random.h"

namespace elmo::lsm {
namespace {

using Model = std::map<std::string, std::string>;

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

// Key range of one SST file, in user keys.
struct FileBounds {
  uint64_t number;
  std::string smallest;
  std::string largest;
};

class LevelIteratorTest : public ::testing::Test {
 protected:
  LevelIteratorTest() : env_(std::make_unique<MemEnv>()) {
    options_.env = env_.get();
    options_.create_if_missing = true;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  int FilesAt(int level) {
    std::string v;
    EXPECT_TRUE(db_->GetProperty(
        "elmo.num-files-at-level" + std::to_string(level), &v));
    return std::stoi(v);
  }

  void Put(Model* model, const std::string& k, const std::string& v) {
    ASSERT_TRUE(db_->Put({}, k, v).ok());
    (*model)[k] = v;
  }

  void Delete(Model* model, const std::string& k) {
    ASSERT_TRUE(db_->Delete({}, k).ok());
    model->erase(k);
  }

  // Writes keys [0, n) as two interleaved L0 runs, then compacts them
  // down: two overlapping inputs are merged and cut into
  // target_file_size_base files rather than moved as one.
  void LoadCompacted(Model* model, int n, const std::string& value) {
    for (int parity = 0; parity < 2; parity++) {
      for (int i = parity; i < n; i += 2) Put(model, Key(i), value + Key(i));
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  }

  // The live table files ("elmo.sstables"), by smallest key.
  std::vector<FileBounds> LiveFiles() {
    std::string text;
    EXPECT_TRUE(db_->GetProperty("elmo.sstables", &text));
    std::vector<FileBounds> out;
    size_t pos = 0;
    while (pos < text.size()) {
      const size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      // "L<level> #<number> <size> [<smallest>..<largest>]"
      const size_t open = line.find('[');
      const size_t dots = line.find("..", open);
      out.push_back({std::stoull(line.substr(line.find('#') + 1)),
                     line.substr(open + 1, dots - open - 1),
                     line.substr(dots + 2, line.size() - dots - 3)});
    }
    std::sort(out.begin(), out.end(),
              [](const FileBounds& a, const FileBounds& b) {
                return a.smallest < b.smallest;
              });
    return out;
  }

  // Full scans both ways, then a Seek to each target followed by two
  // Next and, from a fresh Seek, one Prev; every step against `model`.
  void CheckAgainstModel(const ReadOptions& ro, const Model& model,
                         const std::vector<std::string>& targets) {
    auto it = db_->NewIterator(ro);
    Model forward;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      forward[it->key().ToString()] = it->value().ToString();
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_TRUE(forward == model) << "forward scan differs";

    auto expect = model.rbegin();
    for (it->SeekToLast(); it->Valid(); it->Prev(), ++expect) {
      ASSERT_NE(expect, model.rend()) << it->key().ToString();
      ASSERT_EQ(expect->first, it->key().ToString());
      ASSERT_EQ(expect->second, it->value().ToString());
    }
    EXPECT_EQ(expect, model.rend()) << "backward scan ended early";

    for (const auto& target : targets) {
      SCOPED_TRACE("seek to '" + target + "'");
      auto want = model.lower_bound(target);
      it->Seek(target);
      for (int step = 0; step < 3; step++, ++want) {
        if (want == model.end()) {
          EXPECT_FALSE(it->Valid());
          break;
        }
        ASSERT_TRUE(it->Valid());
        ASSERT_EQ(want->first, it->key().ToString());
        ASSERT_EQ(want->second, it->value().ToString());
        it->Next();
      }
      it->Seek(target);
      if (!it->Valid()) continue;
      auto before = model.lower_bound(target);
      it->Prev();
      if (before == model.begin()) {
        EXPECT_FALSE(it->Valid());
      } else {
        --before;
        ASSERT_TRUE(it->Valid());
        EXPECT_EQ(before->first, it->key().ToString());
        EXPECT_EQ(before->second, it->value().ToString());
      }
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  }

  std::unique_ptr<MemEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(LevelIteratorTest, ScansAndSeeksMatchModelAcrossLevels) {
  options_.num_levels = 3;
  options_.write_buffer_size = 64 << 10;
  options_.target_file_size_base = 8 << 10;
  options_.max_bytes_for_level_base = 1ull << 30;  // L1 never spills
  options_.level0_file_num_compaction_trigger = 1;
  Open();
  Model model;

  // L2: one file, sparser keys that reach past everything above it.
  for (int i = 0; i < 4000; i += 100) Put(&model, Key(i), "a" + Key(i));
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  ASSERT_EQ(1, FilesAt(2));
  ASSERT_EQ(0, FilesAt(1));

  // L1: many files. Random order makes every flush overlap L1, so each
  // compaction rewrites it into target-sized files (no trivial moves).
  Random64 rng(301);
  std::vector<int> order(2000);
  for (int i = 0; i < 2000; i++) order[i] = i;
  for (int i = 1999; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  for (int i : order) {
    Put(&model, Key(i), "b" + Key(i) + std::string(40, 'x'));
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  ASSERT_EQ(0, FilesAt(0));
  ASSERT_GE(FilesAt(1), 8);
  ASSERT_EQ(1, FilesAt(2));

  // Newer versions and deletes in two L0 files (below the default
  // compaction trigger) and the memtable, all after a snapshot that must
  // still see the state above.
  db_.reset();
  options_.level0_file_num_compaction_trigger = 4;
  Open();
  const Snapshot* snap = db_->GetSnapshot();
  const Model snap_model = model;
  for (int i = 0; i < 4000; i += 7) Put(&model, Key(i), "c" + Key(i));
  for (int i = 0; i < 4000; i += 11) Delete(&model, Key(i));
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 3; i < 4000; i += 13) Put(&model, Key(i), "d" + Key(i));
  for (int i = 5; i < 4000; i += 17) Delete(&model, Key(i));
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  ASSERT_EQ(2, FilesAt(0));
  for (int i = 1; i < 4000; i += 19) Put(&model, Key(i), "e" + Key(i));
  for (int i = 2; i < 4000; i += 23) Delete(&model, Key(i));
  for (int i = 4000; i < 4050; i += 3) Put(&model, Key(i), "f" + Key(i));

  // Every file's first and last key, the gap just after each file, and
  // points before the first and past the last key.
  std::vector<std::string> targets = {"", "k", "z"};
  for (const auto& f : LiveFiles()) {
    targets.push_back(f.smallest);
    targets.push_back(f.largest);
    targets.push_back(f.largest + '\0');
  }
  CheckAgainstModel({}, model, targets);
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  CheckAgainstModel(at_snap, snap_model, targets);
  db_->ReleaseSnapshot(snap);
}

// One Seek + 10 Next on a fully compacted level costs the same number of
// block-cache lookups however many files the level has: only the table
// under the cursor is opened and sought.
TEST_F(LevelIteratorTest, SeekCostIsFlatInLevelFileCount) {
  constexpr uint64_t kMaxLookups = 3;
  for (int want_files : {4, 32}) {
    SCOPED_TRACE(std::to_string(want_files) + " L1 files");
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    options_.num_levels = 2;  // CompactRange leaves everything in L1
    options_.target_file_size_base = 16 << 10;
    Open();
    const int n = want_files * 80;  // ~76 such entries fill a file
    Model model;
    LoadCompacted(&model, n, std::string(200, 'v'));
    ASSERT_EQ(0, FilesAt(0));
    ASSERT_GE(FilesAt(1), want_files);

    auto it = db_->NewIterator({});
    const BlockCacheLookups before = ThreadBlockCacheLookups();
    it->Seek(Key(n / 2));
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(it->Valid());
      it->Next();
    }
    ASSERT_TRUE(it->Valid());
    const BlockCacheLookups after = ThreadBlockCacheLookups();
    EXPECT_LE(after.hits + after.misses - before.hits - before.misses,
              kMaxLookups);
  }
}

// A table is opened only when the cursor reaches it, so a corrupt file
// in the middle of a level shows up then: not before, and never as a
// silent gap.
TEST_F(LevelIteratorTest, CorruptFileMidLevelFailsTheScanThatCrossesIt) {
  options_.num_levels = 2;
  options_.target_file_size_base = 8 << 10;
  Open();
  Model model;
  LoadCompacted(&model, 2000, std::string(40, 'x'));
  ASSERT_GE(FilesAt(1), 8);
  const std::vector<FileBounds> files = LiveFiles();
  const FileBounds bad = files[files.size() / 2];
  db_.reset();
  {
    // Garble the footer's magic number; the DB reopens with a cold
    // table cache, so the file is first read by the scan.
    MemFs::FileRef node;
    ASSERT_TRUE(
        env_->fs()->Open(TableFileName("/db", bad.number), &node).ok());
    std::lock_guard<std::mutex> l(node->mu);
    node->data[node->data.size() - 1] ^= 0xff;
  }
  Open();

  // Within the first two files the cursor never reaches the bad one.
  auto it = db_->NewIterator({});
  it->Seek(files[1].smallest);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(model[it->key().ToString()], it->value().ToString());
    it->Next();
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();

  // A forward scan returns every key before the bad file with an OK
  // status, and no key after it until the status says what was lost.
  size_t seen_before_bad = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string k = it->key().ToString();
    ASSERT_FALSE(k >= bad.smallest && k <= bad.largest) << k;
    if (k < bad.smallest) {
      seen_before_bad++;
      EXPECT_TRUE(it->status().ok()) << k;
    } else {
      EXPECT_TRUE(it->status().IsCorruption()) << k;
    }
  }
  EXPECT_EQ(static_cast<size_t>(std::distance(
                model.begin(), model.lower_bound(bad.smallest))),
            seen_before_bad);
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();

  // The same backward.
  auto back = db_->NewIterator({});
  for (back->SeekToLast(); back->Valid(); back->Prev()) {
    const std::string k = back->key().ToString();
    ASSERT_FALSE(k >= bad.smallest && k <= bad.largest) << k;
    if (k < bad.smallest) {
      EXPECT_TRUE(back->status().IsCorruption()) << k;
    }
  }
  EXPECT_TRUE(back->status().IsCorruption()) << back->status().ToString();
}

// The level iterators walk the Version's file lists and open tables
// lazily. The DB iterator pins its Version, so a compaction that replaces
// every file must leave both the lists and the files readable.
TEST_F(LevelIteratorTest, IteratorPinsItsVersionThroughCompaction) {
  options_.num_levels = 2;
  options_.target_file_size_base = 8 << 10;
  Open();
  Model model;
  LoadCompacted(&model, 2000, std::string(40, 'o'));
  ASSERT_GE(FilesAt(1), 8);
  const std::vector<FileBounds> old_files = LiveFiles();

  auto it = db_->NewIterator({});
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(Key(0), it->key().ToString());

  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(db_->Put({}, Key(i), "new" + Key(i)).ok());
  }
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  for (const auto& f : old_files) {
    EXPECT_TRUE(env_->FileExists(TableFileName("/db", f.number)))
        << f.number << " deleted while an iterator pins it";
  }

  Model seen;
  for (; it->Valid(); it->Next()) {
    seen[it->key().ToString()] = it->value().ToString();
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_TRUE(seen == model);

  // Once the iterator is gone its files are collected.
  it.reset();
  ASSERT_TRUE(db_->Put({}, "trigger", "x").ok());
  ASSERT_TRUE(db_->CompactRange(nullptr, nullptr).ok());
  for (const auto& f : old_files) {
    EXPECT_FALSE(env_->FileExists(TableFileName("/db", f.number))) << f.number;
  }
}

}  // namespace
}  // namespace elmo::lsm
