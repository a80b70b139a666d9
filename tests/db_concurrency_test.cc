// Concurrent access: parallel writers, write groups racing memtable
// switches and option changes, readers racing background
// flush/compaction, read views held across compactions, snapshot
// stability under churn, per-Get block-cache attribution under
// concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <mutex>
#include <thread>

#include "env/mem_env.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/span.h"
#include "lsm/stats.h"
#include "util/random.h"

namespace elmo::lsm {
namespace {

class DbConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;  // force background churn
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  std::unique_ptr<MemEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbConcurrencyTest, ParallelWritersAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put({}, key, "v" + std::to_string(i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  Random64 rng(3);
  for (int probe = 0; probe < 400; probe++) {
    int t = static_cast<int>(rng.Uniform(kThreads));
    int i = static_cast<int>(rng.Uniform(kPerThread));
    std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
    std::string value;
    ASSERT_TRUE(db_->Get({}, key, &value).ok()) << key;
    EXPECT_EQ("v" + std::to_string(i), value);
  }
}

// Four writers, one in sixteen of their writes synced, commit through
// write groups while another thread forces memtable switches and
// retunes write_buffer_size and a reader checks every value it sees.
// Every acked write must survive, before and after a reopen replays the
// WAL, and the last sequence must count exactly the acked entries.
TEST_F(DbConcurrencyTest, WriteGroupKeepsEveryAckedWrite) {
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 64;
  constexpr int kWritesPerWriter = 3000;
  auto key_of = [](int t, int k) {
    return "w" + std::to_string(t) + "-" + std::to_string(k);
  };
  // Self-identifying: the key, the writer's write number, padding.
  auto value_of = [&](int t, int k, int n) {
    return key_of(t, k) + "@" + std::to_string(n) + "|" +
           std::string(80, 'v');
  };
  // The writer's number of the last acked write of each key, -1 before.
  std::vector<std::atomic<int>> acked(kWriters * kKeysPerWriter);
  for (auto& a : acked) a.store(-1);
  std::atomic<uint64_t> acked_entries{0};
  std::atomic<int> writers_running{kWriters};

  std::atomic<int> errors{0};
  std::mutex first_error_mu;
  std::string first_error;
  auto fail = [&](const std::string& what) {
    if (errors.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> l(first_error_mu);
      first_error = what;
    }
  };
  // `value` was read for key (t, k) after write `lo` of it was acked.
  auto check = [&](int t, int k, const std::string& value, int lo) {
    const std::string key = key_of(t, k);
    const size_t at = value.find('@');
    const size_t bar = value.find('|', at);
    int n = -1;
    if (bar == std::string::npos || value.compare(0, at, key) != 0 ||
        std::from_chars(value.data() + at + 1, value.data() + bar, n).ptr !=
            value.data() + bar ||
        value != value_of(t, k, n)) {
      fail(key + " read a foreign or malformed value: " +
           value.substr(0, 32));
    } else if (n < lo) {
      fail(key + " read write " + std::to_string(n) + ", older than acked " +
           std::to_string(lo));
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < kWritesPerWriter; n++) {
        const int k = n % kKeysPerWriter;
        WriteOptions wo;
        wo.sync = n % 16 == 0;
        Status s = db_->Put(wo, key_of(t, k), value_of(t, k, n));
        if (!s.ok()) {
          fail("Put: " + s.ToString());
          break;
        }
        acked[t * kKeysPerWriter + k].store(n);
        acked_entries.fetch_add(1);
      }
      writers_running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; writers_running.load() > 0; i++) {
      Status s = db_->FlushMemTable();
      if (s.ok()) {
        s = db_->SetOptions(
            {{"write_buffer_size", std::to_string((i % 2 + 1) * (64 << 10))}});
      }
      if (!s.ok()) {
        fail("FlushMemTable/SetOptions: " + s.ToString());
        break;
      }
    }
  });
  threads.emplace_back([&] {
    Random64 rng(11);
    std::string value;
    while (writers_running.load() > 0) {
      const int t = static_cast<int>(rng.Uniform(kWriters));
      const int k = static_cast<int>(rng.Uniform(kKeysPerWriter));
      const int lo = acked[t * kKeysPerWriter + k].load();
      Status s = db_->Get({}, key_of(t, k), &value);
      if (s.ok()) {
        check(t, k, value, lo);
      } else if (lo >= 0 || !s.IsNotFound()) {
        fail(key_of(t, k) + " Get: " + s.ToString());
      }
    }
  });
  for (auto& th : threads) th.join();
  ASSERT_EQ(0, errors.load()) << first_error;
  ASSERT_EQ(static_cast<uint64_t>(kWriters) * kWritesPerWriter,
            acked_entries.load());

  auto expect_every_acked_write = [&] {
    std::string value;
    for (int t = 0; t < kWriters; t++) {
      for (int k = 0; k < kKeysPerWriter; k++) {
        ASSERT_TRUE(db_->Get({}, key_of(t, k), &value).ok()) << key_of(t, k);
        EXPECT_EQ(value_of(t, k, acked[t * kKeysPerWriter + k].load()),
                  value);
      }
    }
    const Snapshot* snap = db_->GetSnapshot();
    EXPECT_EQ(acked_entries.load(),
              static_cast<const SnapshotImpl*>(snap)->sequence);
    db_->ReleaseSnapshot(snap);
  };
  expect_every_acked_write();
  db_.reset();
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  expect_every_acked_write();
}

TEST_F(DbConcurrencyTest, ReadersDuringWriteStorm) {
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};

  // Pre-populate a stable key the readers hammer.
  ASSERT_TRUE(db_->Put({}, "stable", "rock").ok());

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      std::string value;
      while (!stop.load()) {
        Status s = db_->Get({}, "stable", &value);
        if (!s.ok() || value != "rock") read_errors.fetch_add(1);
      }
    });
  }

  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(
        db_->Put({}, "churn" + std::to_string(i), std::string(200, 'x'))
            .ok());
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(0, read_errors.load());
}

TEST_F(DbConcurrencyTest, IteratorStableWhileWritersRun) {
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put({}, "base" + std::to_string(i), "v").ok());
  }
  auto iter = db_->NewIterator({});

  std::thread writer([&] {
    for (int i = 0; i < 4000; i++) {
      db_->Put({}, "new" + std::to_string(i), std::string(100, 'n'));
    }
  });

  // The iterator sees a consistent snapshot: exactly the base keys.
  int base_seen = 0, new_seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (iter->key().starts_with("base")) base_seen++;
    if (iter->key().starts_with("new")) new_seen++;
  }
  writer.join();
  EXPECT_EQ(1000, base_seen);
  EXPECT_EQ(0, new_seen);
}

// Three readers (Gets, iterator Seek/Next) race one writer whose 64 KiB
// memtables switch, flush and compact all the time. Write g stores key
// g % kKeys with a value naming both, so every read can check that it
// got its key's last acked write or a newer one, and never a write not
// yet issued. Some iterators are held until a compaction has finished
// after they were opened, and only then read; the writer goes on until
// each reader has read through at least one such iterator.
TEST_F(DbConcurrencyTest, ReadViewsStayConsistentAcrossFlushAndCompaction) {
  constexpr uint64_t kKeys = 512;
  constexpr uint64_t kMinWrites = 30000;
  constexpr uint64_t kMaxWrites = 30 * kMinWrites;
  constexpr int kReaders = 3;
  constexpr int kScanLength = 16;

  auto key_of = [](uint64_t k) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06llu",
             static_cast<unsigned long long>(k));
    return std::string(buf);
  };
  auto value_of = [&](uint64_t g) {
    return key_of(g % kKeys) + "@" + std::to_string(g) + "|" +
           std::string(100, 'v');
  };
  // The newest write of key k among writes 0..g (every key is written
  // once before the race starts, so it exists).
  auto last_write = [](uint64_t k, uint64_t g) {
    return g - (g + kKeys - k) % kKeys;
  };

  for (uint64_t g = 0; g < kKeys; g++) {
    ASSERT_TRUE(db_->Put({}, key_of(g), value_of(g)).ok());
  }
  std::atomic<uint64_t> issued{kKeys - 1};  // stored before each Put
  std::atomic<uint64_t> acked{kKeys - 1};   // stored after each Put
  std::atomic<bool> writer_done{false};

  std::atomic<int> errors{0};
  std::mutex first_error_mu;
  std::string first_error;
  auto fail = [&](const std::string& what) {
    if (errors.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> l(first_error_mu);
      first_error = what;
    }
  };
  // A read of key k returned `value`; writes up to `lo` were acked before
  // the read's view was taken and none after `hi` had been issued when
  // it returned.
  auto check = [&](uint64_t k, const std::string& value, uint64_t lo,
                   uint64_t hi) {
    const std::string key = key_of(k);
    const size_t at = value.find('@');
    const size_t bar = value.find('|', at);
    uint64_t g = 0;
    if (bar == std::string::npos || value.compare(0, at, key) != 0 ||
        std::from_chars(value.data() + at + 1, value.data() + bar, g).ptr !=
            value.data() + bar) {
      fail(key + " read a value of another key: " + value.substr(0, 32));
      return;
    }
    if (value != value_of(g) || g % kKeys != k) {
      fail(key + " read a malformed value for write " + std::to_string(g));
    } else if (g < last_write(k, lo)) {
      fail(key + " read write " + std::to_string(g) + ", older than acked " +
           std::to_string(last_write(k, lo)));
    } else if (g > hi) {
      fail(key + " read write " + std::to_string(g) +
           " before it was issued (" + std::to_string(hi) + ")");
    }
  };

  auto compactions = [&] {
    return db_->stats().Get(Ticker::kCompactionCount);
  };
  std::atomic<int> readers_with_old_view{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random64 rng(200 + r);
      std::string value;
      bool read_old_view = false;
      for (int round = 0; !writer_done.load(); round++) {
        for (int i = 0; i < 64; i++) {
          const uint64_t k = rng.Uniform(kKeys);
          const uint64_t lo = acked.load();
          Status s = db_->Get({}, key_of(k), &value);
          const uint64_t hi = issued.load();
          if (!s.ok()) {
            fail(key_of(k) + " Get: " + s.ToString());
          } else {
            check(k, value, lo, hi);
          }
        }

        const uint64_t lo = acked.load();
        const uint64_t compactions_at_open = compactions();
        auto iter = db_->NewIterator({});
        const uint64_t hi = issued.load();
        // Every other iterator waits for a compaction to replace the
        // files its view reads before it reads them.
        bool outlived_compaction = false;
        if (round % 2 == 1) {
          while (!writer_done.load() &&
                 compactions() == compactions_at_open) {
            std::this_thread::yield();
          }
          outlived_compaction = compactions() > compactions_at_open;
        }
        const uint64_t start = rng.Uniform(kKeys - kScanLength);
        iter->Seek(key_of(start));
        for (int j = 0; j < kScanLength; j++, iter->Next()) {
          const uint64_t k = start + j;
          if (!iter->Valid() || iter->key().ToString() != key_of(k)) {
            fail("iterator lost " + key_of(k) + ": " +
                 iter->status().ToString());
            break;
          }
          check(k, iter->value().ToString(), lo, hi);
        }
        if (!iter->status().ok()) {
          fail("iterator: " + iter->status().ToString());
        }
        if (outlived_compaction && !read_old_view) {
          read_old_view = true;
          readers_with_old_view.fetch_add(1);
        }
      }
    });
  }

  for (uint64_t g = kKeys;
       g < kMaxWrites &&
       (g < kMinWrites || readers_with_old_view.load() < kReaders);
       g++) {
    issued.store(g);
    Status s = db_->Put({}, key_of(g % kKeys), value_of(g));
    if (!s.ok()) {
      fail("Put: " + s.ToString());
      break;
    }
    acked.store(g);
  }
  writer_done.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(0, errors.load()) << first_error;
  EXPECT_EQ(kReaders, readers_with_old_view.load());

  // Quiesced: every key reads exactly its last write.
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  std::string value;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(db_->Get({}, key_of(k), &value).ok());
    EXPECT_EQ(value_of(last_write(k, acked.load())), value);
  }
}

TEST_F(DbConcurrencyTest, SnapshotStableUnderChurnAndCompaction) {
  ASSERT_TRUE(db_->Put({}, "watched", "original").ok());
  const Snapshot* snap = db_->GetSnapshot();

  std::thread churn([&] {
    for (int i = 0; i < 4000; i++) {
      db_->Put({}, "watched", "overwrite" + std::to_string(i));
      db_->Put({}, "filler" + std::to_string(i), std::string(150, 'f'));
    }
  });
  churn.join();
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(at_snap, "watched", &value).ok());
  EXPECT_EQ("original", value);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DbConcurrencyTest, MixedBatchAndSingleWriters) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        WriteBatch batch;
        batch.Put("b" + std::to_string(t) + "-" + std::to_string(i), "1");
        batch.Put("c" + std::to_string(t) + "-" + std::to_string(i), "2");
        batch.Delete("b" + std::to_string(t) + "-" + std::to_string(i));
        db_->Write({}, &batch);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());
  std::string v;
  EXPECT_TRUE(db_->Get({}, "b1-100", &v).IsNotFound());
  ASSERT_TRUE(db_->Get({}, "c1-100", &v).ok());
  EXPECT_EQ("2", v);
}

// Each Get's SST-probe span annotates the block-cache hits and misses of
// its own lookups only, so across concurrent readers the annotations add
// up to the cache's own lookup count.
TEST_F(DbConcurrencyTest, ConcurrentGetCacheAnnotationsSumToCacheLookups) {
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        db_->Put({}, "k" + std::to_string(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->WaitForBackgroundWork().ok());

  auto cache_lookups = [&] {
    std::string unused;  // rendering folds the cache's counts into tickers
    EXPECT_TRUE(db_->GetProperty("elmo.stats", &unused));
    return db_->stats().Get(Ticker::kBlockCacheHit) +
           db_->stats().Get(Ticker::kBlockCacheMiss);
  };

  SpanTraceOptions every_op;
  every_op.slow_op_threshold_us = 0;
  every_op.sample_every = 0;
  ASSERT_TRUE(db_->StartTrace(TraceKind::kSpan, "/span.trace", every_op).ok());
  const uint64_t lookups_before = cache_lookups();

  constexpr int kThreads = 4;
  constexpr int kGetsPerThread = 2000;
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; t++) {
    readers.emplace_back([&, t] {
      Random64 rng(100 + t);
      std::string value;
      for (int i = 0; i < kGetsPerThread; i++) {
        // One key in five was never written.
        const uint64_t k = rng.Uniform(kKeys + kKeys / 4);
        Status s = db_->Get({}, "k" + std::to_string(k), &value);
        if (k < kKeys ? !s.ok() : !s.IsNotFound()) errors.fetch_add(1);
      }
    });
  }
  for (auto& r : readers) r.join();
  const uint64_t lookups = cache_lookups() - lookups_before;
  ASSERT_TRUE(db_->EndTrace(TraceKind::kSpan).ok());
  EXPECT_EQ(0, errors.load());

  SpanTraceReader reader(env_.get());
  ASSERT_TRUE(reader.Open("/span.trace").ok());
  uint64_t gets = 0, annotated = 0;
  SpanTree tree;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(reader.Next(&tree, &eof).ok());
    if (eof) break;
    if (tree.root().kind == SpanKind::kGet) gets++;
    for (const SpanNode& span : tree.spans) {
      for (const auto& [tag, value] : span.annotations) {
        if (tag == SpanTag::kCacheHit || tag == SpanTag::kCacheMiss) {
          annotated += value;
        }
      }
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kGetsPerThread), gets);
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(lookups, annotated);
}

}  // namespace
}  // namespace elmo::lsm
