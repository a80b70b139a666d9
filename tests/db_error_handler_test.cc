// ErrorHandler golden tests: the source×kind→severity classification
// matrix, the retry/backoff state machine, degraded-mode behavior on a
// live DB (reads serve while writes fail fast), auto-resume after a
// transient FaultInjectionEnv burst, NoSpace pause/resume against the
// MemFs capacity model, a planted permanent fault staying fatal, a WAL
// failure under a write group failing every member, and same-seed SimEnv
// recovery-timeline determinism.
#include "lsm/error_handler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/mem_env.h"
#include "env/sim_env.h"
#include "fault/fault_injection_env.h"
#include "lsm/db.h"
#include "lsm/event_listener.h"

namespace elmo::lsm {
namespace {

using elmo::DeviceModel;
using elmo::Env;
using elmo::FaultInjectionConfig;
using elmo::FaultInjectionEnv;
using elmo::HardwareProfile;
using elmo::IOFileKind;
using elmo::MemEnv;
using elmo::SimEnv;
using elmo::Status;

// ---- classification golden matrix ----

TEST(ErrorClassification, KindFromStatus) {
  EXPECT_EQ(BackgroundErrorKind::kCorruption,
            ClassifyBackgroundErrorKind(Status::Corruption("bad block")));
  EXPECT_EQ(BackgroundErrorKind::kNoSpace,
            ClassifyBackgroundErrorKind(Status::NoSpace("disk full")));
  EXPECT_EQ(BackgroundErrorKind::kRetryableIOError,
            ClassifyBackgroundErrorKind(Status::RetryableIOError("blip")));
  EXPECT_EQ(BackgroundErrorKind::kHardFailure,
            ClassifyBackgroundErrorKind(Status::IOError("dead disk")));
  // Any other failure is a hard failure too.
  EXPECT_EQ(BackgroundErrorKind::kHardFailure,
            ClassifyBackgroundErrorKind(Status::InvalidArgument("logic")));
}

TEST(ErrorClassification, SeverityMatrixGolden) {
  const BackgroundErrorSource journal[] = {BackgroundErrorSource::kWalAppend,
                                           BackgroundErrorSource::kWalSync,
                                           BackgroundErrorSource::kManifest};
  const BackgroundErrorSource data[] = {BackgroundErrorSource::kFlush,
                                        BackgroundErrorSource::kCompaction};
  // Corruption -> fatal everywhere; NoSpace -> soft everywhere.
  for (const auto src : journal) {
    EXPECT_EQ(ErrorSeverity::kFatal,
              ClassifyBackgroundError(src, BackgroundErrorKind::kCorruption));
    EXPECT_EQ(ErrorSeverity::kSoft,
              ClassifyBackgroundError(src, BackgroundErrorKind::kNoSpace));
    // Journal retryable -> hard (stop acking until re-synced); journal
    // hard failure -> fatal.
    EXPECT_EQ(ErrorSeverity::kHard,
              ClassifyBackgroundError(
                  src, BackgroundErrorKind::kRetryableIOError));
    EXPECT_EQ(ErrorSeverity::kFatal,
              ClassifyBackgroundError(src,
                                      BackgroundErrorKind::kHardFailure));
  }
  for (const auto src : data) {
    EXPECT_EQ(ErrorSeverity::kFatal,
              ClassifyBackgroundError(src, BackgroundErrorKind::kCorruption));
    EXPECT_EQ(ErrorSeverity::kSoft,
              ClassifyBackgroundError(src, BackgroundErrorKind::kNoSpace));
    // Data-file retryable -> soft (inputs intact, just retry); data-file
    // hard failure -> hard (degraded but readable).
    EXPECT_EQ(ErrorSeverity::kSoft,
              ClassifyBackgroundError(
                  src, BackgroundErrorKind::kRetryableIOError));
    EXPECT_EQ(ErrorSeverity::kHard,
              ClassifyBackgroundError(src,
                                      BackgroundErrorKind::kHardFailure));
  }
}

// ---- retry/backoff state machine ----

TEST(ErrorHandlerMachine, BackoffEscalationAndBudget) {
  ErrorHandlerConfig cfg;
  cfg.max_auto_resume_retries = 2;
  cfg.base_backoff_us = 100;
  cfg.max_backoff_us = 1000;
  ErrorHandler h(cfg);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h.WriteStatus().ok());

  // Soft flush failure at t=1000: first retry due at t+base.
  ASSERT_TRUE(h.SetBGError(BackgroundErrorSource::kFlush,
                           Status::RetryableIOError("blip"), 1000));
  EXPECT_EQ(ErrorSeverity::kSoft, h.severity());
  EXPECT_TRUE(h.state().auto_recoverable);
  EXPECT_EQ(1100u, h.next_retry_at_us());
  EXPECT_TRUE(h.WriteStatus().ok());  // soft stalls, never fails writes
  EXPECT_FALSE(h.BackgroundWorkStatus().ok());
  EXPECT_FALSE(h.ResumeDue(1099));
  EXPECT_TRUE(h.ResumeDue(1100));

  // First attempt fails: backoff doubles, still auto-recoverable.
  EXPECT_EQ(1, h.OnResumeAttemptStart());
  EXPECT_FALSE(h.OnResumeFailed(Status::RetryableIOError("still"), 2000));
  EXPECT_EQ(2000u + 200u, h.next_retry_at_us());
  EXPECT_TRUE(h.state().auto_recoverable);

  // Second attempt exhausts the budget: soft escalates to fail-fast
  // hard and retrying stops.
  EXPECT_EQ(2, h.OnResumeAttemptStart());
  EXPECT_TRUE(h.OnResumeFailed(Status::RetryableIOError("still"), 3000));
  EXPECT_EQ(ErrorSeverity::kHard, h.severity());
  EXPECT_FALSE(h.state().auto_recoverable);
  EXPECT_EQ(0u, h.next_retry_at_us());
  EXPECT_FALSE(h.WriteStatus().ok());

  // Manual resume still works and closes the episode...
  h.OnResumeAttemptStart();
  h.OnResumeSucceeded();
  EXPECT_TRUE(h.ok());
  EXPECT_EQ(1u, h.resume_successes());
  EXPECT_EQ(2u, h.resume_failures());

  // ...but the consumed budget survives until real background work
  // succeeds: a fresh soft error with no retries left enters as hard.
  ASSERT_TRUE(h.SetBGError(BackgroundErrorSource::kFlush,
                           Status::RetryableIOError("again"), 4000));
  EXPECT_EQ(ErrorSeverity::kHard, h.severity());
  EXPECT_FALSE(h.state().auto_recoverable);
  h.OnResumeAttemptStart();
  h.OnResumeSucceeded();

  // A completed flush/compaction forgets the episode: soft is soft
  // again with a scheduled retry.
  h.NoteBackgroundWorkSuccess();
  ASSERT_TRUE(h.SetBGError(BackgroundErrorSource::kFlush,
                           Status::RetryableIOError("fresh"), 5000));
  EXPECT_EQ(ErrorSeverity::kSoft, h.severity());
  EXPECT_TRUE(h.state().auto_recoverable);
  EXPECT_EQ(5100u, h.next_retry_at_us());
}

TEST(ErrorHandlerMachine, OnlyStrictlyMoreSevereErrorsReplace) {
  ErrorHandler h(ErrorHandlerConfig{});
  ASSERT_TRUE(h.SetBGError(BackgroundErrorSource::kWalAppend,
                           Status::RetryableIOError("wal"), 100));
  ASSERT_EQ(ErrorSeverity::kHard, h.severity());
  // A soft arrival does not demote the active hard error.
  EXPECT_FALSE(h.SetBGError(BackgroundErrorSource::kFlush,
                            Status::RetryableIOError("flush"), 200));
  EXPECT_EQ(BackgroundErrorSource::kWalAppend, h.state().source);
  // A fatal one replaces it.
  EXPECT_TRUE(h.SetBGError(BackgroundErrorSource::kCompaction,
                           Status::Corruption("bits"), 300));
  EXPECT_EQ(ErrorSeverity::kFatal, h.severity());
  // Fatal never schedules a retry and always fails writes.
  EXPECT_FALSE(h.state().auto_recoverable);
  EXPECT_FALSE(h.WriteStatus().ok());
}

// ---- live-DB behavior ----

// Records error/recovery events; timestamps come from the env so the
// determinism test can compare full timelines across runs.
class ErrorRecordingListener : public EventListener {
 public:
  explicit ErrorRecordingListener(Env* env) : env_(env) {}

  void OnBackgroundError(const BackgroundErrorInfo& info) override {
    Add("error", info);
  }
  void OnErrorRecoveryBegin(const BackgroundErrorInfo& info) override {
    Add("recovery_begin", info);
  }
  void OnErrorRecoveryCompleted(const BackgroundErrorInfo& info) override {
    Add("recovery_done", info);
    if (info.status.ok()) recoveries_completed_ok++;
  }

  std::vector<std::string> events;
  int recoveries_completed_ok = 0;

 private:
  void Add(const char* what, const BackgroundErrorInfo& info) {
    char buf[160];
    snprintf(buf, sizeof(buf), "%s:%s:%s:%s:%d@%llu", what,
             ErrorSeverityName(info.severity),
             BackgroundErrorSourceName(info.source),
             BackgroundErrorKindName(info.kind), info.retry_count,
             static_cast<unsigned long long>(env_->NowMicros()));
    events.push_back(buf);
  }
  Env* const env_;
};

std::string BgErrorProperty(DB* db) {
  std::string v;
  EXPECT_TRUE(db->GetProperty("elmo.bg_error", &v));
  return v;
}

bool Degraded(DB* db) {
  return BgErrorProperty(db).find("\"severity\":\"none\"") ==
         std::string::npos;
}

TEST(DbErrorHandler, HardErrorDegradedReadsServeWritesFailFast) {
  auto base = std::make_unique<MemEnv>();
  auto fault = std::make_unique<FaultInjectionEnv>(base.get(), 42);
  Options o;
  o.env = fault.get();
  o.create_if_missing = true;
  o.max_bgerror_resume_count = 0;  // no auto-resume: observe the state
  auto listener = std::make_shared<ErrorRecordingListener>(fault.get());
  o.listeners.push_back(listener);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        db->Put({}, "key" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }

  FaultInjectionConfig fc;
  fc.write_error = 1.0;
  fc.retryable = true;  // retryable on the WAL journal -> hard
  fc.kinds = {IOFileKind::kWal};
  fault->SetErrorInjection(fc);

  Status s = db->Put({}, "during", "x");
  ASSERT_FALSE(s.ok());
  // Subsequent writes fail fast with the self-describing Status.
  s = db->Put({}, "after", "y");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(std::string::npos,
            s.ToString().find("read-only degraded mode; call Resume()"))
      << s.ToString();
  EXPECT_NE(std::string::npos,
            BgErrorProperty(db.get()).find("\"severity\":\"hard\""));
  ASSERT_EQ(1u, listener->events.size());
  EXPECT_EQ(0u, listener->events[0].find("error:hard:wal_append"))
      << listener->events[0];

  // Reads keep serving the acked state — point reads and iterators.
  std::string v;
  ASSERT_TRUE(db->Get({}, "key7", &v).ok());
  EXPECT_EQ("v7", v);
  ASSERT_TRUE(db->Get({}, "during", &v).IsNotFound());
  int seen = 0;
  auto it = db->NewIterator({});
  for (it->SeekToFirst(); it->Valid(); it->Next()) seen++;
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(20, seen);
  it.reset();

  // Fault gone: a manual Resume() switches to a fresh WAL and heals.
  fault->ClearFaults();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_FALSE(Degraded(db.get()));
  ASSERT_TRUE(db->Put({}, "healed", "z").ok());
  ASSERT_TRUE(db->Get({}, "healed", &v).ok());
  EXPECT_GE(listener->recoveries_completed_ok, 1);
  db.reset();
}

TEST(DbErrorHandler, AutoResumeAfterTransientFaultBurst) {
  auto base = std::make_unique<MemEnv>();
  auto fault = std::make_unique<FaultInjectionEnv>(base.get(), 42);
  Options o;
  o.env = fault.get();
  o.create_if_missing = true;
  o.max_bgerror_resume_count = 32;  // outlast the burst
  o.bgerror_resume_retry_interval_ms = 2;
  auto listener = std::make_shared<ErrorRecordingListener>(fault.get());
  o.listeners.push_back(listener);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put({}, "pre" + std::to_string(i), "v").ok());
  }

  FaultInjectionConfig fc;
  fc.write_error = 1.0;
  fc.retryable = true;
  fc.transient_ops = 6;  // the "device" heals after 6 hook calls
  fc.kinds = {IOFileKind::kWal};
  fault->SetErrorInjection(fc);
  ASSERT_FALSE(db->Put({}, "during", "x").ok());

  // No manual Resume(): the DB must clear the episode on its own once
  // the burst expires (failed writes keep consuming the burst budget).
  Status s;
  for (int i = 0; i < 200; i++) {
    db->WaitForBackgroundWork();
    s = db->Put({}, "probe", std::to_string(i));
    if (s.ok()) break;
    fault->SleepForMicroseconds(2000);
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(fault->InjectionArmed());
  EXPECT_FALSE(Degraded(db.get()));
  EXPECT_GE(listener->recoveries_completed_ok, 1);

  // Nothing acked was lost.
  std::string v;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Get({}, "pre" + std::to_string(i), &v).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->Put({}, "post", "y").ok());
  db.reset();
}

TEST(DbErrorHandler, NoSpacePausesBackgroundWorkAndResumes) {
  auto env = std::make_unique<MemEnv>();
  Options o;
  o.env = env.get();
  o.create_if_missing = true;
  o.free_space_reserved_bytes = 1 << 20;  // keep 1 MiB headroom
  o.free_space_poll_interval_ms = 0;      // poll on every check
  // A small budget so the blocked FlushMemTable call returns quickly
  // (soft NoSpace escalates to hard once retries run out).
  o.max_bgerror_resume_count = 2;
  o.bgerror_resume_retry_interval_ms = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put({}, "key" + std::to_string(i),
                        std::string(512, 'v'))
                    .ok());
  }

  // Shrink the device: free space drops under the reservation, so the
  // flush must pause with a soft NoSpace instead of writing the disk
  // full.
  env->fs()->SetCapacity(env->fs()->TotalBytes() + (64 << 10));
  Status s = db->FlushMemTable();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_NE(std::string::npos,
            BgErrorProperty(db.get()).find("\"kind\":\"no_space\""));
  // Reads still serve while paused.
  std::string v;
  ASSERT_TRUE(db->Get({}, "key1", &v).ok());

  // Free the device: resume re-polls, background work reschedules, and
  // the flush goes through.
  env->fs()->SetCapacity(0);  // unlimited again
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_FALSE(Degraded(db.get()));
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->Put({}, "after", "w").ok());
  db.reset();
}

TEST(DbErrorHandler, PlantedPermanentFaultStaysFatal) {
  auto base = std::make_unique<MemEnv>();
  auto fault = std::make_unique<FaultInjectionEnv>(base.get(), 42);
  Options o;
  o.env = fault.get();
  o.create_if_missing = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  ASSERT_TRUE(db->Put({}, "a", "1").ok());

  FaultInjectionConfig fc;
  fc.write_error = 1.0;
  fc.retryable = false;  // permanent: hard failure on the WAL -> fatal
  fc.kinds = {IOFileKind::kWal};
  fault->SetErrorInjection(fc);
  ASSERT_FALSE(db->Put({}, "b", "2").ok());
  EXPECT_NE(std::string::npos,
            BgErrorProperty(db.get()).find("\"severity\":\"fatal\""));

  // Fatal means reopen required: even with the fault gone, neither
  // auto-resume nor a manual Resume() may clear it.
  fault->ClearFaults();
  db->WaitForBackgroundWork();
  EXPECT_FALSE(db->Resume().ok());
  Status s = db->Put({}, "c", "3");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, s.ToString().find("reopen required"))
      << s.ToString();
  // Reads still drain the acked state for an orderly shutdown.
  std::string v;
  ASSERT_TRUE(db->Get({}, "a", &v).ok());
  EXPECT_EQ("1", v);
  db.reset();
}

// ---- a WAL failure under a write group ----

// Id of the test writer running on this thread (-1 elsewhere), so the env
// can tell when the writers have reached the DB.
thread_local int tls_writer = -1;

// A FaultInjectionEnv (injecting nothing itself) over `base`. Once
// armed, the first WAL append made off the test writers' threads (the
// pacer's) waits on a latch until `writers_to_queue` test writers have
// entered Write and a grace period has passed, then goes through. The
// first WAL append a test writer makes (the header of its group's
// record) fails with a retryable error, which makes the DB
// hard-degraded.
class LatchWalEnv : public FaultInjectionEnv {
 public:
  LatchWalEnv(Env* base, int writers_to_queue)
      : FaultInjectionEnv(base), writers_to_queue_(writers_to_queue) {}

  void Arm() {
    std::lock_guard<std::mutex> l(latch_mu_);
    armed_ = true;
  }
  void WaitUntilHolding() {
    std::unique_lock<std::mutex> l(latch_mu_);
    latch_cv_.wait(l, [this] { return holding_; });
  }
  // Payload length of the failed record, from its log header.
  size_t failed_record_bytes() {
    std::lock_guard<std::mutex> l(latch_mu_);
    return failed_record_bytes_;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    Status s = FaultInjectionEnv::NewWritableFile(fname, result);
    if (s.ok() && fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, ".log") == 0) {
      *result = std::make_unique<WalFile>(this, std::move(*result));
    }
    return s;
  }
  uint64_t NowMicros() override {
    if (tls_writer >= 0) {
      std::lock_guard<std::mutex> l(latch_mu_);
      arrived_.insert(tls_writer);
      latch_cv_.notify_all();
    }
    return FaultInjectionEnv::NowMicros();
  }

 private:
  class WalFile : public WritableFile {
   public:
    WalFile(LatchWalEnv* env, std::unique_ptr<WritableFile> target)
        : env_(env), target_(std::move(target)) {}
    Status Append(const Slice& data) override {
      Status injected = env_->BeforeWalAppend(data);
      return injected.ok() ? target_->Append(data) : injected;
    }
    Status Close() override { return target_->Close(); }
    Status Flush() override { return target_->Flush(); }
    Status Sync() override { return target_->Sync(); }
    uint64_t GetFileSize() const override { return target_->GetFileSize(); }

   private:
    LatchWalEnv* const env_;
    std::unique_ptr<WritableFile> target_;
  };

  Status BeforeWalAppend(const Slice& data) {
    std::unique_lock<std::mutex> l(latch_mu_);
    if (!armed_) return Status::OK();
    if (tls_writer < 0) {
      if (!holding_) {
        holding_ = true;
        latch_cv_.notify_all();
        latch_cv_.wait(l, [this] {
          return static_cast<int>(arrived_.size()) == writers_to_queue_;
        });
        // A writer that has read the clock in Write is one mutex
        // acquisition away from the queue.
        l.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      return Status::OK();
    }
    armed_ = false;
    if (data.size() == 7) {  // a log record header: crc32, len16, type
      failed_record_bytes_ = static_cast<uint8_t>(data[4]) |
                             (static_cast<uint8_t>(data[5]) << 8);
    }
    return Status::RetryableIOError("injected WAL append failure");
  }

  const int writers_to_queue_;
  std::mutex latch_mu_;
  std::condition_variable latch_cv_;
  bool armed_ = false;
  bool holding_ = false;
  std::set<int> arrived_;
  size_t failed_record_bytes_ = 0;
};

TEST(DbErrorHandler, WalFailureFailsEveryMemberOfTheGroup) {
  constexpr int kWriters = 4;
  MemEnv base;
  LatchWalEnv env(&base, kWriters);
  Options o;
  o.env = &env;
  o.create_if_missing = true;
  o.max_bgerror_resume_count = 0;  // no auto-resume: Resume() by hand
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(o, "/db", &db).ok());
  ASSERT_TRUE(db->Put({}, "before", "0").ok());

  // The pacer's append is held while the writers queue behind it; they
  // then commit as one group, whose single WAL record fails.
  env.Arm();
  Status pacer;
  std::thread pacer_thread([&] { pacer = db->Put({}, "pacer", "p"); });
  env.WaitUntilHolding();
  auto key_of = [](int t) { return "w" + std::to_string(t); };
  const std::string value(100, 'v');
  std::vector<Status> results(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      tls_writer = t;
      WriteOptions wo;
      wo.sync = true;  // one sync for the group, were the append to work
      results[t] = db->Put(wo, key_of(t), value);
    });
  }
  pacer_thread.join();
  for (auto& w : writers) w.join();

  ASSERT_TRUE(pacer.ok()) << pacer.ToString();
  for (int t = 0; t < kWriters; t++) {
    EXPECT_FALSE(results[t].ok()) << key_of(t);
    EXPECT_EQ(results[0].ToString(), results[t].ToString()) << key_of(t);
  }
  // One record carried all four batches: one batch header and four Put
  // records.
  WriteBatch one;
  one.Put(key_of(0), value);
  const size_t kBatchHeader = 12;
  EXPECT_EQ(kBatchHeader + kWriters * (one.ApproximateSize() - kBatchHeader),
            env.failed_record_bytes());
  EXPECT_NE(std::string::npos,
            BgErrorProperty(db.get()).find("\"severity\":\"hard\""));

  std::string v;
  for (int t = 0; t < kWriters; t++) {
    EXPECT_TRUE(db->Get({}, key_of(t), &v).IsNotFound()) << key_of(t);
  }
  ASSERT_TRUE(db->Resume().ok());
  for (int t = 0; t < kWriters; t++) {
    EXPECT_TRUE(db->Get({}, key_of(t), &v).IsNotFound()) << key_of(t);
  }
  ASSERT_TRUE(db->Get({}, "pacer", &v).ok());
  ASSERT_TRUE(db->Put({}, "after", "a").ok());
  ASSERT_TRUE(db->Get({}, "after", &v).ok());
  EXPECT_EQ("a", v);
  db.reset();
}

// Same seed, same hardware, same script -> byte-identical recovery
// timeline (every event name, classification, retry count and
// engine-clock timestamp).
std::vector<std::string> RunSimRecoveryScenario(uint64_t seed) {
  auto sim = std::make_unique<SimEnv>(
      HardwareProfile::Make(4, 4, DeviceModel::NvmeSsd()), seed);
  auto fault = std::make_unique<FaultInjectionEnv>(sim.get(), seed ^ 0xabc);
  Options o;
  o.env = fault.get();
  o.create_if_missing = true;
  o.max_bgerror_resume_count = 32;
  auto listener = std::make_shared<ErrorRecordingListener>(fault.get());
  o.listeners.push_back(listener);
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(o, "/db", &db).ok());
  for (int i = 0; i < 30; i++) {
    EXPECT_TRUE(db->Put({}, "pre" + std::to_string(i),
                        std::string(128, 'v'))
                    .ok());
  }

  FaultInjectionConfig fc;
  fc.write_error = 1.0;
  fc.retryable = true;
  fc.transient_ops = 5;
  fc.kinds = {IOFileKind::kWal};
  fault->SetErrorInjection(fc);
  (void)db->Put({}, "during", "x");
  Status s;
  for (int i = 0; i < 200; i++) {
    db->WaitForBackgroundWork();
    s = db->Put({}, "probe", std::to_string(i));
    if (s.ok()) break;
    fault->SleepForMicroseconds(2000);
  }
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(db->FlushMemTable().ok());

  std::vector<std::string> timeline = listener->events;
  // Fold the final engine clock and resume counters in as well: equal
  // event lists with diverging clocks would still be a regression.
  std::string prop;
  EXPECT_TRUE(db->GetProperty("elmo.bg_error", &prop));
  timeline.push_back(prop + "@" + std::to_string(fault->NowMicros()));
  db.reset();
  return timeline;
}

TEST(DbErrorHandler, SameSeedSimRunsReplayIdenticalRecoveryTimeline) {
  const std::vector<std::string> a = RunSimRecoveryScenario(7);
  const std::vector<std::string> b = RunSimRecoveryScenario(7);
  ASSERT_FALSE(a.empty());
  // The scenario must actually have exercised an error + recovery.
  EXPECT_NE(std::string::npos, a.front().find("error:hard:wal_append"));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace elmo::lsm
