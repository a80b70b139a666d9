// Probes the benchmark hangs on the engine's public extension points:
// an Env decorator, an EventListener and an LlmClient decorator. They
// always count (relaxed atomics) and time background jobs and LLM
// calls; file calls are timed, and spans opened, only while tracing is
// on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"
#include "llm/llm_client.h"
#include "lsm/event_listener.h"

namespace perfbench {

enum class FileKind { kWal = 0, kSst, kManifest, kOther, kCount };

// Classifies an engine file by its base name: "*.log" is the WAL,
// "*.sst" a table, "MANIFEST-*" the manifest; anything else (CURRENT,
// LOG, OPTIONS-*, temp files) is "other".
FileKind ClassifyFile(const std::string& fname);

struct FileCounters {
  std::atomic<uint64_t> append_calls{0}, append_bytes{0}, append_ns{0};
  std::atomic<uint64_t> read_calls{0}, read_bytes{0}, read_ns{0};
  std::atomic<uint64_t> sync_calls{0}, sync_ns{0};
};

// Plain copy of the counters of one file kind.
struct FileTotals {
  uint64_t append_calls = 0, append_bytes = 0, append_ns = 0;
  uint64_t read_calls = 0, read_bytes = 0, read_ns = 0;
  uint64_t sync_calls = 0, sync_ns = 0;
  FileTotals& operator+=(const FileTotals& o);
};

struct BgTotals {
  uint64_t jobs = 0, busy_ns = 0;
  std::vector<uint32_t> queue_wait_ns;  // one per job
};

// Forwards every call to `target` and accounts file calls by kind and
// background jobs passed to Schedule (queue wait and run time).
class ProbeEnv : public elmo::Env {
 public:
  explicit ProbeEnv(elmo::Env* target) : target_(target) {}

  elmo::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<elmo::SequentialFile>* result) override;
  elmo::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<elmo::RandomAccessFile>* result) override;
  elmo::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<elmo::WritableFile>* result) override;
  bool FileExists(const std::string& f) override {
    return target_->FileExists(f);
  }
  elmo::Status GetChildren(const std::string& dir,
                           std::vector<std::string>* r) override {
    return target_->GetChildren(dir, r);
  }
  elmo::Status RemoveFile(const std::string& f) override {
    return target_->RemoveFile(f);
  }
  elmo::Status CreateDirIfMissing(const std::string& d) override {
    return target_->CreateDirIfMissing(d);
  }
  elmo::Status RemoveDir(const std::string& d) override {
    return target_->RemoveDir(d);
  }
  elmo::Status GetFileSize(const std::string& f, uint64_t* s) override {
    return target_->GetFileSize(f, s);
  }
  elmo::Status RenameFile(const std::string& s,
                          const std::string& t) override {
    return target_->RenameFile(s, t);
  }
  elmo::Status GetFreeSpace(const std::string& p, uint64_t* b) override {
    return target_->GetFreeSpace(p, b);
  }
  uint64_t NowMicros() override { return target_->NowMicros(); }
  void SleepForMicroseconds(uint64_t m) override {
    target_->SleepForMicroseconds(m);
  }
  void Schedule(std::function<void()> job, elmo::JobPriority pri) override;
  void WaitForBackgroundWork() override { target_->WaitForBackgroundWork(); }
  void SetBackgroundThreads(int n, elmo::JobPriority pri) override {
    target_->SetBackgroundThreads(n, pri);
  }

  FileTotals Totals(FileKind k) const;
  // Appended bytes over every file kind.
  uint64_t AppendedBytes() const;
  BgTotals Background() const;
  // Sum of the sizes of the files now in `dir`.
  uint64_t LiveBytes(const std::string& dir);

  // SST reads issued by the calling thread so far.
  static uint64_t ThreadSstReads();

 private:
  FileCounters& counters(FileKind k) { return files_[static_cast<int>(k)]; }

  elmo::Env* const target_;
  FileCounters files_[static_cast<int>(FileKind::kCount)];
  mutable std::mutex bg_mu_;
  BgTotals bg_;  // guarded by bg_mu_
};

// bytes appended through the Env / user key+value bytes.
double WriteAmp(uint64_t appended_bytes, uint64_t user_bytes);

// Counts flush, compaction and stall events.
class EventCounter : public elmo::lsm::EventListener {
 public:
  void OnFlushCompleted(const elmo::lsm::FlushJobInfo& info) override;
  void OnCompactionCompleted(
      const elmo::lsm::CompactionJobInfo& info) override;
  void OnStallConditionChanged(const elmo::lsm::StallInfo& info) override;
  void OnWriteStop(const elmo::lsm::StallInfo& info) override;

  std::atomic<uint64_t> flushes{0}, flush_us{0}, flush_bytes{0};
  std::atomic<uint64_t> compactions{0}, compaction_us{0};
  std::atomic<uint64_t> compaction_in{0}, compaction_out{0};
  std::atomic<uint64_t> trivial_moves{0}, stalls{0};
};

// Counts and times LlmClient::Complete calls and the prompt bytes sent.
class CountingLlm : public elmo::llm::LlmClient {
 public:
  explicit CountingLlm(elmo::llm::LlmClient* target) : target_(target) {}
  elmo::Status Complete(const std::vector<elmo::llm::ChatMessage>& messages,
                        std::string* response) override;
  const char* Name() const override { return target_->Name(); }

  uint64_t calls = 0, failures = 0, busy_ns = 0, prompt_bytes = 0;

 private:
  elmo::llm::LlmClient* const target_;
};

}  // namespace perfbench
