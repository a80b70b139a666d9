#include "probes.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

using elmo::Slice;
using elmo::Status;

namespace {

thread_local uint64_t tls_sst_reads = 0;

const char* const kAppendSpan[] = {"env.wal.append", "env.sst.append",
                                   "env.manifest.append", "env.other.append"};
const char* const kReadSpan[] = {"env.wal.read", "env.sst.read",
                                 "env.manifest.read", "env.other.read"};
const char* const kSyncSpan[] = {"env.wal.sync", "env.sst.sync",
                                 "env.manifest.sync", "env.other.sync"};

// Times a file call into `ns` and a span while tracing is on.
class CallTimer {
 public:
  CallTimer(const char* span, std::atomic<uint64_t>* ns)
      : scope_(span), ns_(TracingOn() ? ns : nullptr),
        start_(ns_ ? NowNanos() : 0) {}
  ~CallTimer() {
    if (ns_) ns_->fetch_add(NowNanos() - start_, std::memory_order_relaxed);
  }

 private:
  SpanScope scope_;
  std::atomic<uint64_t>* ns_;
  uint64_t start_;
};

void Add(std::atomic<uint64_t>& c, uint64_t n) {
  c.fetch_add(n, std::memory_order_relaxed);
}

class ProbeWritableFile : public elmo::WritableFile {
 public:
  ProbeWritableFile(std::unique_ptr<elmo::WritableFile> f, FileKind k,
                    FileCounters* c)
      : f_(std::move(f)), k_(static_cast<int>(k)), c_(c) {}
  Status Append(const Slice& data) override {
    CallTimer t(kAppendSpan[k_], &c_->append_ns);
    Add(c_->append_calls, 1);
    Add(c_->append_bytes, data.size());
    return f_->Append(data);
  }
  Status Close() override { return f_->Close(); }
  Status Flush() override { return f_->Flush(); }
  Status Sync() override {
    CallTimer t(kSyncSpan[k_], &c_->sync_ns);
    Add(c_->sync_calls, 1);
    return f_->Sync();
  }
  Status RangeSync(uint64_t offset) override {
    CallTimer t(kSyncSpan[k_], &c_->sync_ns);
    Add(c_->sync_calls, 1);
    return f_->RangeSync(offset);
  }
  uint64_t GetFileSize() const override { return f_->GetFileSize(); }

 private:
  std::unique_ptr<elmo::WritableFile> f_;
  const int k_;
  FileCounters* const c_;
};

class ProbeRandomAccessFile : public elmo::RandomAccessFile {
 public:
  ProbeRandomAccessFile(std::unique_ptr<elmo::RandomAccessFile> f, FileKind k,
                        FileCounters* c)
      : f_(std::move(f)), k_(static_cast<int>(k)), c_(c) {}
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    CallTimer t(kReadSpan[k_], &c_->read_ns);
    Add(c_->read_calls, 1);
    if (k_ == static_cast<int>(FileKind::kSst)) tls_sst_reads++;
    Status s = f_->Read(offset, n, result, scratch);
    Add(c_->read_bytes, result->size());
    return s;
  }
  void Readahead(uint64_t offset, uint64_t length) override {
    f_->Readahead(offset, length);
  }

 private:
  std::unique_ptr<elmo::RandomAccessFile> f_;
  const int k_;
  FileCounters* const c_;
};

class ProbeSequentialFile : public elmo::SequentialFile {
 public:
  ProbeSequentialFile(std::unique_ptr<elmo::SequentialFile> f, FileKind k,
                      FileCounters* c)
      : f_(std::move(f)), k_(static_cast<int>(k)), c_(c) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    CallTimer t(kReadSpan[k_], &c_->read_ns);
    Add(c_->read_calls, 1);
    Status s = f_->Read(n, result, scratch);
    Add(c_->read_bytes, result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return f_->Skip(n); }

 private:
  std::unique_ptr<elmo::SequentialFile> f_;
  const int k_;
  FileCounters* const c_;
};

FileTotals Load(const FileCounters& c) {
  FileTotals t;
  t.append_calls = c.append_calls.load();
  t.append_bytes = c.append_bytes.load();
  t.append_ns = c.append_ns.load();
  t.read_calls = c.read_calls.load();
  t.read_bytes = c.read_bytes.load();
  t.read_ns = c.read_ns.load();
  t.sync_calls = c.sync_calls.load();
  t.sync_ns = c.sync_ns.load();
  return t;
}

}  // namespace

FileKind ClassifyFile(const std::string& fname) {
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() > s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".log")) return FileKind::kWal;
  if (ends_with(".sst")) return FileKind::kSst;
  if (base.rfind("MANIFEST-", 0) == 0) return FileKind::kManifest;
  return FileKind::kOther;
}

FileTotals& FileTotals::operator+=(const FileTotals& o) {
  append_calls += o.append_calls;
  append_bytes += o.append_bytes;
  append_ns += o.append_ns;
  read_calls += o.read_calls;
  read_bytes += o.read_bytes;
  read_ns += o.read_ns;
  sync_calls += o.sync_calls;
  sync_ns += o.sync_ns;
  return *this;
}

Status ProbeEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<elmo::SequentialFile>* result) {
  std::unique_ptr<elmo::SequentialFile> f;
  Status s = target_->NewSequentialFile(fname, &f);
  if (s.ok()) {
    const FileKind k = ClassifyFile(fname);
    *result = std::make_unique<ProbeSequentialFile>(std::move(f), k,
                                                    &counters(k));
  }
  return s;
}

Status ProbeEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<elmo::RandomAccessFile>* result) {
  std::unique_ptr<elmo::RandomAccessFile> f;
  Status s = target_->NewRandomAccessFile(fname, &f);
  if (s.ok()) {
    const FileKind k = ClassifyFile(fname);
    *result = std::make_unique<ProbeRandomAccessFile>(std::move(f), k,
                                                      &counters(k));
  }
  return s;
}

Status ProbeEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<elmo::WritableFile>* result) {
  std::unique_ptr<elmo::WritableFile> f;
  Status s = target_->NewWritableFile(fname, &f);
  if (s.ok()) {
    const FileKind k = ClassifyFile(fname);
    *result =
        std::make_unique<ProbeWritableFile>(std::move(f), k, &counters(k));
  }
  return s;
}

void ProbeEnv::Schedule(std::function<void()> job, elmo::JobPriority pri) {
  const uint64_t queued = NowNanos();
  target_->Schedule(
      [this, queued, job = std::move(job)] {
        const uint64_t start = NowNanos();
        {
          SpanScope span("env.bg.job");
          job();
        }
        const uint64_t end = NowNanos();
        std::lock_guard<std::mutex> l(bg_mu_);
        bg_.jobs++;
        bg_.busy_ns += end - start;
        bg_.queue_wait_ns.push_back(
            static_cast<uint32_t>(std::min<uint64_t>(start - queued,
                                                     UINT32_MAX)));
      },
      pri);
}

FileTotals ProbeEnv::Totals(FileKind k) const {
  return Load(files_[static_cast<int>(k)]);
}

uint64_t ProbeEnv::AppendedBytes() const {
  uint64_t n = 0;
  for (const auto& c : files_) n += c.append_bytes.load();
  return n;
}

BgTotals ProbeEnv::Background() const {
  std::lock_guard<std::mutex> l(bg_mu_);
  return bg_;
}

uint64_t ProbeEnv::LiveBytes(const std::string& dir) {
  std::vector<std::string> names;
  if (!target_->GetChildren(dir, &names).ok()) return 0;
  uint64_t total = 0;
  for (const auto& n : names) {
    uint64_t size = 0;
    if (target_->GetFileSize(dir + "/" + n, &size).ok()) total += size;
  }
  return total;
}

uint64_t ProbeEnv::ThreadSstReads() { return tls_sst_reads; }

double WriteAmp(uint64_t appended_bytes, uint64_t user_bytes) {
  return user_bytes == 0 ? 0
                         : static_cast<double>(appended_bytes) /
                               static_cast<double>(user_bytes);
}

void EventCounter::OnFlushCompleted(const elmo::lsm::FlushJobInfo& info) {
  Add(flushes, 1);
  Add(flush_us, info.duration_micros);
  Add(flush_bytes, info.output_bytes);
}

void EventCounter::OnCompactionCompleted(
    const elmo::lsm::CompactionJobInfo& info) {
  Add(compactions, 1);
  Add(compaction_us, info.duration_micros);
  Add(compaction_in, info.input_bytes);
  Add(compaction_out, info.output_bytes);
  if (info.trivial_move) Add(trivial_moves, 1);
}

void EventCounter::OnStallConditionChanged(const elmo::lsm::StallInfo& info) {
  if (info.current == elmo::lsm::StallCondition::kDelayed) Add(stalls, 1);
}

void EventCounter::OnWriteStop(const elmo::lsm::StallInfo&) {
  Add(stalls, 1);
}

Status CountingLlm::Complete(
    const std::vector<elmo::llm::ChatMessage>& messages,
    std::string* response) {
  SpanScope span("llm.complete");
  for (const auto& m : messages) prompt_bytes += m.content.size();
  const uint64_t start = NowNanos();
  Status s = target_->Complete(messages, response);
  busy_ns += NowNanos() - start;
  calls++;
  if (!s.ok()) failures++;
  return s;
}

}  // namespace perfbench
