// IOTracingEnv: a decorator Env that forwards everything to a base Env
// and, while its tracer is open, emits one IOTraceRecord per file
// read/append/sync/range-sync with engine-clock latency and the calling
// thread's IOContext. Files are wrapped at open time, so a WAL opened
// before DB::StartTrace(TraceKind::kIO) still shows up once tracing
// starts. The trace file itself is written through the *base* env, so
// tracer output never recurses into the trace.
#pragma once

#include <memory>
#include <string>

#include "env/env.h"
#include "env/io_trace.h"

namespace elmo {

class IOTracingEnv : public Env {
 public:
  explicit IOTracingEnv(Env* base);

  Env* base() const { return base_; }

  // Open it to start tracing, close it to stop; writes go to base().
  IOTracer* tracer() { return &tracer_; }
  bool tracing() const { return tracer_.active(); }

  // Internal: called by the file wrappers. Latency is (end_us - start_us)
  // measured on the base env's clock before the record is serialized, so
  // the tracer's own writes never inflate it.
  void Emit(IOOp op, const std::string& fname, uint64_t offset, uint64_t len,
            uint64_t start_us, uint64_t end_us);

  // Env interface: file factories wrap, everything else forwards.
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDirIfMissing(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  Status GetFreeSpace(const std::string& path, uint64_t* bytes) override {
    return base_->GetFreeSpace(path, bytes);
  }
  uint64_t NowMicros() override;
  void SleepForMicroseconds(uint64_t micros) override;
  void Schedule(std::function<void()> job, JobPriority pri) override;
  void WaitForBackgroundWork() override;
  void SetBackgroundThreads(int n, JobPriority pri) override;
  bool is_deterministic() const override;
  void ChargeCpu(uint64_t micros) override;

 private:
  Env* const base_;
  IOTracer tracer_;
};

}  // namespace elmo
