// The CRC-framed record log every engine trace is written in: the op
// trace (lsm/trace.h), the IO trace (env/io_trace.h), the block-cache
// trace (table/block_cache_tracer.h) and the span trace (lsm/span.h).
// This module owns the container; each trace format only encodes and
// decodes its own payloads and picks its own magic.
//
// File layout:
//   header:  magic (8 bytes) | fixed32 version (=1) | fixed64 base_ts_us
//   record:  fixed32 masked_crc32c(payload) | fixed32 payload_len | payload
// A payload longer than kMaxRecordLogPayload, a torn tail or a bit flip
// surfaces as Status::Corruption from RecordLogReader::Next; a file that
// ends exactly on a record boundary is a clean end of file.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "env/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace elmo {

inline constexpr size_t kRecordLogMagicSize = 8;
inline constexpr uint32_t kMaxRecordLogPayload = 1u << 26;

// Thread-safe appender. One writer can be opened and closed any number
// of times; records() keeps the last log's count until the next Open.
class RecordLogWriter {
 public:
  RecordLogWriter() = default;
  // Closes a log that is still open.
  ~RecordLogWriter();

  RecordLogWriter(const RecordLogWriter&) = delete;
  RecordLogWriter& operator=(const RecordLogWriter&) = delete;

  // Create/truncate `path` on `env` and write the header. `magic` must
  // be kRecordLogMagicSize bytes. Busy if a log is already open.
  Status Open(Env* env, const std::string& path, const Slice& magic,
              uint64_t base_ts_us);

  // Frame `payload` and append it. IOError when no log is open (e.g. a
  // racing Close); a failed append is not counted.
  Status Append(const Slice& payload);

  // Flush + sync + close. InvalidArgument if no log is open.
  Status Close();

  // Lock-free hot-path gate: true between a successful Open and Close.
  bool active() const { return active_.load(std::memory_order_acquire); }
  uint64_t records() const;

 private:
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;  // guarded by mu_
  uint64_t records_ = 0;                // guarded by mu_
};

class RecordLogReader {
 public:
  explicit RecordLogReader(Env* env) : env_(env) {}

  RecordLogReader(const RecordLogReader&) = delete;
  RecordLogReader& operator=(const RecordLogReader&) = delete;

  // Open `path` and check its header against `magic` and the version.
  Status Open(const std::string& path, const Slice& magic);

  // Read the next payload into *payload, reusing its buffer. Sets
  // *eof=true (with OK status) at a clean end of file; Corruption on a
  // truncated record, an oversized length or a CRC mismatch.
  Status Next(std::string* payload, bool* eof);

  uint64_t base_ts_us() const { return base_ts_us_; }

 private:
  Env* const env_;
  std::unique_ptr<SequentialFile> file_;
  uint64_t base_ts_us_ = 0;
};

// Reader of one trace format: the record log with magic `kMagic`, whose
// payloads `Decode` turns into `Record`s (Corruption if malformed).
template <typename Record, const char* kMagic,
          Status (*Decode)(const Slice& payload, Record* rec)>
class TypedRecordLogReader {
 public:
  explicit TypedRecordLogReader(Env* env) : log_(env) {}

  // Open and validate the header.
  Status Open(const std::string& path) { return log_.Open(path, kMagic); }

  // Read the next record. Sets *eof=true (with OK status) at a clean end
  // of file; returns Corruption on a bad CRC, truncated record or
  // malformed payload.
  Status Next(Record* rec, bool* eof) {
    Status s = log_.Next(&payload_, eof);
    if (!s.ok() || *eof) return s;
    return Decode(payload_, rec);
  }

  uint64_t base_ts_us() const { return log_.base_ts_us(); }

 private:
  RecordLogReader log_;
  std::string payload_;
};

// Read the first kRecordLogMagicSize bytes of the file at `path`, to
// tell which trace format it holds. Corruption if the file is shorter.
Status ReadRecordLogMagic(Env* env, const std::string& path,
                          std::string* magic);

}  // namespace elmo
