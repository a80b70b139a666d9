#include "env/record_log.h"

#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace elmo {

namespace {

constexpr uint32_t kRecordLogVersion = 1;
constexpr size_t kHeaderSize = kRecordLogMagicSize + 4 + 8;
constexpr size_t kFrameHeaderSize = 4 + 4;

// Read exactly `n` bytes into `dst`. Sets *clean_eof (with OK status)
// when the file ends before the first byte; Corruption when it ends
// inside the span.
Status ReadFully(SequentialFile* file, size_t n, char* dst, bool* clean_eof) {
  *clean_eof = false;
  size_t got = 0;
  while (got < n) {
    Slice chunk;
    Status s = file->Read(n - got, &chunk, dst + got);
    if (!s.ok()) return s;
    if (chunk.empty()) {
      if (got == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::Corruption("truncated record log");
    }
    // The file may return data in its own buffer; normalize into ours.
    if (chunk.data() != dst + got) {
      memcpy(dst + got, chunk.data(), chunk.size());
    }
    got += chunk.size();
  }
  return Status::OK();
}

}  // namespace

RecordLogWriter::~RecordLogWriter() { Close(); }

Status RecordLogWriter::Open(Env* env, const std::string& path,
                             const Slice& magic, uint64_t base_ts_us) {
  if (magic.size() != kRecordLogMagicSize) {
    return Status::InvalidArgument("record log magic must be 8 bytes");
  }
  std::lock_guard<std::mutex> l(mu_);
  if (file_ != nullptr) return Status::Busy(magic, "log already open");
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(path, &file);
  if (!s.ok()) return s;
  std::string header(magic.data(), magic.size());
  PutFixed32(&header, kRecordLogVersion);
  PutFixed64(&header, base_ts_us);
  s = file->Append(Slice(header));
  if (!s.ok()) return s;
  file_ = std::move(file);
  records_ = 0;
  active_.store(true, std::memory_order_release);
  return Status::OK();
}

Status RecordLogWriter::Append(const Slice& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutFixed32(&frame,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload.data(), payload.size());

  // One file Append per record: SimEnv charges each Append as device
  // time, so the call count shows in every SimEnv result; and a torn
  // write can only cut the log's tail.
  std::lock_guard<std::mutex> l(mu_);
  if (file_ == nullptr) return Status::IOError("record log not open");
  Status s = file_->Append(Slice(frame));
  if (s.ok()) records_++;
  return s;
}

Status RecordLogWriter::Close() {
  std::lock_guard<std::mutex> l(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("no record log open");
  active_.store(false, std::memory_order_release);
  Status s = file_->Flush();
  if (s.ok()) s = file_->Sync();
  Status c = file_->Close();
  if (s.ok()) s = c;
  file_.reset();
  return s;
}

uint64_t RecordLogWriter::records() const {
  std::lock_guard<std::mutex> l(mu_);
  return records_;
}

Status RecordLogReader::Open(const std::string& path, const Slice& magic) {
  Status s = env_->NewSequentialFile(path, &file_);
  if (!s.ok()) return s;
  char header[kHeaderSize];
  bool eof = false;
  s = ReadFully(file_.get(), kHeaderSize, header, &eof);
  if (s.ok() && (eof || Slice(header, kRecordLogMagicSize) != magic)) {
    s = Status::Corruption(path, "magic is not " + magic.ToString());
  }
  if (s.ok() && DecodeFixed32(header + kRecordLogMagicSize) !=
                    kRecordLogVersion) {
    s = Status::Corruption(path, "unsupported record log version");
  }
  if (!s.ok()) {
    file_.reset();
    return s;
  }
  base_ts_us_ = DecodeFixed64(header + kRecordLogMagicSize + 4);
  return Status::OK();
}

Status RecordLogReader::Next(std::string* payload, bool* eof) {
  *eof = false;
  if (file_ == nullptr) return Status::IOError("record log reader not open");

  char frame[kFrameHeaderSize];
  Status s = ReadFully(file_.get(), kFrameHeaderSize, frame, eof);
  if (!s.ok() || *eof) return s;
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(frame));
  const uint32_t len = DecodeFixed32(frame + 4);
  if (len > kMaxRecordLogPayload) {
    return Status::Corruption("bad record log length");
  }

  payload->resize(len);
  bool payload_eof = false;
  s = ReadFully(file_.get(), len, payload->data(), &payload_eof);
  if (!s.ok()) return s;
  if (payload_eof) return Status::Corruption("truncated record log");
  if (crc32c::Value(payload->data(), len) != expected_crc) {
    return Status::Corruption("record log checksum mismatch");
  }
  return Status::OK();
}

Status ReadRecordLogMagic(Env* env, const std::string& path,
                          std::string* magic) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(path, &file);
  if (!s.ok()) return s;
  magic->resize(kRecordLogMagicSize);
  bool eof = false;
  s = ReadFully(file.get(), kRecordLogMagicSize, magic->data(), &eof);
  if (s.ok() && eof) s = Status::Corruption(path, "empty file");
  return s;
}

}  // namespace elmo
