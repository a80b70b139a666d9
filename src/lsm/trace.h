// Workload trace capture and reading. DB::StartTrace(TraceKind::kOp)
// hooks the write and read paths and appends one record per user
// operation — op kind, key, value size (not the value: traces stay
// small and replay regenerates values deterministically), engine-clock
// timestamp, and the issuing thread — to a record log (env/record_log.h)
// with magic "ELMOTRC1". bench_kit::ReplayTrace re-executes a trace
// against a fresh DB, either as fast as possible or with the recorded
// inter-op gaps preserved.
//
// Payload: op (1 byte) | fixed64 ts_us | fixed32 thread_id
//          | varint32 key_len | key bytes | varint32 value_size
#pragma once

#include <cstdint>
#include <string>

#include "env/env.h"
#include "env/record_log.h"
#include "util/status.h"

namespace elmo::lsm {

inline constexpr char kOpTraceMagic[] = "ELMOTRC1";

enum class TraceOp : uint8_t {
  kPut = 1,
  kDelete = 2,
  kGet = 3,
};

struct TraceRecord {
  TraceOp op = TraceOp::kPut;
  uint64_t ts_us = 0;  // engine clock at capture time
  uint32_t thread_id = 0;
  std::string key;
  uint32_t value_size = 0;  // 0 for deletes and gets
};

class TraceWriter {
 public:
  explicit TraceWriter(Env* env) : env_(env) {}

  // Create/truncate the trace file and write the header. `base_ts_us`
  // anchors replay timing (normally the engine clock at StartTrace).
  // Busy if a trace is already open.
  Status Open(const std::string& path, uint64_t base_ts_us) {
    return log_.Open(env_, path, kOpTraceMagic, base_ts_us);
  }

  Status AddRecord(TraceOp op, uint64_t ts_us, uint32_t thread_id,
                   const Slice& key, uint32_t value_size);

  // Flush+sync+close. InvalidArgument if no trace is open.
  Status Close() { return log_.Close(); }

  bool active() const { return log_.active(); }
  uint64_t records() const { return log_.records(); }

 private:
  Env* const env_;
  RecordLogWriter log_;
};

Status DecodeTraceRecord(const Slice& payload, TraceRecord* rec);

using TraceReader =
    TypedRecordLogReader<TraceRecord, kOpTraceMagic, DecodeTraceRecord>;

}  // namespace elmo::lsm
