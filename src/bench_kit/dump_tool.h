// Offline inspection of every on-disk artifact the engine produces:
// SST files (block layout, bloom stats, key range, entry counts),
// MANIFEST (VersionEdit history), the structured JSONL info LOG, and
// every trace kind (lsm/trace.h, env/io_trace.h,
// table/block_cache_tracer.h, lsm/span.h).
// Everything reads through an Env*, so the same code inspects a real
// directory (PosixEnv) and a simulated one (SimEnv/MemEnv) in tests.
// The tools/elmo_dump CLI is a thin argv wrapper over these.
#pragma once

#include <cstdint>
#include <string>

#include "env/env.h"
#include "util/status.h"

namespace elmo::bench {

// Summary of one SST file, gathered by walking the footer, index block,
// and (optionally) every data block.
struct SstSummary {
  uint64_t file_size = 0;
  uint64_t index_offset = 0;
  uint64_t index_size = 0;   // on-disk index block bytes (pre-trailer)
  uint64_t filter_offset = 0;
  uint64_t filter_size = 0;  // 0 when the table has no filter
  int bloom_probes = 0;      // k from the filter's last byte; 0 if none
  uint64_t num_data_blocks = 0;
  uint64_t data_bytes = 0;  // on-disk data block bytes (pre-trailer)
  // Filled only when `scan` was requested.
  uint64_t num_entries = 0;
  uint64_t num_deletions = 0;
  uint64_t min_sequence = 0;
  uint64_t max_sequence = 0;
  std::string smallest_user_key;
  std::string largest_user_key;
};

// Dissect the SST at `path`. With `scan`, every data block is read and
// each entry's internal key parsed (key counts + range + sequence
// span); without it only the footer/index/filter are touched. `text`
// (optional) receives a human-readable report; with `list_blocks` it
// includes one line per data block.
Status DumpSst(Env* env, const std::string& path, bool scan, bool list_blocks,
               SstSummary* out, std::string* text);

// Decode every VersionEdit record in the MANIFEST at `path`.
Status DumpManifest(Env* env, const std::string& path, std::string* text);

// Validate + summarize a structured JSONL info LOG: per-event counts,
// plus the raw lines when `verbose`. Fails with Corruption on a
// non-JSON line.
Status DumpInfoLog(Env* env, const std::string& path, bool verbose,
                   std::string* text);

// Decode any engine trace record by record, picking the decoder from
// the file's magic: op, IO, block-cache or span trace. With `verbose`
// each record (for span traces, each span of each tree, indented by
// depth) is listed; a per-kind summary is always appended (the IO
// analyzer's and the span analyzer's for those kinds). A corrupted
// trace or an unknown magic surfaces as Status::Corruption.
Status DumpTrace(Env* env, const std::string& path, bool verbose,
                 std::string* text);

// Walk a DB directory and dump every recognized file (CURRENT,
// MANIFEST, LOG, SSTs with scan on). Unknown files are listed by name.
Status DumpDbDir(Env* env, const std::string& dbname, std::string* text);

}  // namespace elmo::bench
