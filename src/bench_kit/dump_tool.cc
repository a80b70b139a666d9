#include "bench_kit/dump_tool.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_kit/cache_sim.h"
#include "bench_kit/io_analyzer.h"
#include "bench_kit/span_analyzer.h"
#include "env/io_trace.h"
#include "env/record_log.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/span.h"
#include "lsm/trace.h"
#include "lsm/version_edit.h"
#include "table/block.h"
#include "table/block_cache_tracer.h"
#include "table/comparator.h"
#include "table/format.h"
#include "util/json.h"

namespace elmo::bench {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

// Render a user key for display: printable bytes as-is, the rest as \xNN.
std::string EscapeKey(const Slice& key) {
  std::string out;
  for (size_t i = 0; i < key.size() && i < 64; i++) {
    const auto c = static_cast<unsigned char>(key[i]);
    if (c >= 32 && c < 127) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  if (key.size() > 64) out += "...";
  return out;
}

class CollectingReporter : public log::Reader::Reporter {
 public:
  void Corruption(size_t bytes, const Status& status) override {
    corrupt_bytes += bytes;
    if (first.ok()) first = status;
  }
  size_t corrupt_bytes = 0;
  Status first;
};

}  // namespace

Status DumpSst(Env* env, const std::string& path, bool scan, bool list_blocks,
               SstSummary* out, std::string* text) {
  *out = SstSummary();

  std::unique_ptr<RandomAccessFile> file;
  Status s = env->NewRandomAccessFile(path, &file);
  if (!s.ok()) return s;
  s = env->GetFileSize(path, &out->file_size);
  if (!s.ok()) return s;
  if (out->file_size < Footer::kEncodedLength) {
    return Status::Corruption(path + ": shorter than an SST footer");
  }

  char footer_buf[Footer::kEncodedLength];
  Slice footer_slice;
  s = file->Read(out->file_size - Footer::kEncodedLength,
                 Footer::kEncodedLength, &footer_slice, footer_buf);
  if (!s.ok()) return s;
  Footer footer;
  s = footer.DecodeFrom(&footer_slice);
  if (!s.ok()) return s;

  out->index_offset = footer.index_handle().offset();
  out->index_size = footer.index_handle().size();
  out->filter_offset = footer.filter_handle().offset();
  out->filter_size = footer.filter_handle().size();
  if (out->filter_size > 0) {
    BlockContents filter;
    s = ReadBlock(file.get(), footer.filter_handle(), &filter);
    if (!s.ok()) return s;
    // leveldb bloom scheme: bit array then one byte of probe count.
    if (!filter.data.empty()) {
      out->bloom_probes = static_cast<unsigned char>(filter.data.back());
    }
  }

  BlockContents index_contents;
  s = ReadBlock(file.get(), footer.index_handle(), &index_contents);
  if (!s.ok()) return s;
  Block index_block(std::move(index_contents.data));

  if (text != nullptr) {
    Appendf(text, "sst %s: %llu bytes\n", path.c_str(),
            (unsigned long long)out->file_size);
    Appendf(text, "  index block: offset %llu size %llu\n",
            (unsigned long long)out->index_offset,
            (unsigned long long)out->index_size);
    if (out->filter_size > 0) {
      Appendf(text,
              "  filter block: offset %llu size %llu (bloom, %d probes)\n",
              (unsigned long long)out->filter_offset,
              (unsigned long long)out->filter_size, out->bloom_probes);
    } else {
      *text += "  filter block: none\n";
    }
  }

  // The comparator only matters for Seek; SeekToFirst/Next scans are
  // order-agnostic, so bytewise is safe for index keys (separators).
  std::unique_ptr<Iterator> index_iter =
      index_block.NewIterator(BytewiseComparator());
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    Slice handle_input = index_iter->value();
    BlockHandle handle;
    s = handle.DecodeFrom(&handle_input);
    if (!s.ok()) return s;
    out->num_data_blocks++;
    out->data_bytes += handle.size();

    uint64_t block_entries = 0;
    if (scan) {
      BlockContents contents;
      s = ReadBlock(file.get(), handle, &contents);
      if (!s.ok()) return s;
      Block block(std::move(contents.data));
      std::unique_ptr<Iterator> it = block.NewIterator(BytewiseComparator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey parsed;
        if (!ParseInternalKey(it->key(), &parsed)) {
          return Status::Corruption(path + ": unparsable internal key");
        }
        if (out->num_entries == 0) {
          out->smallest_user_key = parsed.user_key.ToString();
          out->min_sequence = parsed.sequence;
          out->max_sequence = parsed.sequence;
        }
        out->largest_user_key = parsed.user_key.ToString();
        out->min_sequence = std::min(out->min_sequence, parsed.sequence);
        out->max_sequence = std::max(out->max_sequence, parsed.sequence);
        if (parsed.type == kTypeDeletion) out->num_deletions++;
        out->num_entries++;
        block_entries++;
      }
      if (!it->status().ok()) return it->status();
    }

    if (text != nullptr && list_blocks) {
      Appendf(text, "  data block %llu: offset %llu size %llu",
              (unsigned long long)(out->num_data_blocks - 1),
              (unsigned long long)handle.offset(),
              (unsigned long long)handle.size());
      if (scan) {
        Appendf(text, " entries %llu", (unsigned long long)block_entries);
      }
      *text += "\n";
    }
  }
  if (!index_iter->status().ok()) return index_iter->status();

  if (text != nullptr) {
    Appendf(text, "  data blocks: %llu (%llu bytes)\n",
            (unsigned long long)out->num_data_blocks,
            (unsigned long long)out->data_bytes);
    if (scan) {
      Appendf(text, "  entries: %llu (%llu deletions)\n",
              (unsigned long long)out->num_entries,
              (unsigned long long)out->num_deletions);
      if (out->num_entries > 0) {
        Appendf(text, "  key range: [%s .. %s]\n",
                EscapeKey(out->smallest_user_key).c_str(),
                EscapeKey(out->largest_user_key).c_str());
        Appendf(text, "  sequence span: [%llu .. %llu]\n",
                (unsigned long long)out->min_sequence,
                (unsigned long long)out->max_sequence);
      }
    }
  }
  return Status::OK();
}

Status DumpManifest(Env* env, const std::string& path, std::string* text) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(path, &file);
  if (!s.ok()) return s;

  CollectingReporter reporter;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true);
  Slice record;
  std::string scratch;
  uint64_t edits = 0;
  Appendf(text, "manifest %s:\n", path.c_str());
  while (reader.ReadRecord(&record, &scratch)) {
    lsm::VersionEdit edit;
    s = edit.DecodeFrom(record);
    if (!s.ok()) return s;
    Appendf(text, "--- edit %llu ---\n", (unsigned long long)edits);
    *text += edit.DebugString();
    edits++;
  }
  if (reporter.corrupt_bytes > 0) {
    return Status::Corruption(path + ": " + reporter.first.ToString());
  }
  Appendf(text, "%llu edits\n", (unsigned long long)edits);
  return Status::OK();
}

Status DumpInfoLog(Env* env, const std::string& path, bool verbose,
                   std::string* text) {
  std::string contents;
  Status s = env->ReadFileToString(path, &contents);
  if (!s.ok()) return s;

  std::map<std::string, uint64_t> event_counts;
  uint64_t lines = 0;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t eol = contents.find('\n', pos);
    if (eol == std::string::npos) eol = contents.size();
    const std::string line = contents.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    json::Value v;
    s = json::Parse(line, &v);
    if (!s.ok() || !v.is_object()) {
      return Status::Corruption(path + ": non-JSON LOG line: " + line);
    }
    const json::Value* event = v.Find("event");
    event_counts[event != nullptr && event->is_string() ? event->as_string()
                                                        : "<missing>"]++;
    lines++;
    if (verbose) {
      *text += line;
      *text += "\n";
    }
  }
  Appendf(text, "info LOG %s: %llu lines\n", path.c_str(),
          (unsigned long long)lines);
  for (const auto& [event, count] : event_counts) {
    Appendf(text, "  %-24s %llu\n", event.c_str(), (unsigned long long)count);
  }
  return Status::OK();
}

namespace {

const char* TraceOpName(lsm::TraceOp op) {
  switch (op) {
    case lsm::TraceOp::kPut:
      return "put";
    case lsm::TraceOp::kDelete:
      return "delete";
    case lsm::TraceOp::kGet:
      return "get";
  }
  return "unknown";
}

Status DumpOpTrace(Env* env, const std::string& path, bool verbose,
                   std::string* text) {
  lsm::TraceReader reader(env);
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  lsm::TraceRecord rec;
  bool eof = false;
  uint64_t puts = 0, deletes = 0, gets = 0;
  uint64_t key_bytes = 0, last_ts = reader.base_ts_us();
  while (true) {
    s = reader.Next(&rec, &eof);
    if (!s.ok()) return s;
    if (eof) break;
    switch (rec.op) {
      case lsm::TraceOp::kPut:
        puts++;
        break;
      case lsm::TraceOp::kDelete:
        deletes++;
        break;
      case lsm::TraceOp::kGet:
        gets++;
        break;
    }
    key_bytes += rec.key.size();
    last_ts = std::max(last_ts, rec.ts_us);
    if (verbose) {
      Appendf(text, "%llu %s thread=%u key=%s value_size=%u\n",
              (unsigned long long)rec.ts_us, TraceOpName(rec.op),
              rec.thread_id, EscapeKey(rec.key).c_str(), rec.value_size);
    }
  }
  Appendf(text,
          "op trace %s: %llu ops (%llu puts, %llu deletes, %llu gets), "
          "%llu key bytes\n",
          path.c_str(), (unsigned long long)(puts + deletes + gets),
          (unsigned long long)puts, (unsigned long long)deletes,
          (unsigned long long)gets, (unsigned long long)key_bytes);
  Appendf(text, "  base_ts=%llu us, span %llu us\n",
          (unsigned long long)reader.base_ts_us(),
          (unsigned long long)(last_ts - reader.base_ts_us()));
  return Status::OK();
}

Status DumpIOTrace(Env* env, const std::string& path, bool verbose,
                   std::string* text) {
  if (verbose) {
    IOTraceReader reader(env);
    Status s = reader.Open(path);
    if (!s.ok()) return s;
    IOTraceRecord rec;
    bool eof = false;
    while (true) {
      s = reader.Next(&rec, &eof);
      if (!s.ok()) return s;
      if (eof) break;
      Appendf(text, "%llu %s %s %s off=%llu len=%llu lat=%lluus %s\n",
              (unsigned long long)rec.ts_us, IOOpName(rec.op),
              IOFileKindName(rec.kind), IOContextTagName(rec.context),
              (unsigned long long)rec.offset, (unsigned long long)rec.len,
              (unsigned long long)rec.latency_us, rec.fname.c_str());
    }
  }
  IOAnalysis analysis;
  Status s = AnalyzeIOTrace(env, path, /*heatmap_buckets=*/20, &analysis);
  if (!s.ok()) return s;
  *text += analysis.ToText();
  return Status::OK();
}

Status DumpBlockCacheTrace(Env* env, const std::string& path, bool verbose,
                           std::string* text) {
  BlockCacheTraceReader reader(env);
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  BlockCacheAccessRecord rec;
  bool eof = false;
  uint64_t records = 0, hits = 0;
  uint64_t charge_sum = 0;
  while (true) {
    s = reader.Next(&rec, &eof);
    if (!s.ok()) return s;
    if (eof) break;
    records++;
    if (rec.hit) hits++;
    charge_sum += rec.charge;
    if (verbose) {
      Appendf(text, "%llu %s %s%s level=%d file=%llu off=%llu charge=%llu\n",
              (unsigned long long)rec.ts_us, TraceBlockTypeName(rec.type),
              rec.hit ? "hit" : "miss", rec.fill ? "" : " nofill", rec.level,
              (unsigned long long)rec.file_number,
              (unsigned long long)rec.offset,
              (unsigned long long)rec.charge);
    }
  }
  Appendf(text, "block cache trace %s: %llu accesses, %llu hits (%.2f%%)\n",
          path.c_str(), (unsigned long long)records, (unsigned long long)hits,
          records > 0 ? 100.0 * static_cast<double>(hits) /
                            static_cast<double>(records)
                      : 0.0);
  Appendf(text, "  total charge touched: %llu bytes\n",
          (unsigned long long)charge_sum);
  return Status::OK();
}

Status DumpSpanTrace(Env* env, const std::string& path, bool verbose,
                     std::string* text) {
  if (verbose) {
    lsm::SpanTraceReader reader(env);
    Status s = reader.Open(path);
    if (!s.ok()) return s;
    Appendf(text, "span trace %s: base_ts=%llu us\n", path.c_str(),
            (unsigned long long)reader.base_ts_us());
    lsm::SpanTree tree;
    bool eof = false;
    uint64_t n = 0;
    while (true) {
      s = reader.Next(&tree, &eof);
      if (!s.ok()) return s;
      if (eof) break;
      Appendf(text, "--- tree %llu: thread %u%s%s ---\n",
              (unsigned long long)n, tree.thread_id,
              (tree.flags & lsm::kSpanTreeSlow) ? " slow" : "",
              (tree.flags & lsm::kSpanTreeSampled) ? " sampled" : "");
      // Depth by parent-chain walk: spans are appended in open order so
      // every parent precedes its children.
      std::vector<int> depth(tree.spans.size(), 0);
      for (size_t i = 0; i < tree.spans.size(); i++) {
        const lsm::SpanNode& node = tree.spans[i];
        if (i > 0) depth[i] = depth[static_cast<size_t>(node.parent)] + 1;
        for (int d = 0; d < depth[i]; d++) *text += "  ";
        Appendf(text, "%s start=%llu dur=%llu",
                lsm::SpanKindName(node.kind),
                (unsigned long long)node.start_us,
                (unsigned long long)node.duration_us);
        for (const auto& [tag, value] : node.annotations) {
          Appendf(text, " %s=%llu", lsm::SpanTagName(tag),
                  (unsigned long long)value);
        }
        *text += "\n";
      }
      n++;
    }
  }
  SpanAttribution attr;
  Status s = AnalyzeSpanTrace(env, path, &attr);
  if (!s.ok()) return s;
  *text += attr.ToText();
  return Status::OK();
}

}  // namespace

Status DumpTrace(Env* env, const std::string& path, bool verbose,
                 std::string* text) {
  std::string magic;
  Status s = ReadRecordLogMagic(env, path, &magic);
  if (!s.ok()) return s;
  if (magic == lsm::kOpTraceMagic) {
    return DumpOpTrace(env, path, verbose, text);
  }
  if (magic == kIOTraceMagic) return DumpIOTrace(env, path, verbose, text);
  if (magic == kBlockCacheTraceMagic) {
    return DumpBlockCacheTrace(env, path, verbose, text);
  }
  if (magic == lsm::kSpanTraceMagic) {
    return DumpSpanTrace(env, path, verbose, text);
  }
  return Status::Corruption(path, "not an elmo trace: unknown magic " +
                                      EscapeKey(magic));
}

Status DumpDbDir(Env* env, const std::string& dbname, std::string* text) {
  std::vector<std::string> children;
  Status s = env->GetChildren(dbname, &children);
  if (!s.ok()) return s;
  std::sort(children.begin(), children.end());

  Appendf(text, "db dir %s: %zu files\n", dbname.c_str(), children.size());
  for (const std::string& child : children) {
    uint64_t number = 0;
    FileType type;
    if (!ParseFileName(child, &number, &type)) {
      Appendf(text, "unrecognized file: %s\n", child.c_str());
      continue;
    }
    const std::string path = dbname + "/" + child;
    switch (type) {
      case FileType::kCurrentFile: {
        std::string current;
        s = env->ReadFileToString(path, &current);
        if (!s.ok()) return s;
        while (!current.empty() && current.back() == '\n') current.pop_back();
        Appendf(text, "CURRENT -> %s\n", current.c_str());
        break;
      }
      case FileType::kDescriptorFile:
        s = DumpManifest(env, path, text);
        if (!s.ok()) return s;
        break;
      case FileType::kInfoLogFile:
        s = DumpInfoLog(env, path, /*verbose=*/false, text);
        if (!s.ok()) return s;
        break;
      case FileType::kTableFile: {
        SstSummary summary;
        s = DumpSst(env, path, /*scan=*/true, /*list_blocks=*/false, &summary,
                    text);
        if (!s.ok()) return s;
        break;
      }
      case FileType::kLogFile: {
        uint64_t size = 0;
        s = env->GetFileSize(path, &size);
        if (!s.ok()) return s;
        Appendf(text, "wal %s: %llu bytes\n", child.c_str(),
                (unsigned long long)size);
        break;
      }
      default:
        Appendf(text, "%s\n", child.c_str());
        break;
    }
  }
  return Status::OK();
}

}  // namespace elmo::bench
