// elmo_dump: offline inspection CLI for every artifact the engine
// writes. Thin argv wrapper over bench_kit/dump_tool.h and the offline
// analyzers (bench_kit/io_analyzer.h, bench_kit/cache_sim.h).
//
//   elmo_dump sst <file> [--blocks] [--no-scan]
//   elmo_dump manifest <file>
//   elmo_dump log <file> [--verbose]
//   elmo_dump trace <file> [--verbose]
//   elmo_dump io-analyze <file> [--json]
//   elmo_dump cache-sim <file> --capacity=<bytes> [--json]
//   elmo_dump span-analyze <file> [--json]
//   elmo_dump span-export <file>
//   elmo_dump health <file> [--json]
//   elmo_dump db <dir>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_kit/cache_sim.h"
#include "bench_kit/dump_tool.h"
#include "bench_kit/io_analyzer.h"
#include "bench_kit/span_analyzer.h"
#include "env/env.h"
#include "monitor/offline.h"
#include "util/json.h"

namespace {

void Usage() {
  fprintf(stderr,
          "usage: elmo_dump <command> <path> [flags]\n"
          "commands:\n"
          "  sst <file> [--blocks] [--no-scan]   dissect one SST file\n"
          "  manifest <file>                     decode MANIFEST edits\n"
          "  log <file> [--verbose]              validate + summarize JSONL"
          " LOG\n"
          "  trace <file> [--verbose]            decode any trace (op, IO,"
          " block-cache, span)\n"
          "  io-analyze <file> [--json]          per-kind/context IO"
          " breakdown\n"
          "  cache-sim <file> --capacity=N [--json]\n"
          "                                      miss-ratio curve from a"
          " cache trace\n"
          "  span-analyze <file> [--json]        p99 latency attribution"
          " from a span trace\n"
          "  span-export <file>                  span trace -> Chrome"
          " trace-event JSON (Perfetto)\n"
          "  health <file> [--json]              replay a JSONL LOG or"
          " timeseries JSON\n"
          "                                      through the health monitor:"
          " verdict timeline\n"
          "  db <dir>                            dump a whole DB directory\n");
}

bool HasFlag(const std::vector<std::string>& flags, const char* name) {
  for (const std::string& f : flags) {
    if (f == name) return true;
  }
  return false;
}

uint64_t FlagValue(const std::vector<std::string>& flags, const char* prefix,
                   uint64_t fallback) {
  const size_t n = strlen(prefix);
  for (const std::string& f : flags) {
    if (f.compare(0, n, prefix) == 0) {
      return strtoull(f.c_str() + n, nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  std::vector<std::string> flags;
  for (int i = 3; i < argc; i++) flags.emplace_back(argv[i]);

  elmo::Env* env = elmo::Env::Posix();
  elmo::Status s;
  std::string text;

  if (command == "sst") {
    elmo::bench::SstSummary summary;
    s = elmo::bench::DumpSst(env, path, !HasFlag(flags, "--no-scan"),
                             HasFlag(flags, "--blocks"), &summary, &text);
  } else if (command == "manifest") {
    s = elmo::bench::DumpManifest(env, path, &text);
  } else if (command == "log") {
    s = elmo::bench::DumpInfoLog(env, path, HasFlag(flags, "--verbose"),
                                 &text);
  } else if (command == "trace") {
    s = elmo::bench::DumpTrace(env, path, HasFlag(flags, "--verbose"), &text);
  } else if (command == "io-analyze") {
    elmo::bench::IOAnalysis analysis;
    s = elmo::bench::AnalyzeIOTrace(env, path, /*heatmap_buckets=*/20,
                                    &analysis);
    if (s.ok()) {
      text = HasFlag(flags, "--json")
                 ? elmo::json::Value(analysis.ToJson()).Dump(2) + "\n"
                 : analysis.ToText();
    }
  } else if (command == "cache-sim") {
    const uint64_t capacity =
        FlagValue(flags, "--capacity=", 8ull << 20);
    elmo::bench::CacheSimResult result;
    s = elmo::bench::SimulateCacheTrace(
        env, path, elmo::bench::DefaultCapacityLadder(capacity),
        /*num_shard_bits=*/4, &result);
    if (s.ok()) {
      text = HasFlag(flags, "--json")
                 ? elmo::json::Value(result.ToJson()).Dump(2) + "\n"
                 : result.ToText();
    }
  } else if (command == "span-analyze") {
    elmo::bench::SpanAttribution attr;
    s = elmo::bench::AnalyzeSpanTrace(env, path, &attr);
    if (s.ok()) {
      text = HasFlag(flags, "--json")
                 ? elmo::json::Value(attr.ToJson()).Dump(2) + "\n"
                 : attr.ToText();
    }
  } else if (command == "health") {
    elmo::monitor::HealthTimeline timeline;
    s = elmo::monitor::RunHealthOffline(env, path,
                                        elmo::monitor::MonitorConfig{},
                                        &timeline);
    if (s.ok()) {
      text = HasFlag(flags, "--json") ? timeline.ToJson() + "\n"
                                      : timeline.ToText();
    }
  } else if (command == "span-export") {
    s = elmo::bench::ExportChromeTrace(env, path, &text);
    if (s.ok()) text += "\n";
  } else if (command == "db") {
    s = elmo::bench::DumpDbDir(env, path, &text);
  } else {
    Usage();
    return 2;
  }

  if (!s.ok()) {
    fprintf(stderr, "elmo_dump %s %s: %s\n", command.c_str(), path.c_str(),
            s.ToString().c_str());
    return 1;
  }
  fputs(text.c_str(), stdout);
  return 0;
}
