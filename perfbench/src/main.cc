// perfbench: runs one workload of the wall-clock benchmark and prints
// two JSON lines: run details (fingerprint, percentile picks, data
// sizes), then the result {"correct","attempted","failed","metrics"}.
//
//   perfbench --workload kv_read --seed 1 --seconds 10 --trace 0
//             [--spans_out FILE] [--git_sha SHA] [--source_digest HEX]
//
// Exit status: 0 when the run completed and its outputs were correct,
// 1 when a check failed, 2 on bad arguments, 3 when the build may not
// report timings.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fingerprint.h"
#include "workloads.h"

namespace json = elmo::json;

namespace {

int Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload NAME --seed N "
          "--seconds S --trace 0|1 [--spans_out FILE] [--git_sha SHA] "
          "[--source_digest HEX]\n",
          why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = strtoull(s, &end, 10);
  return *s != '\0' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string git_sha = "unknown", digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0 &&
               n <= 60) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      opt.traced = n == 1;
      have_trace = true;
    } else if (flag == "--spans_out") {
      opt.spans_out = value;
    } else if (flag == "--git_sha") {
      git_sha = value;
    } else if (flag == "--source_digest") {
      digest = value;
    } else {
      return Usage(("bad argument " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage("missing argument");
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == opt.workload;
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());
  const std::string refusal = perfbench::BuildRefusal();
  if (!refusal.empty()) {
    fprintf(stderr, "perfbench: refusing to report: %s\n", refusal.c_str());
    return 3;
  }

  perfbench::RunResult r = perfbench::RunWorkload(opt);

  json::Object fp = perfbench::Fingerprint();
  fp["git_sha"] = git_sha;
  fp["source_digest"] = digest;
  r.detail["fingerprint"] = fp;
  r.detail["trace"] = opt.traced;
  printf("%s\n", json::Value(json::Object{{"detail", r.detail}}).Dump().c_str());

  json::Object metrics;
  for (const auto& m : r.metrics) {
    metrics[m.name] = json::Object{{"value", m.value}, {"unit", m.unit}};
  }
  printf("%s\n",
         json::Value(json::Object{
                         {"correct", r.correct},
                         {"attempted", static_cast<int64_t>(r.attempted)},
                         {"failed", static_cast<int64_t>(r.failed)},
                         {"metrics", metrics}})
             .Dump()
             .c_str());
  fflush(stdout);
  return r.correct ? 0 : 1;
}
