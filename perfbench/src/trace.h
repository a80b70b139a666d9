// In-memory span recorder for the traced run. Spans are opened by the
// benchmark's own wrappers around calls into the engine (DB calls, Env
// file calls, background jobs, LLM calls, BenchRunner runs); nothing in
// the engine itself is instrumented. Recording is off unless
// SetTracing(true) was called, so the timed phases of an untraced run
// pay one relaxed atomic load per wrapper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNanos();  // steady clock

struct Span {
  const char* name = "";  // static string, e.g. "lsm.get"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index in the same vector, -1 for a root
  uint64_t op_id = 0;   // shared by every span of one operation or job
  uint32_t thread = 0;

  uint64_t duration() const { return end_ns - start_ns; }
};

void SetTracing(bool on);
bool TracingOn();

// Opens a span on the calling thread, closed by the destructor. The
// span's parent is the innermost open span of the thread. A root span
// takes a fresh op id; nested spans inherit it. A `sampled` root span
// (the per-operation ones) is recorded for one in kSampleEvery such
// roots of its thread, with all its children. Once kMaxSpans have been
// recorded, further root spans (and their children) are dropped.
class SpanScope {
 public:
  explicit SpanScope(const char* name, bool sampled = false);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t index_ = -1;  // slot in the thread's buffer; -1 = not recorded
  bool pushed_ = false;
};

inline constexpr uint64_t kSampleEvery = 16;
inline constexpr uint64_t kMaxSpans = 1u << 20;

// Every span recorded so far, all threads, with parents re-indexed into
// the returned vector, and the number of spans dropped over the cap.
// Call only while no span is open.
std::vector<Span> CollectSpans(uint64_t* dropped);
// Forget every recorded span and zero the OpScopeCounts.
void ClearSpans();

// Wrapper scopes opened inside per-operation (sampled) root spans since
// the last ClearSpans, all threads: how many, and how many were recorded.
struct OpScopeCounts {
  uint64_t scopes = 0;
  uint64_t recorded = 0;
};
OpScopeCounts CountOpScopes();

// What one wrapper scope costs its thread with tracing on, measured in a
// loop: a recorded span, and a scope skipped because its root was not
// sampled. Call only while no span is open; clears the recorded spans.
struct ScopeCost {
  double recorded_ns = 0;
  double skipped_ns = 0;
};
ScopeCost MeasureScopeCost();

// Self time of each span: its duration minus the part of its interval
// covered by its direct children.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Writes one line per span: name, start, end, parent, op id, thread.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
