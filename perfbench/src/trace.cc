#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuf {
  uint32_t id = 0;
  uint64_t op = 0;
  uint64_t sampled_roots = 0;
  bool in_op = false;  // the open root span is a per-operation one
  uint64_t op_scopes = 0, op_recorded = 0;
  std::vector<Span> spans;
  std::vector<int64_t> stack;  // open spans; -1 marks a dropped one
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_recorded{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint64_t> g_next_op{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf* Buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> l(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->id = static_cast<uint32_t>(g_bufs.size() - 1);
  }
  return buf;
}

}  // namespace

uint64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_on.load(std::memory_order_relaxed); }

SpanScope::SpanScope(const char* name, bool sampled) {
  if (!TracingOn()) return;
  ThreadBuf* t = Buf();
  pushed_ = true;
  const bool root = t->stack.empty();
  if (root) t->in_op = sampled;
  t->op_scopes += t->in_op;
  if ((!root && t->stack.back() < 0) ||
      (root && sampled && t->sampled_roots++ % kSampleEvery != 0)) {
    t->stack.push_back(-1);
    return;
  }
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans &&
      root) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    t->stack.push_back(-1);
    return;
  }
  if (root) t->op = g_next_op.fetch_add(1, std::memory_order_relaxed);
  Span s;
  s.name = name;
  s.parent = root ? -1 : t->stack.back();
  s.op_id = t->op;
  s.thread = t->id;
  t->op_recorded += t->in_op;
  index_ = static_cast<int64_t>(t->spans.size());
  t->spans.push_back(s);
  t->stack.push_back(index_);
  t->spans.back().start_ns = NowNanos();
}

SpanScope::~SpanScope() {
  if (!pushed_) return;
  const uint64_t end = NowNanos();
  ThreadBuf* t = Buf();
  t->stack.pop_back();
  if (index_ >= 0) t->spans[index_].end_ns = end;
}

std::vector<Span> CollectSpans(uint64_t* dropped) {
  std::lock_guard<std::mutex> l(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_bufs) {
    const int64_t base = static_cast<int64_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  *dropped = g_dropped.load(std::memory_order_relaxed);
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> l(g_mu);
  for (auto& b : g_bufs) {
    b->spans.clear();
    b->op_scopes = b->op_recorded = 0;
  }
  g_recorded.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

OpScopeCounts CountOpScopes() {
  std::lock_guard<std::mutex> l(g_mu);
  OpScopeCounts c;
  for (const auto& b : g_bufs) {
    c.scopes += b->op_scopes;
    c.recorded += b->op_recorded;
  }
  return c;
}

ScopeCost MeasureScopeCost() {
  constexpr int kRounds = 5;
  constexpr uint64_t kScopes = 1 << 16;
  const bool was_on = TracingOn();
  SetTracing(true);
  std::vector<double> recorded, skipped;
  for (int r = 0; r < kRounds; r++) {
    ClearSpans();
    uint64_t start = NowNanos();
    for (uint64_t i = 0; i < kScopes; i++) SpanScope s("perfbench.cost");
    recorded.push_back(static_cast<double>(NowNanos() - start) / kScopes);
    // The next sampled root is not one in kSampleEvery: it and its
    // children are skipped.
    Buf()->sampled_roots = 1;
    SpanScope root("perfbench.cost", true);
    start = NowNanos();
    for (uint64_t i = 0; i < kScopes; i++) SpanScope s("perfbench.cost");
    skipped.push_back(static_cast<double>(NowNanos() - start) / kScopes);
  }
  ClearSpans();
  SetTracing(was_on);
  std::sort(recorded.begin(), recorded.end());
  std::sort(skipped.begin(), skipped.end());
  return {recorded[kRounds / 2], skipped[kRounds / 2]};
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<size_t> kids;
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent >= 0) kids.push_back(i);
  }
  std::sort(kids.begin(), kids.end(), [&](size_t a, size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) self[i] = spans[i].duration();
  // Sweep each parent's children in start order, adding the part of
  // each child not already covered and inside the parent.
  for (size_t k = 0; k < kids.size();) {
    const Span& p = spans[spans[kids[k]].parent];
    uint64_t covered = 0;
    uint64_t reach = p.start_ns;  // end of the union so far
    size_t j = k;
    for (; j < kids.size() && spans[kids[j]].parent == spans[kids[k]].parent;
         j++) {
      const Span& c = spans[kids[j]];
      const uint64_t lo = std::max(c.start_ns, reach);
      const uint64_t hi = std::min(c.end_ns, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[spans[kids[k]].parent] -= covered;
    k = j;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "name\tstart_ns\tend_ns\tparent\top_id\tthread\n");
  for (const Span& s : spans) {
    fprintf(f, "%s\t%llu\t%llu\t%lld\t%llu\t%u\n", s.name,
            (unsigned long long)s.start_ns, (unsigned long long)s.end_ns,
            (long long)s.parent, (unsigned long long)s.op_id, s.thread);
  }
  return fclose(f) == 0;
}

}  // namespace perfbench
