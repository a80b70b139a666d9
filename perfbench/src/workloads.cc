#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_kit/bench_runner.h"
#include "bench_kit/generators.h"
#include "elmo/tuning_session.h"
#include "env/hardware_profile.h"
#include "env/mem_env.h"
#include "kernels.h"
#include "llm/expert_llm.h"
#include "lsm/db.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

namespace {

namespace bench = elmo::bench;
namespace json = elmo::json;
namespace lsm = elmo::lsm;
using elmo::Slice;
using elmo::Status;

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 100;
constexpr uint64_t kEntryBytes = kKeySize + kValueSize;
// Every workload loads this many keys (5.5 MiB of user data) in set-up.
constexpr uint64_t kKeys = 50000;
// Memtable and table file size, scaled down (with L1 at four times it)
// so that flush and leveled compaction cycle many times per round.
constexpr uint64_t kWriteBuffer = 1 << 20;
constexpr int kScanLength = 10;  // a scan is one Seek and this many entries
// A run is kRounds rounds, each on a freshly set-up DB, with a tuning
// session after every fourth round. On a shared host the speed of the
// machine drifts by a quarter over seconds, and whole rounds run ~1.4x
// slow at random, so each timing is the mean over rounds or sessions;
// set-up time and the amounts that do not depend on speed are medians.
constexpr int kRounds = 12;
// The simulated expert is part of the program under test, not an input:
// its seed stays fixed and --seed drives the workload it tunes.
constexpr uint64_t kLlmSeed = 7;
const char* const kDbName = "/perfbench-db";
const char* const kFlushPolicy =
    "WriteOptions.sync=false: every write is appended to the WAL and never "
    "synced; memtables flush when full";

double Mib(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }
double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// Engine side of a workload: a closed loop on MemEnv.
struct EngineSpec {
  int clients = 1;
  double put = 0, get = 0, scan = 0;  // op shares of the timed phase
  double missing = 0;                 // share of Gets for unwritten keys
  double zipf = 0;                    // key skew; 0 = uniform
  bool put_passes = false;  // Puts walk random permutations of the keys
  bool warm = false;        // set-up reads every key once
  uint64_t block_cache = 8 << 20;
};

// Tuning side: the ELMo-Tune loop on SimEnv, paper Figure 4 hardware.
struct SessionSpec {
  bench::WorkloadSpec spec;
  int iterations = 7;
};

struct Workload {
  EngineSpec engine;
  SessionSpec session;
};

int Clients() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);
}

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> w = [] {
    std::map<std::string, Workload> m;
    Workload& write = m["kv_write"];
    write.engine.put = 1;
    write.engine.put_passes = true;
    write.session = {bench::WorkloadSpec::FillRandom(20000), 3};

    Workload& read = m["kv_read"];
    read.engine.get = 1;
    read.engine.missing = 0.2;
    read.engine.block_cache = 512 << 10;
    read.session = {bench::WorkloadSpec::ReadRandom(10000, 20000), 3};

    // The paper's headline session, Mixgraph on Figure 4's hardware, and
    // on the engine side the same op shares and key skew (bench_kit's
    // Mixgraph spec: half Puts, half Gets, Zipfian keys). Mixgraph has no
    // scans, so kv_mixed measures scans in the read-back check.
    const bench::WorkloadSpec mixgraph = bench::WorkloadSpec::Mixgraph(60000);
    Workload& mixed = m["kv_mixed"];
    mixed.engine.clients = Clients();
    mixed.engine.put = mixgraph.write_fraction;
    mixed.engine.get = 1 - mixgraph.write_fraction;
    mixed.engine.zipf = mixgraph.zipf_theta;
    mixed.engine.warm = true;
    mixed.engine.block_cache = 64 << 20;
    mixed.session = {mixgraph, 7};
    return m;
  }();
  return w;
}

// Written keys are the even indexes of MakeKey, so every missing key
// (odd) falls inside some table's key range and the bloom filter, not
// the index, has to reject it.
std::string Key(uint64_t i) { return bench::MakeKey(2 * i); }
std::string MissingKey(uint64_t i) { return bench::MakeKey(2 * i + 1); }

// Value of version v of key i: "<i>:<v>:" then filler derived from both.
void MakeValue(uint64_t i, uint32_t v, std::string* out) {
  char head[32];
  snprintf(head, sizeof(head), "%010llu:%010u:", (unsigned long long)i, v);
  out->assign(head, 22);
  uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ull ^ (v + 0x632be59bd9b4e019ull);
  while (out->size() < kValueSize) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    out->push_back(static_cast<char>('a' + h % 26));
  }
}

// Version of key i that `value` holds; 0 if it is no value of key i.
uint32_t ValueVersion(uint64_t i, const Slice& value) {
  if (value.size() != kValueSize || value.data()[21] != ':') return 0;
  char digits[11];
  memcpy(digits, value.data() + 11, 10);
  digits[10] = '\0';
  const uint32_t v = static_cast<uint32_t>(strtoul(digits, nullptr, 10));
  std::string expect;
  MakeValue(i, v, &expect);
  return Slice(expect) == value ? v : 0;
}

// Latencies and checks gathered by one client over one phase.
struct OpLog {
  std::vector<uint32_t> put, get, scan;  // latency, ns
  uint64_t ops = 0, failed = 0, user_bytes = 0;
  uint64_t gets = 0, get_sst_reads = 0;
  uint64_t missing_gets = 0, missing_sst_reads = 0;

  void Merge(const OpLog& o) {
    put.insert(put.end(), o.put.begin(), o.put.end());
    get.insert(get.end(), o.get.begin(), o.get.end());
    scan.insert(scan.end(), o.scan.begin(), o.scan.end());
    ops += o.ops;
    failed += o.failed;
    user_bytes += o.user_bytes;
    gets += o.gets;
    get_sst_reads += o.get_sst_reads;
    missing_gets += o.missing_gets;
    missing_sst_reads += o.missing_sst_reads;
  }
};

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

// One DB on a fresh MemEnv behind the probes, plus the expected state:
// the last acknowledged version of every key. Key i is only ever
// written by client i % clients, so versions grow by one per Put.
class Engine {
 public:
  explicit Engine(const EngineSpec& spec)
      : spec_(spec),
        env_(&mem_),
        events_(std::make_shared<EventCounter>()),
        versions_(new std::atomic<uint32_t>[kKeys]) {
    for (uint64_t i = 0; i < kKeys; i++) versions_[i].store(0);
  }
  ~Engine() { Close(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Status Open() {
    lsm::Options o;
    o.env = &env_;
    o.create_if_missing = true;
    o.write_buffer_size = kWriteBuffer;
    o.target_file_size_base = kWriteBuffer;
    o.max_bytes_for_level_base = 4 * kWriteBuffer;
    o.block_cache_size = spec_.block_cache;
    o.bloom_filter_bits_per_key = 10;
    o.listeners.push_back(events_);
    return lsm::DB::Open(o, kDbName, &db_);
  }
  void Close() { db_.reset(); }

  void Put(uint64_t i, OpLog* log) {
    const uint32_t v = versions_[i].load(std::memory_order_relaxed) + 1;
    const std::string key = Key(i);
    std::string value;
    MakeValue(i, v, &value);
    const uint64_t start = NowNanos();
    Status s;
    {
      SpanScope span("lsm.put", true);
      s = db_->Put(lsm::WriteOptions(), key, value);
    }
    log->put.push_back(Clamp32(NowNanos() - start));
    log->ops++;
    log->user_bytes += kEntryBytes;
    if (s.ok()) {
      versions_[i].store(v, std::memory_order_release);
    } else {
      log->failed++;
    }
  }

  void Get(uint64_t i, bool missing, OpLog* log) {
    const std::string key = missing ? MissingKey(i) : Key(i);
    const uint32_t lo = missing ? 0 : versions_[i].load(std::memory_order_acquire);
    const uint64_t reads = ProbeEnv::ThreadSstReads();
    std::string value;
    const uint64_t start = NowNanos();
    Status s;
    {
      SpanScope span("lsm.get", true);
      s = db_->Get(lsm::ReadOptions(), key, &value);
    }
    log->get.push_back(Clamp32(NowNanos() - start));
    log->ops++;
    const uint64_t sst_reads = ProbeEnv::ThreadSstReads() - reads;
    if (missing) {
      log->missing_gets++;
      log->missing_sst_reads += sst_reads;
      if (!s.IsNotFound()) log->failed++;
      return;
    }
    log->gets++;
    log->get_sst_reads += sst_reads;
    if (!s.ok() || !InRange(i, lo, ValueVersion(i, value))) log->failed++;
  }

  // Seek to key i and read kScanLength entries; all keys are loaded and
  // never deleted, so they must be keys i, i+1, ... in order.
  void Scan(uint64_t i, OpLog* log) {
    const int want =
        static_cast<int>(std::min<uint64_t>(kScanLength, kKeys - i));
    uint32_t lo[kScanLength];
    for (int j = 0; j < want; j++) {
      lo[j] = versions_[i + j].load(std::memory_order_acquire);
    }
    const std::string target = Key(i);
    std::string keys[kScanLength], values[kScanLength];
    int got = 0;
    const uint64_t start = NowNanos();
    Status s;
    {
      SpanScope span("lsm.scan", true);
      auto it = db_->NewIterator(lsm::ReadOptions());
      for (it->Seek(target); it->Valid() && got < kScanLength; it->Next()) {
        keys[got].assign(it->key().data(), it->key().size());
        values[got].assign(it->value().data(), it->value().size());
        got++;
      }
      s = it->status();
    }
    log->scan.push_back(Clamp32(NowNanos() - start));
    log->ops++;
    bool ok = s.ok() && got == want;
    for (int j = 0; ok && j < got; j++) {
      ok = keys[j] == Key(i + j) &&
           InRange(i + j, lo[j], ValueVersion(i + j, values[j]));
    }
    if (!ok) log->failed++;
  }

  // Set-up: load every key once in random order, settle, compact the
  // whole range so the tree has the same shape on every run, settle.
  Status Load(uint64_t seed, OpLog* log) {
    std::vector<uint64_t> order(kKeys);
    for (uint64_t i = 0; i < kKeys; i++) order[i] = i;
    elmo::Random64 rng(seed);
    for (uint64_t i = kKeys; i > 1; i--) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (uint64_t i : order) Put(i, log);
    Status s = db_->WaitForBackgroundWork();
    if (s.ok()) s = db_->CompactRange(nullptr, nullptr);
    if (s.ok()) s = db_->WaitForBackgroundWork();
    if (s.ok() && spec_.warm) {
      for (uint64_t i = 0; i < kKeys; i++) Get(i, false, log);
    }
    return s;
  }

  // Closed loop of client c until `deadline`.
  void Client(int c, uint64_t seed, uint64_t deadline, OpLog* log) {
    elmo::Random64 rng(seed * 1000003 + c);
    std::unique_ptr<bench::ZipfianGenerator> zipf;
    if (spec_.zipf > 0) {
      zipf = std::make_unique<bench::ZipfianGenerator>(kKeys, spec_.zipf,
                                                       rng.Next());
    }
    auto pick = [&] { return zipf ? zipf->Next() : rng.Uniform(kKeys); };
    const uint64_t clients = spec_.clients;
    std::vector<uint64_t> pass;  // owned keys, shuffled per pass
    size_t pass_pos = 0;
    if (spec_.put_passes) {
      for (uint64_t i = c; i < kKeys; i += clients) pass.push_back(i);
      pass_pos = pass.size();
    }
    while (NowNanos() < deadline) {
      const double r = rng.NextDouble();
      if (r < spec_.put) {
        uint64_t i;
        if (spec_.put_passes) {
          if (pass_pos == pass.size()) {
            for (size_t k = pass.size(); k > 1; k--) {
              std::swap(pass[k - 1], pass[rng.Uniform(k)]);
            }
            pass_pos = 0;
          }
          i = pass[pass_pos++];
        } else {
          i = pick();
          i = i - i % clients + c;
          if (i >= kKeys) i -= clients;
        }
        Put(i, log);
      } else if (r < spec_.put + spec_.get) {
        Get(pick(), rng.NextDouble() < spec_.missing, log);
      } else {
        Scan(pick(), log);
      }
    }
  }

  // The read-back check: every key and a tenth of the missing keys by
  // Get, then scans starting at every fifth key, against the final
  // state (enough scans for a steady p99).
  void CheckGets(OpLog* log) {
    settled_ = true;
    for (uint64_t i = 0; i < kKeys; i++) Get(i, false, log);
    for (uint64_t i = 0; i < kKeys; i += 10) Get(i, true, log);
  }
  void CheckScans(OpLog* log) {
    for (uint64_t i = 0; i < kKeys; i += 5) Scan(i, log);
  }

  // Block-cache hits and misses so far.
  std::pair<uint64_t, uint64_t> CacheCounts() {
    std::string dump;
    db_->GetProperty("elmo.stats", &dump);  // folds the cache's counts in
    const lsm::DbStats& st = db_->stats();
    return {st.Get(lsm::Ticker::kBlockCacheHit),
            st.Get(lsm::Ticker::kBlockCacheMiss)};
  }

  lsm::DB* db() { return db_.get(); }
  ProbeEnv& env() { return env_; }
  const EventCounter& events() const { return *events_; }

 private:
  // While several clients run, a Get may see a Put that is applied but
  // not yet recorded as acknowledged, one version ahead.
  bool InRange(uint64_t i, uint32_t lo, uint32_t v) const {
    const uint32_t hi = versions_[i].load(std::memory_order_acquire) +
                        (spec_.clients > 1 && !settled_ ? 1 : 0);
    return v >= std::max<uint32_t>(lo, 1) && v <= hi;
  }

  const EngineSpec spec_;
  elmo::MemEnv mem_;
  ProbeEnv env_;
  std::shared_ptr<EventCounter> events_;
  std::unique_ptr<std::atomic<uint32_t>[]> versions_;
  bool settled_ = false;  // the clients have stopped
  std::unique_ptr<lsm::DB> db_;
};

// One round: a fresh DB is set up, serves the timed phase, then is
// checked. The counters cover the whole round.
struct Round {
  double setup_s = 0, timed_s = 0;
  OpLog load, timed, check;
  uint64_t load_appended = 0, timed_appended = 0;
  uint64_t live_bytes = 0;
  bool error = false;
  FileTotals files[static_cast<int>(FileKind::kCount)];
  BgTotals bg;
  uint64_t flushes = 0, flush_us = 0, flush_bytes = 0;
  uint64_t compactions = 0, compaction_us = 0, compaction_in = 0,
           compaction_out = 0, trivial_moves = 0, stalls = 0;
  uint64_t stall_us = 0;
  // Block-cache hits and misses over the phase whose Gets feed the get
  // metrics (the timed phase, else the check's Gets).
  uint64_t cache_hits = 0, cache_misses = 0;

  double ops_per_s() const {
    return timed_s > 0 ? static_cast<double>(timed.ops) / timed_s : 0;
  }
  uint64_t attempted() const { return load.ops + timed.ops + check.ops; }
  uint64_t failed() const {
    return load.failed + timed.failed + check.failed;
  }
  double write_amp(const EngineSpec& s) const {
    return s.put > 0 ? WriteAmp(timed_appended, timed.user_bytes)
                     : WriteAmp(load_appended, load.user_bytes);
  }

  // Adds up the samples and counters of `o`; live_bytes becomes o's.
  void Add(const Round& o) {
    setup_s += o.setup_s;
    timed_s += o.timed_s;
    load.Merge(o.load);
    timed.Merge(o.timed);
    check.Merge(o.check);
    load_appended += o.load_appended;
    timed_appended += o.timed_appended;
    live_bytes = o.live_bytes;
    error |= o.error;
    for (int k = 0; k < static_cast<int>(FileKind::kCount); k++) {
      files[k] += o.files[k];
    }
    bg.jobs += o.bg.jobs;
    bg.busy_ns += o.bg.busy_ns;
    bg.queue_wait_ns.insert(bg.queue_wait_ns.end(), o.bg.queue_wait_ns.begin(),
                            o.bg.queue_wait_ns.end());
    flushes += o.flushes;
    flush_us += o.flush_us;
    flush_bytes += o.flush_bytes;
    compactions += o.compactions;
    compaction_us += o.compaction_us;
    compaction_in += o.compaction_in;
    compaction_out += o.compaction_out;
    trivial_moves += o.trivial_moves;
    stalls += o.stalls;
    stall_us += o.stall_us;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
  }
};

Round RunRound(const EngineSpec& spec, uint64_t seed, double seconds,
               bool traced) {
  Round out;
  SetTracing(traced);
  const uint64_t setup_start = NowNanos();
  auto e = std::make_unique<Engine>(spec);
  Status s = e->Open();
  if (s.ok()) s = e->Load(seed, &out.load);
  out.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  if (!s.ok()) {
    fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    out.error = true;
    SetTracing(false);
    return out;
  }
  out.load_appended = e->env().AppendedBytes();
  const auto cache0 = e->CacheCounts();

  std::vector<OpLog> logs(spec.clients);
  std::vector<std::thread> clients;
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (int c = 0; c < spec.clients; c++) {
    clients.emplace_back([&, c] { e->Client(c, seed, deadline, &logs[c]); });
  }
  for (auto& t : clients) t.join();
  // Deferred background work belongs to the phase that caused it.
  s = e->db()->WaitForBackgroundWork();
  out.timed_s = static_cast<double>(NowNanos() - start) / 1e9;
  out.timed_appended = e->env().AppendedBytes() - out.load_appended;
  for (const auto& l : logs) out.timed.Merge(l);
  out.live_bytes = e->env().LiveBytes(kDbName);
  const auto cache1 = e->CacheCounts();
  // The check reads a fully compacted tree, so its Gets and scans see
  // the same shape on every run whatever compaction had reached.
  if (s.ok() && spec.put > 0) s = e->db()->CompactRange(nullptr, nullptr);
  if (s.ok()) s = e->db()->WaitForBackgroundWork();
  const auto cache2 = e->CacheCounts();
  e->CheckGets(&out.check);
  const auto cache3 = e->CacheCounts();
  e->CheckScans(&out.check);
  SetTracing(false);
  if (!s.ok()) {
    fprintf(stderr, "background work failed: %s\n", s.ToString().c_str());
    out.error = true;
  }
  const auto& [from, to] = spec.get > 0 ? std::make_pair(cache0, cache1)
                                        : std::make_pair(cache2, cache3);
  out.cache_hits = to.first - from.first;
  out.cache_misses = to.second - from.second;
  out.stall_us = e->db()->stats().Get(lsm::Ticker::kWriteStallMicros);
  e->Close();
  for (int k = 0; k < static_cast<int>(FileKind::kCount); k++) {
    out.files[k] = e->env().Totals(static_cast<FileKind>(k));
  }
  out.bg = e->env().Background();
  const EventCounter& ev = e->events();
  out.flushes = ev.flushes;
  out.flush_us = ev.flush_us;
  out.flush_bytes = ev.flush_bytes;
  out.compactions = ev.compactions;
  out.compaction_us = ev.compaction_us;
  out.compaction_in = ev.compaction_in;
  out.compaction_out = ev.compaction_out;
  out.trivial_moves = ev.trivial_moves;
  out.stalls = ev.stalls;
  return out;
}

struct SessionOut {
  std::vector<double> wall_s;
  std::string signature;  // outcome of the first session
  double gain = 0;
  int kept = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t llm_calls = 0, llm_busy_ns = 0, prompt_bytes = 0;
};

elmo::HardwareProfile Figure4Hardware() {
  return elmo::HardwareProfile::Make(2, 4, elmo::DeviceModel::NvmeSsd());
}

bench::WorkloadSpec Seeded(const SessionSpec& s, uint64_t seed) {
  bench::WorkloadSpec spec = s.spec;
  spec.seed = seed;
  return spec;
}

// Runs the tuning loop once and adds it to `out`. Every session of a
// run has the same seed and its outcome must repeat exactly (SimEnv is
// deterministic); a non-OK LLM call, an empty benchmark run or a
// differing outcome counts as failed.
void RunSession(const SessionSpec& ss, uint64_t seed, SessionOut* out) {
  bench::BenchRunner runner(Figure4Hardware(), seed);
  elmo::llm::ExpertConfig config;
  config.seed = kLlmSeed;
  elmo::llm::SimulatedExpertLlm expert(config);
  CountingLlm llm(&expert);
  elmo::tune::TuningConfig tc;
  tc.max_iterations = ss.iterations;
  const uint64_t start = NowNanos();
  elmo::tune::TuningOutcome o;
  {
    SpanScope span("elmo.session");
    o = elmo::tune::TuningSession(&runner, &llm, Seeded(ss, seed), tc).Run();
  }
  out->wall_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);

  out->attempted += llm.calls + 1 + o.iterations.size();
  out->failed += llm.failures + (o.baseline.ops == 0);
  char gain[32];
  snprintf(gain, sizeof(gain), "%.17g|", o.ThroughputGain());
  std::string signature = gain;
  int kept = 0;
  for (const auto& it : o.iterations) {
    out->failed += it.result.ops == 0;
    kept += it.kept;
    signature += it.kept ? 'k' : 'r';
  }
  signature += o.final_options_file;
  if (out->wall_s.size() == 1) {
    out->signature = signature;
    out->gain = o.ThroughputGain();
    out->kept = kept;
  } else if (signature != out->signature) {
    fprintf(stderr, "tuning outcome differs between same-seed sessions\n");
    out->failed++;
  }
  out->llm_calls += llm.calls;
  out->llm_busy_ns += llm.busy_ns;
  out->prompt_bytes += llm.prompt_bytes;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

json::Value Int(uint64_t n) { return json::Value(static_cast<int64_t>(n)); }

// Where each op type is measured: in the timed phase when the workload
// issues it, otherwise Puts in the set-up load and Gets and scans in the
// check.
struct OpSource {
  const char* name;
  double EngineSpec::*share;
  OpLog Round::*elsewhere;
  const char* elsewhere_phase;
  std::vector<uint32_t> OpLog::*samples;
};
const OpSource kOpSources[] = {
    {"put", &EngineSpec::put, &Round::load, "load", &OpLog::put},
    {"get", &EngineSpec::get, &Round::check, "check", &OpLog::get},
    {"scan", &EngineSpec::scan, &Round::check, "check", &OpLog::scan},
};

// Adds `<op>_p50_us` or `<op>_p99_us` for each op type: the mean over
// rounds of the round's percentile, noting the percentile used, the
// smallest round's sample count and the phase measured.
void AddLatencies(double want, const std::vector<Round>& rounds,
                  const EngineSpec& spec, RunResult* r) {
  for (const OpSource& op : kOpSources) {
    const bool timed = spec.*op.share > 0;
    const std::string name =
        std::string(op.name) + (want == 50.0 ? "_p50_us" : "_p99_us");
    std::vector<double> values;
    double pct = want;
    uint64_t samples = UINT64_MAX;
    for (const Round& rd : rounds) {
      const OpLog& log = timed ? rd.timed : rd.*op.elsewhere;
      std::vector<uint32_t> sorted = log.*op.samples;
      std::sort(sorted.begin(), sorted.end());
      const Percentile p = PickPercentile(sorted, want);
      values.push_back(p.value / 1000.0);
      pct = std::min(pct, p.pct);
      samples = std::min(samples, p.count);
    }
    if (pct == 0) r->correct = false;  // too few samples to report
    r->metrics.push_back({name, Mean(values), "us"});
    r->detail[name] = json::Object{
        {"percentile", pct},
        {"samples_per_round", Int(samples)},
        {"phase", timed ? "timed" : op.elsewhere_phase},
        {"rounds", json::Array(values.begin(), values.end())}};
  }
}

// Median self time of the spans named `name`, and the sums that show
// self time plus child Env time accounting for the whole span.
double SelfMedianUs(const std::vector<Span>& spans,
                    const std::vector<uint64_t>& self, const char* name,
                    const std::vector<uint32_t>& op_ns,
                    json::Object* accounting) {
  std::vector<double> v;
  double span_ns = 0, self_ns = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    if (strcmp(spans[i].name, name) != 0) continue;
    v.push_back(static_cast<double>(self[i]));
    span_ns += static_cast<double>(spans[i].duration());
    self_ns += static_cast<double>(self[i]);
  }
  const double n = static_cast<double>(std::max<size_t>(v.size(), 1));
  (*accounting)[name] = json::Object{{"spans", Int(v.size())},
                                     {"span_us_mean", span_ns / n / 1000},
                                     {"self_us_mean", self_ns / n / 1000},
                                     {"env_us_mean",
                                      (span_ns - self_ns) / n / 1000},
                                     {"op_latency_us_mean",
                                      Ratio(std::accumulate(op_ns.begin(),
                                                            op_ns.end(), 0.0),
                                            op_ns.size()) /
                                          1000}};
  return Median(v) / 1000.0;
}

void EndToEnd(const Workload& w, const RunOptions& opt, RunResult* r) {
  const EngineSpec& spec = w.engine;
  std::vector<Round> rounds;
  SessionOut s;
  // Peak RSS is read once the first round and session are done, before
  // the allocator's history of earlier rounds can add to it.
  double rss_mb = 0;
  for (int i = 0; i < kRounds; i++) {
    rounds.push_back(RunRound(spec, opt.seed, opt.seconds / kRounds, false));
    if (i % 4 == 0) RunSession(w.session, opt.seed, &s);
    if (i == 0) rss_mb = PeakRssMb();
  }
  r->attempted = s.attempted;
  r->failed = s.failed;
  std::vector<double> setup, ops, wamp, samp;
  for (const Round& rd : rounds) {
    if (rd.error) r->correct = false;
    r->attempted += rd.attempted();
    r->failed += rd.failed();
    setup.push_back(rd.setup_s);
    ops.push_back(rd.ops_per_s());
    wamp.push_back(rd.write_amp(spec));
    samp.push_back(Ratio(rd.live_bytes, kKeys * kEntryBytes));
  }
  r->metrics.push_back({"setup_s", Median(setup), "s"});
  r->metrics.push_back({"ops_per_s", Mean(ops), "ops/s"});
  AddLatencies(50, rounds, spec, r);
  r->metrics.push_back({"write_amp", Median(wamp), "ratio"});
  // With writers in the timed phase, a round's space_amp takes one of two
  // values (on kv_mixed ~1.7 and ~2.3), the higher in rounds that wrote
  // more, so a median would flip with the share of each; the mean moves
  // with the share.
  r->metrics.push_back({"space_amp", Mean(samp), "ratio"});
  r->metrics.push_back({"peak_rss_mb", rss_mb, "MiB"});
  r->metrics.push_back({"tune_session_s", Mean(s.wall_s), "s"});
  r->metrics.push_back({"tuned_gain", s.gain, "ratio"});

  r->detail["setup_s"] = json::Array(setup.begin(), setup.end());
  r->detail["ops_per_s"] = json::Array(ops.begin(), ops.end());
  r->detail["write_amp"] = json::Array(wamp.begin(), wamp.end());
  r->detail["space_amp"] = json::Array(samp.begin(), samp.end());
  r->detail["tune_session_s"] = json::Array(s.wall_s.begin(), s.wall_s.end());
  r->detail["failed_frac"] = Ratio(r->failed, r->attempted);
  r->detail["peak_rss_mb_whole_run"] = PeakRssMb();
}

// The traced run alternates untraced and traced rounds. The latency
// tails come from the untraced ones; the layer figures add up the
// traced ones.
void PerLayer(const Workload& w, const RunOptions& opt, RunResult* r) {
  const EngineSpec& spec = w.engine;
  constexpr int kPairs = 3;
  const double slice = opt.seconds / (2 * kPairs);
  ClearSpans();
  std::vector<Round> untraced;
  Round e;
  for (int i = 0; i < kPairs; i++) {
    untraced.push_back(RunRound(spec, opt.seed, slice, false));
    const Round t = RunRound(spec, opt.seed, slice, true);
    const Round& b = untraced.back();
    r->attempted += b.attempted() + t.attempted();
    r->failed += b.failed() + t.failed();
    if (b.error) r->correct = false;
    e.Add(t);
  }
  AddLatencies(99, untraced, spec, r);
  const KernelRows k = MeasureKernels(opt.seed);
  SessionOut s;
  SetTracing(true);
  RunSession(w.session, opt.seed, &s);
  // A standalone run of the session's spec on default options: what
  // every BenchRunner::Run inside the loop costs.
  bench::BenchResult br;
  double run_s = 0;
  {
    bench::BenchRunner runner(Figure4Hardware(), opt.seed);
    const uint64_t start = NowNanos();
    SpanScope span("bench_kit.run");
    br = runner.Run(Seeded(w.session, opt.seed), lsm::Options());
    run_s = static_cast<double>(NowNanos() - start) / 1e9;
  }
  SetTracing(false);
  if (e.error || br.ops == 0) r->correct = false;
  r->attempted += s.attempted + 1;
  r->failed += s.failed + (br.ops == 0);

  uint64_t dropped = 0;
  const std::vector<Span> spans = CollectSpans(&dropped);
  const OpScopeCounts scopes = CountOpScopes();
  const std::vector<uint64_t> self = SelfTimes(spans);
  OpLog all = e.load;
  all.Merge(e.timed);
  all.Merge(e.check);
  json::Object accounting;
  auto add = [&](const char* name, double v, const char* unit) {
    r->metrics.push_back({name, v, unit});
  };
  add("lsm.put.self_us",
      SelfMedianUs(spans, self, "lsm.put", all.put, &accounting), "us");
  add("lsm.get.self_us",
      SelfMedianUs(spans, self, "lsm.get", all.get, &accounting), "us");
  add("lsm.scan.self_us",
      SelfMedianUs(spans, self, "lsm.scan", all.scan, &accounting), "us");
  add("lsm.stall.count", e.stalls, "count");
  add("lsm.stall.wait_s", e.stall_us / 1e6, "s");
  add("lsm.flush.count", e.flushes, "count");
  add("lsm.flush.busy_s", e.flush_us / 1e6, "s");
  add("lsm.flush.out_mb", Mib(e.flush_bytes), "MiB");
  add("lsm.compaction.count", e.compactions, "count");
  add("lsm.compaction.busy_s", e.compaction_us / 1e6, "s");
  add("lsm.compaction.in_mb", Mib(e.compaction_in), "MiB");
  add("lsm.compaction.out_mb", Mib(e.compaction_out), "MiB");
  add("lsm.compaction.trivial_moves", e.trivial_moves, "count");

  const FileTotals& wal = e.files[static_cast<int>(FileKind::kWal)];
  const FileTotals& sst = e.files[static_cast<int>(FileKind::kSst)];
  uint64_t syncs = 0;
  for (const auto& f : e.files) syncs += f.sync_calls;
  add("env.wal.append_calls", wal.append_calls, "count");
  add("env.wal.append_mb", Mib(wal.append_bytes), "MiB");
  add("env.wal.append_us", Ratio(wal.append_ns / 1e3, wal.append_calls), "us");
  add("env.sync.calls", syncs, "count");
  add("env.sst.write_mb", Mib(sst.append_bytes), "MiB");
  add("env.sst.write_s", sst.append_ns / 1e9, "s");
  add("env.live_mb", Mib(e.live_bytes), "MiB");
  add("env.sst.reads_per_get", Ratio(all.get_sst_reads, all.gets), "ratio");
  add("env.sst.reads_per_missing_get",
      Ratio(all.missing_sst_reads, all.missing_gets), "ratio");
  add("env.sst.read_us", Ratio(sst.read_ns / 1e3, sst.read_calls), "us");
  std::vector<uint32_t> waits = e.bg.queue_wait_ns;
  std::sort(waits.begin(), waits.end());
  const Percentile wait99 = PickPercentile(waits, 99);
  r->detail["env.bg.queue_wait_us_p99"] =
      json::Object{{"percentile", wait99.pct}, {"samples", Int(wait99.count)}};
  add("env.bg.jobs", e.bg.jobs, "count");
  add("env.bg.queue_wait_us_p99", wait99.value / 1e3, "us");
  add("env.bg.busy_s", e.bg.busy_ns / 1e9, "s");

  const double lookups = static_cast<double>(e.cache_hits + e.cache_misses);
  const OpLog& getters = spec.get > 0 ? e.timed : e.check;
  add("table.cache.hit_ratio", Ratio(e.cache_hits, lookups), "ratio");
  add("table.cache.lookups_per_get",
      Ratio(lookups, getters.gets + getters.missing_gets), "ratio");
  add("table.cache.lookup_ns", k.cache_lookup_ns, "ns");
  add("table.bloom.probe_ns", k.bloom_probe_ns, "ns");
  add("table.block.seek_ns", k.block_seek_ns, "ns");

  add("llm.complete.calls", s.llm_calls, "count");
  add("llm.complete.busy_s", s.llm_busy_ns / 1e9, "s");
  add("bench_kit.run.wall_s", run_s, "s");
  add("bench_kit.run.sim_ops_per_s", br.ops_per_sec, "ops/s");
  const size_t evidence =
      br.io_breakdown.size() + br.cache_sim_summary.size() +
      br.io_analysis_json.size() + br.cache_sim_json.size() +
      br.span_attribution_summary.size() + br.span_attribution_text.size() +
      br.span_attribution_json.size() + br.perfetto_json.size() +
      br.span_trace.size() + br.health_json.size() + br.health_text.size() +
      br.engine_stats.size() + br.options_changes_json.size();
  add("bench_kit.run.evidence_kb", evidence / 1024.0, "KiB");
  add("elmo.prompt.kb", Ratio(s.prompt_bytes / 1024.0, s.llm_calls), "KiB");
  add("elmo.iterations.kept", s.kept, "count");
  // Tracing cost on the operations' own path: the wrapper scopes opened
  // inside them, each at its cost measured in a loop, against the time
  // the traced operations would have taken without it.
  const ScopeCost cost = MeasureScopeCost();
  const double trace_ns =
      static_cast<double>(scopes.recorded) * cost.recorded_ns +
      static_cast<double>(scopes.scopes - scopes.recorded) * cost.skipped_ns;
  double op_ns = 0;
  for (const auto* v : {&all.put, &all.get, &all.scan}) {
    op_ns += std::accumulate(v->begin(), v->end(), 0.0);
  }
  add("trace.overhead_frac", Ratio(trace_ns, op_ns - trace_ns), "ratio");
  r->detail["trace.overhead_frac"] = json::Object{
      {"recorded_scope_ns", cost.recorded_ns},
      {"skipped_scope_ns", cost.skipped_ns},
      {"scopes_per_op", Ratio(scopes.scopes, all.ops)},
      {"recorded_per_op", Ratio(scopes.recorded, all.ops)}};
  add("failed_frac", Ratio(r->failed, r->attempted), "ratio");

  r->detail["op_accounting"] = accounting;
  r->detail["spans"] = Int(spans.size());
  r->detail["spans_dropped"] = Int(dropped);
  if (!opt.spans_out.empty() && !WriteSpans(spans, opt.spans_out)) {
    fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, w] : Workloads()) v.push_back(name);
    return v;
  }();
  return names;
}

RunResult RunWorkload(const RunOptions& opt) {
  const Workload& w = Workloads().at(opt.workload);
  RunResult r;
  const EngineSpec& spec = w.engine;
  r.detail["workload"] = opt.workload;
  r.detail["seed"] = Int(opt.seed);
  r.detail["clients"] = spec.clients;
  r.detail["flush_policy"] = kFlushPolicy;
  r.detail["user_data_mb"] = Mib(kKeys * kEntryBytes);
  r.detail["block_cache_mb"] = Mib(spec.block_cache);
  r.detail["data_to_cache"] =
      static_cast<double>(kKeys * kEntryBytes) / spec.block_cache;
  r.detail["session"] = w.session.spec.Describe();
  if (opt.traced) {
    PerLayer(w, opt, &r);
  } else {
    EndToEnd(w, opt, &r);
  }
  if (r.failed > 0) r.correct = false;
  return r;
}

}  // namespace perfbench
