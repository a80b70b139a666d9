// DBImpl: the engine behind DB. One DB mutex (mu_) in the leveldb
// lineage guards the engine state, with two execution modes:
//
//  * real envs (Posix/Mem): flushes and compactions run on Env thread
//    pools; writers wait on a condition variable during stalls.
//  * SimEnv: background jobs run inline under a job meter and are
//    assigned virtual completion times on core lanes; writers stall
//    against VirtualStallState and jump the virtual clock forward.
//
// Writers commit in groups. Each Write queues a stack Writer under mu_
// (writers_); the front writer leads. The leader runs MakeRoomForWrite
// once, merges the batches queued behind it into one group (same
// disable_wal, no sync writer behind a non-sync leader, size-capped),
// assigns the group's sequence, and releases mu_. Off the mutex it
// appends one WAL record (syncing once if the leader asked) and inserts
// the group into mem_. It then relocks, records a WAL failure as a
// background error (every member gets the same status and nothing of
// the group becomes visible) or sets LastSequence and publishes the
// visible sequence, ticks the sampler once, marks the members done and
// makes the next queued writer the leader. Each writer keeps its own
// accounting (tickers, write latency, PerfContext, modelled CPU); the
// leader writes the members' op-trace records in sequence order.
//
// Only the front writer may switch mem_ or the WAL, so they never
// change under a leader that is working off the mutex. FlushMemTable
// and shutdown enter the queue as exclusive writers with no batch and
// are never grouped. The WAL roll in ResumeImpl does not queue, since
// its caller may be the recovery thread that a soft-stalled front
// writer waits for. It needs no queue entry: a WAL error is recorded by
// a leader after it relocks, and MakeRoomForWrite admits no group while
// any error is pending, so no group is in flight while a WAL error
// waits for its roll.
//
// A queued writer waits on its own atomic state: it spins a bounded
// number of pause instructions (about 15 us) and then blocks on its own
// condition variable, so a follower whose group finishes quickly never
// sleeps, and a finished follower never touches mu_ again. The leader
// dequeues its group under mu_ and wakes the members and the next
// leader after releasing it.
//
// Readers stay off mu_. Whenever mem_, imm_ or the current Version
// changes (memtable switch, flush install, every successful
// LogAndApply), the change republishes an immutable, ref-counted
// SuperVersion under mu_; a write group publishes the last visible
// sequence after its memtable insert. Get, iterators and
// GetApproximateSizes load the view first and the sequence second: a
// sequence read before the view could be older than versions a
// compaction in that view has already dropped. A reader takes mu_ only
// for a due sampler tick or while a background error is pending (the
// auto-resume piggyback).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/io_tracing_env.h"
#include "env/sim_env.h"
#include "env/space_monitor.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/error_handler.h"
#include "lsm/event_listener.h"
#include "lsm/info_logger.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/span.h"
#include "lsm/stats_sampler.h"
#include "lsm/trace.h"
#include "lsm/version_set.h"
#include "lsm/virtual_stall.h"
#include "monitor/health_monitor.h"
#include "util/rate_limiter.h"

namespace elmo::lsm {

class SnapshotImpl : public Snapshot {
 public:
  explicit SnapshotImpl(SequenceNumber seq) : sequence(seq) {}
  const SequenceNumber sequence;
};

// One consistent read view: every source a read consults, captured
// together under the DB mutex. Immutable once published; readers share
// it by reference count, so it keeps its memtables and Version (and
// through it the SST files) alive for as long as a Get or iterator
// uses it.
struct SuperVersion {
  std::shared_ptr<MemTable> mem;
  std::vector<std::shared_ptr<MemTable>> imms;  // newest first
  std::shared_ptr<Version> version;
};

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);
  ~DBImpl() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  void GetApproximateSizes(const Range* ranges, int n,
                           uint64_t* sizes) override;
  Status FlushMemTable() override;
  Status WaitForBackgroundWork() override;
  Status Resume() override;
  Status StartTrace(TraceKind kind, const std::string& path,
                    const SpanTraceOptions& span_options) override;
  Status EndTrace(TraceKind kind) override;
  Status SetOptions(
      const std::map<std::string, std::string>& changes) override;
  const DbStats& stats() const override { return stats_; }
  const Options& options() const override { return options_; }

 private:
  friend class DB;

  struct ImmEntry {
    std::shared_ptr<MemTable> mem;
    uint64_t log_number;  // WAL file holding this memtable's data
  };

  struct CompactionOutput {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest, largest;
  };

  // --- open/recovery ---
  Status Recover();
  Status NewDBFiles();
  Status RecoverLogFile(uint64_t log_number, SequenceNumber* max_sequence);
  Status SwitchToNewLog();

  // --- write path (see the header comment) ---
  struct Writer;  // one queued Write, or an exclusive writer (no batch)
  // Queue `w` and wait until a leader has finished it or it is at the
  // front. Returns true at the front, with `l` holding mu_; false once
  // done, with `l` released. REQUIRES: `l` holds mu_.
  bool JoinWriteQueue(Writer* w, std::unique_lock<std::mutex>& l);
  // Merge the batches of the writers queued behind the leader into one
  // group; sets *last_writer to the last member. A group of one is the
  // leader's own batch. REQUIRES: mu_, called by the front writer.
  WriteBatch* BuildBatchGroup(Writer** last_writer);
  // Dequeue the front writer through `last` and release mu_; then finish
  // every member other than `self` with `s` and make the next queued
  // writer the leader. REQUIRES: `l` holds mu_, `self` is the front
  // writer. Returns with `l` released.
  void FinishWriteGroup(Writer* self, Writer* last, const Status& s,
                        std::unique_lock<std::mutex>& l);
  // The group's WAL append and the sync policy. Runs off mu_ with the
  // policy captured under it; sets *sync_failed when the append worked
  // and the sync did not.
  Status AppendToWal(const WriteBatch& group, bool sync,
                     uint64_t bytes_per_sync, bool strict_bytes_per_sync,
                     bool* sync_failed);
  // One writer's per-batch accounting once its group's outcome is known.
  void RecordWrite(const Writer& w, SpanScope* span);
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& l);
  int ImmCountForStall();     // virtual count under sim, real otherwise
  int L0CountForStall();

  // --- background: scheduling ---
  void MaybeScheduleFlush();       // REQUIRES: mu_
  void MaybeScheduleCompaction();  // REQUIRES: mu_
  void BackgroundFlushCall();      // thread-pool entry
  void BackgroundCompactionCall();

  // --- background: the work ---
  // Flush every queued immutable memtable into one L0 table. Fills
  // `info` (everything except duration_micros, which the caller owns)
  // and fires OnFlushBegin; the caller fires OnFlushCompleted once it
  // knows the job duration. On failure `err_source` says which layer
  // failed (the table build vs the MANIFEST apply) so the error handler
  // classifies it correctly.
  Status FlushWork(FlushJobInfo* info, BackgroundErrorSource* err_source);
  // Same contract for compactions: the caller presets info->reason and
  // fires OnCompactionCompleted with the duration.
  Status CompactionWork(std::unique_ptr<Compaction> c, int* l0_consumed,
                        int* l0_produced,
                        std::vector<uint64_t>* output_numbers,
                        CompactionJobInfo* info,
                        BackgroundErrorSource* err_source);
  Status WriteLevel0Table(const std::vector<std::shared_ptr<MemTable>>& mems,
                          VersionEdit* edit, FileMetaData* meta);
  Status OpenCompactionOutputFile(std::unique_ptr<WritableFile>* file,
                                  uint64_t* number);

  // Sim-mode drivers (run jobs inline under the meter).
  void RunFlushSim();        // REQUIRES: mu_
  void RunCompactionsSim();  // REQUIRES: mu_

  void RemoveObsoleteFiles();  // REQUIRES: mu_

  // --- background-error handling & self-healing (see error_handler.h) ---
  // Classify a background failure into the error state machine, bump the
  // severity tickers, fire OnBackgroundError, and wake stalled writers.
  // Aborted statuses during shutdown are ignored (orderly teardown, not
  // an error). REQUIRES: mu_.
  void RecordBackgroundError(BackgroundErrorSource source, const Status& s);
  // One recovery attempt (auto-resume retry or manual DB::Resume()):
  // repair per source/kind — recheck free space for NoSpace, switch to a
  // fresh WAL for WAL errors, force a fresh MANIFEST for manifest
  // errors — then clear the state and reschedule paused flushes and
  // compactions. On failure, backs off or escalates. REQUIRES: mu_.
  Status ResumeImpl(bool manual);
  // Run ResumeImpl if an auto-resume retry is due on the engine clock.
  // Piggybacked on foreground call sites (the only clock observer under
  // SimEnv); the recovery thread drives it under real envs.
  // REQUIRES: mu_.
  void MaybeResumeLocked();
  // True (and records a soft NoSpace pause) when the free-space monitor
  // says the headroom reserve is violated. REQUIRES: mu_.
  bool SpaceLowLocked(BackgroundErrorSource source);
  // Lazily start the real-env recovery thread. REQUIRES: mu_.
  void StartRecoveryThreadLocked();
  void RecoveryThreadLoop();
  // Advance the sim clock past every scheduled background completion so
  // the virtual stall counters drain. REQUIRES: mu_; sim mode only.
  void SettleVirtualClockLocked();
  void NotifyBackgroundError(const BackgroundErrorInfo& info);
  void NotifyErrorRecoveryBegin(const BackgroundErrorInfo& info);
  void NotifyErrorRecoveryCompleted(const BackgroundErrorInfo& info);

  SequenceNumber SmallestSnapshot() const;  // REQUIRES: mu_

  // Publish a new SuperVersion from mem_, imm_ and the current Version.
  // Called at every change to any of the three. REQUIRES: mu_.
  void InstallSuperVersionLocked();
  // The current read view; takes view_mu_, never mu_.
  std::shared_ptr<const SuperVersion> ReadView() const;

  std::unique_ptr<Iterator> NewInternalIterator(const ReadOptions& options,
                                                SequenceNumber* latest_seq);

  // Charge the sim clock for a foreground write/get (no-op on real env).
  void ChargeWriteCpu(size_t batch_bytes, int batch_count);
  void ChargeGetCpu(int files_probed);

  // --- observability ---
  void NotifyFlushBegin(const FlushJobInfo& info);
  void NotifyFlushCompleted(const FlushJobInfo& info);
  void NotifyCompactionBegin(const CompactionJobInfo& info);
  void NotifyCompactionCompleted(const CompactionJobInfo& info);
  // Fires OnStallConditionChanged when `next` differs from the current
  // condition. REQUIRES: mu_.
  void UpdateStallCondition(StallCondition next, StallReason reason,
                            uint64_t wait_micros);
  void NotifyWriteStop(StallReason reason, uint64_t wait_micros);
  // RocksDB-style per-level table (files, bytes, score, read/write amp).
  // REQUIRES: mu_.
  std::string LevelStatsString() const;
  // Record a time-series sample if one is due on the engine clock. Under
  // SimEnv this is the only sampling mechanism: the DB piggybacks it on
  // write/read/background call sites, since no real thread can observe
  // virtual time. REQUIRES: mu_.
  void MaybeSampleLocked();
  // Instantaneous engine state for the sampler / metrics exposition.
  // REQUIRES: mu_.
  EngineGauges GatherGaugesLocked();
  // Fold the block cache's since-last-sync hit/miss deltas into the
  // stats registry tickers. REQUIRES: mu_.
  void SyncCacheStatsLocked();
  // Fold the BufferLogger dropped-line count and the info LOG's write
  // failures into the registry tickers. REQUIRES: mu_.
  void SyncLogStatsLocked();
  // Render the Prometheus exposition for the current state. REQUIRES:
  // mu_.
  std::string RenderPrometheusLocked();
  // Rewrite options_.metrics_export_path (no-op when unset); goes
  // through raw_env_ so exporting never shows up in IO traces.
  // REQUIRES: mu_.
  void ExportMetricsLocked();
  // Real-env sampler thread body (SimEnv never starts the thread).
  void SamplerThreadLoop();
  // The shared core of SetOptions(): validate `changes` against the
  // schema's runtime-mutable subset, apply them to options_, and
  // re-plumb dependent state (cache capacity, limiter rate, background
  // lanes/threads, sampler cadence). `source` tags the LOG event and
  // ledger entry ("set_options" for the public API, "recovery" when
  // replaying the persisted OPTIONS file at open). REQUIRES: mu_.
  Status ApplyDynamicOptionsLocked(
      const std::map<std::string, std::string>& changes,
      const std::string& source);
  void TraceWriteBatch(const WriteBatch& updates, uint64_t ts_us,
                       uint32_t thread_id);

  // --- constant state ---
  Options options_;  // sanitized copy
  const std::string dbname_;
  Env* raw_env_;  // env the user supplied; trace output is written here
  // All engine IO is routed through this decorator (options_.env is
  // repointed at it in the constructor) so the IO trace can observe
  // every file operation. Declared before table_cache_/versions_ so it
  // outlives everything that holds an Env*.
  std::unique_ptr<IOTracingEnv> io_env_;
  Env* env_;     // == io_env_.get()
  SimEnv* sim_;  // non-null iff the raw env is deterministic
  std::shared_ptr<Cache> block_cache_;
  std::shared_ptr<BlockCacheTracer> block_cache_tracer_;
  InternalKeyComparator internal_comparator_;
  std::unique_ptr<TableCache> table_cache_;

  // --- mutable state, guarded by mu_ ---
  std::mutex mu_;
  std::condition_variable bg_work_finished_;
  // Queued writers, front = leader. Stack-allocated by their callers.
  std::deque<Writer*> writers_;
  // The merged batch of a group of more than one; used by the leader
  // only, cleared before it hands off.
  WriteBatch group_batch_;
  // mem_, logfile_, log_ and wal_bytes_since_sync_ change only under mu_
  // while no group is in flight (by the front writer, or by the WAL roll
  // of ResumeImpl); a leader uses them off mu_ while its group is.
  std::shared_ptr<MemTable> mem_;
  std::deque<ImmEntry> imm_;
  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<log::Writer> log_;
  uint64_t wal_bytes_since_sync_ = 0;
  uint64_t wal_live_bytes_ = 0;  // bytes in WALs with unflushed data

  std::unique_ptr<VersionSet> versions_;
  // The read view and the last sequence readers may see. Written under
  // mu_, read without it (see the header comment). view_mu_ guards the
  // pointer alone, so a reader holds it for one reference-count
  // increment. Declared after versions_ so the last view is released
  // before the VersionSet.
  mutable std::mutex view_mu_;
  std::shared_ptr<const SuperVersion> view_;
  std::atomic<SequenceNumber> visible_sequence_{0};
  std::list<SequenceNumber> snapshots_;
  std::set<uint64_t> pending_outputs_;

  int active_flushes_ = 0;
  int active_compactions_ = 0;
  bool manual_compaction_active_ = false;
  // Classified background-error state machine; replaces the old sticky
  // bg_error_ Status. Guarded by mu_.
  ErrorHandler error_handler_;
  // Mirrors !error_handler_.ok() for readers, which take mu_ for the
  // auto-resume piggyback only while it is set.
  std::atomic<bool> bg_error_pending_{false};
  std::atomic<bool> shutting_down_{false};

  // Free-space headroom monitor (null unless
  // options.free_space_reserved_bytes > 0). Guarded by mu_.
  std::unique_ptr<SpaceMonitor> space_monitor_;

  // Write slowdown limiter (delayed_write_rate).
  RateLimiter slowdown_limiter_;

  // Sim-mode state.
  VirtualStallState vstall_;
  bool in_sim_background_ = false;  // re-entrancy guard

  // Current write-path throttle state (for listener transitions).
  StallCondition stall_condition_ = StallCondition::kNormal;

  DbStats stats_;
  // Cache counters already folded into the tickers; guarded by mu_.
  Cache::Stats last_cache_stats_;
  // Logger-loss counters already folded into the tickers; guarded by mu_.
  uint64_t last_info_log_dropped_ = 0;
  uint64_t last_info_log_failures_ = 0;

  // --- observability: time series, structured LOG, trace ---
  std::unique_ptr<StatsSampler> sampler_;  // null unless sampling enabled
  std::shared_ptr<DbInfoLogger> info_event_log_;
  // Live health pipeline (null unless the sampler is on and
  // enable_health_monitor is set); fed from MaybeSampleLocked, read by
  // GetProperty("elmo.health"). Guarded by mu_.
  std::unique_ptr<monitor::HealthMonitor> health_;
  monitor::HealthStatus last_health_status_ = monitor::HealthStatus::kOk;

  // Ledger of applied dynamic option changes, newest last; backs
  // GetProperty("elmo.options_changes"). Bounded drop-oldest. Guarded
  // by mu_.
  struct OptionsChangeRecord {
    uint64_t ts_us = 0;
    std::string source;
    struct Delta {
      std::string name, from, to;
    };
    std::vector<Delta> deltas;
  };
  std::deque<OptionsChangeRecord> options_changes_;

  // Real-env auto-resume thread (SimEnv piggybacks on foreground call
  // sites instead); started lazily on the first recoverable error,
  // joined in the destructor. Polls MaybeResumeLocked on a short
  // cadence — the backoff schedule itself lives in the error handler.
  std::thread recovery_thread_;
  std::mutex recovery_mu_;
  std::condition_variable recovery_cv_;
  bool recovery_stop_ = false;         // guarded by recovery_mu_
  bool recovery_thread_started_ = false;  // guarded by mu_

  // Real-env sampler thread; joined in the destructor before the info
  // LOG closes so no tick outlives the DB.
  std::thread sampler_thread_;
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
  // Sampler cadence the thread sleeps on; atomic so a SetOptions retime
  // is visible without the thread taking mu_ just to read it.
  std::atomic<uint64_t> sampler_interval_ms_{0};

  // Op trace; its active() is the hot-path gate. Like every trace it
  // writes through raw_env_, so its own IO never shows up in the IO
  // trace.
  TraceWriter op_trace_{raw_env_};

  // Slow-op span trace. Iterators hold a stable SpanSink* into it.
  SpanTracer span_tracer_{raw_env_};
  // Global-aggregate totals at DB open; sampler gauges report the
  // difference so span columns are per-run even when several DBs share
  // the process.
  SpanAggregate::Snapshot span_baseline_;
};

}  // namespace elmo::lsm
