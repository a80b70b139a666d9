// Version / VersionSet: the immutable file topology of the tree and the
// machinery that evolves it (manifest logging, recovery, compaction
// picking for both leveled and universal styles).
#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/options.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"
#include "lsm/log_writer.h"

namespace elmo::lsm {

class Compaction;
class VersionSet;

using FileRef = std::shared_ptr<FileMetaData>;

// Binary search for the earliest file whose largest key >= key.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileRef>& files, const Slice& key);

// True iff some file overlaps [smallest_user_key, largest_user_key].
// Null bounds mean "before all" / "after all" keys.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileRef>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

class Version {
 public:
  explicit Version(VersionSet* vset);
  ~Version() = default;

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  struct GetStats {
    int files_probed = 0;
    int hit_level = -1;  // level that resolved the lookup; -1 = none
  };

  Status Get(const ReadOptions& options, const LookupKey& key,
             std::string* value, GetStats* stats);

  // Append the iterators the DB-wide merged iterator reads this Version
  // through: one per L0 file, then one per non-empty deeper level. The
  // level iterators read this Version's file lists, so it must outlive
  // them.
  void AddIterators(const TableIterOptions& iter_opts,
                    std::vector<std::unique_ptr<Iterator>>* iters);

  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileRef>* inputs);

  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  uint64_t NumBytes(int level) const;
  int num_levels() const { return static_cast<int>(files_.size()); }

  const std::vector<FileRef>& files(int level) const { return files_[level]; }

  // Compaction pressure score of `level` (>= 1.0 means the level wants
  // compaction), as computed by VersionSet::Finalize. 0 for the last
  // level and before the first Finalize.
  double LevelScore(int level) const {
    return (level >= 0 && level < static_cast<int>(level_scores_.size()))
               ? level_scores_[level]
               : 0.0;
  }

  std::string LevelSummary() const;

 private:
  friend class VersionSet;
  friend class VersionBuilder;
  friend class Compaction;

  VersionSet* vset_;
  std::vector<std::vector<FileRef>> files_;

  // Compaction state computed by VersionSet::Finalize.
  double compaction_score_ = -1;
  int compaction_level_ = -1;
  std::vector<double> level_scores_;
};

class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator* cmp);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  // Apply *edit to the current version and persist it to the MANIFEST.
  // External synchronization (the DB mutex) required.
  Status LogAndApply(VersionEdit* edit);

  // Recover the last persisted state from CURRENT/MANIFEST.
  Status Recover();

  // Abandon the open MANIFEST (after a descriptor write/sync failure):
  // the next LogAndApply starts a fresh MANIFEST under a new file
  // number, writes a full snapshot of the current state, and swaps
  // CURRENT to it. Part of background-error recovery (DB::Resume).
  // External synchronization (the DB mutex) required.
  void ForceNewManifest();

  std::shared_ptr<Version> current() const { return current_; }

  uint64_t NewFileNumber() { return next_file_number_++; }
  // Reuse an allocated-but-unused number (crash-safety bookkeeping).
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) next_file_number_ = file_number;
  }

  uint64_t ManifestFileNumber() const { return manifest_file_number_; }
  SequenceNumber LastSequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) {
    assert(s >= last_sequence_);
    last_sequence_ = s;
  }
  uint64_t LogNumber() const { return log_number_; }

  // True when the current version wants a compaction.
  bool NeedsCompaction() const;

  // Pick the next compaction (level or universal per options); null when
  // nothing to do.
  std::unique_ptr<Compaction> PickCompaction();

  // Compaction covering the given range (manual compaction).
  std::unique_ptr<Compaction> CompactRange(int level, const InternalKey* begin,
                                           const InternalKey* end);

  void AddLiveFiles(std::set<uint64_t>* live) const;

  int NumLevelFiles(int level) const;
  uint64_t NumLevelBytes(int level) const;

  // Estimated bytes of compaction debt (drives the pending-compaction
  // stall triggers).
  uint64_t EstimatePendingCompactionBytes() const;

  const InternalKeyComparator* icmp() const { return icmp_; }
  const Options* options() const { return options_; }
  TableCache* table_cache() { return table_cache_; }

  std::string LevelSummary() const { return current_->LevelSummary(); }

 private:
  friend class Compaction;

  // Compute compaction_score_/level_ for v.
  void Finalize(Version* v);

  Status WriteSnapshot(log::Writer* log);

  std::unique_ptr<Compaction> PickLevelCompaction();
  std::unique_ptr<Compaction> PickUniversalCompaction();

  void SetupOtherInputs(Compaction* c);

  const std::string dbname_;
  const Options* options_;
  TableCache* table_cache_;
  const InternalKeyComparator* icmp_;

  uint64_t next_file_number_ = 2;
  uint64_t manifest_file_number_ = 0;
  uint64_t log_number_ = 0;
  SequenceNumber last_sequence_ = 0;

  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  std::shared_ptr<Version> current_;
  // Every version ever installed that may still be referenced by an
  // in-flight iterator/get (weak: expires when readers drop it). GC
  // must keep the files of ALL of these alive, not just current_.
  mutable std::vector<std::weak_ptr<Version>> live_versions_;

  // Per-level key at which the next round-robin compaction should start.
  std::vector<std::string> compact_pointer_;
};

// A picked compaction: inputs at `level` and `level+1`, the edit under
// construction, and helpers the compaction job consults.
class Compaction {
 public:
  ~Compaction() = default;

  int level() const { return level_; }
  int output_level() const { return output_level_; }
  VersionEdit* edit() { return &edit_; }

  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }
  const FileRef& input(int which, int i) const { return inputs_[which][i]; }
  const std::vector<FileRef>& inputs(int which) const {
    return inputs_[which];
  }

  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  // Single-file, no-overlap: the file can be moved down without rewrite.
  bool IsTrivialMove() const;

  // Record the removal of every input file in the edit.
  void AddInputDeletions(VersionEdit* edit);

  // True if the user key is guaranteed absent in levels below
  // output_level (lets the compaction drop deletion markers).
  bool IsBaseLevelForKey(const Slice& user_key);

  uint64_t TotalInputBytes() const;

 private:
  friend class VersionSet;

  Compaction(const Options* options, int level, int output_level);

  int level_;
  int output_level_;
  uint64_t max_output_file_size_;
  std::shared_ptr<Version> input_version_;
  VersionEdit edit_;

  std::vector<FileRef> inputs_[2];

  // State for IsBaseLevelForKey.
  std::vector<size_t> level_ptrs_;
};

}  // namespace elmo::lsm
