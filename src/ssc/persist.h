// SSC durability machinery: operation log, group commit, checkpoints
// (Section 4.2.2 of the paper).
//
// The SSC persists its sparse mapping with a combination of:
//   * an operation log: one record per mapping insert/remove (and per clean
//     state change), flushed to a dedicated flash region either synchronously
//     (write-dirty, evict) or by asynchronous group commit (write-clean,
//     clean) every `group_commit_ops` buffered records;
//   * periodic checkpoints of the forward mapping, written to one of two
//     dedicated regions (alternating) whenever the log grows beyond
//     two-thirds of the checkpoint size or after a fixed number of writes;
//   * roll-forward recovery: load the latest checkpoint, then replay log
//     records with LSNs after the checkpoint.
//
// Both carry one record shape, LogRecord. A checkpoint is the insert record
// of every live mapping, the record the log carried when the mapping was
// made, so recovery applies checkpoint and log through one switch. Append
// numbers each log record with the next LSN and seals it with its own CRC; a
// checkpoint record keeps neither (its segment's header and CRC cover it).
//
// The log and checkpoint regions bypass address translation, so their
// contents are modeled here directly ("durable" staging buffers) while their
// media costs — page programs on flush, page reads on recovery — are charged
// to the shared virtual clock at Table 2's timings. Synchronous commits
// use the atomic-write primitive the paper imports from Beyond Block I/O
// [33], so a flushed batch is all-or-nothing.
//
// The log region is finite (`Options::log_region_pages`). Passing the
// high-water mark forces a checkpoint; a flush that would overflow the
// region converts into a forced checkpoint (which subsumes the buffer); and
// when even that margin is gone, host operations are refused with
// backpressure until the log drains (see DESIGN.md §5g).
//
// Checkpoints are written as fixed-size segments, each carrying its own CRC
// and a generation header. A torn or rotted segment costs only that segment:
// recovery falls back to the same-index segment of the previous generation
// (its region is only reused by the checkpoint after next) and replays the
// retained log interval to catch the stale slice up.

#ifndef FLASHTIER_SSC_PERSIST_H_
#define FLASHTIER_SSC_PERSIST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/flash/pipeline.h"
#include "src/flash/timing.h"
#include "src/flash/types.h"
#include "src/util/counters.h"

namespace flashtier {

class InvariantChecker;

enum class ConsistencyMode : uint8_t {
  kNone,          // no-consistency baseline of Figure 4
  kRelaxedClean,  // FlashTier-D: write-clean inserts buffered; overwrites sync
  kFull,          // FlashTier-C/D: clean and dirty both logged synchronously
};

enum class LogOpType : uint8_t {
  kInsertPage,       // lbn -> ppn page-level mapping added
  kRemovePage,       // page-level mapping removed
  kInsertBlock,      // logical erase block -> physical block mapping added
  kRemoveBlock,      // block-level mapping removed
  kClearBlockPages,  // presence+dirty bits cleared within a block-level entry
  kSetCleanPage,     // page-level dirty flag cleared (buffered; may be lost)
  kSetCleanBlocks,   // block-level dirty bits cleared (buffered; may be lost)
  // KV layer (src/kv, DESIGN.md §5k): tiny-object slot directory records.
  // key is the object key, ppn the slab sequence number, present_bits the
  // packed slot metadata and dirty_bits the value token (inserts only). They
  // ride the same log/checkpoint machinery; the SSC skips them during its own
  // map rebuild and hands them to the KV layer after recovery.
  kKvInsertSlot,     // key -> (slab, slot, size, dirty, value token)
  kKvDeleteSlot,     // key's slot invalidated (delete, overwrite, eviction)
};

// The one durable mapping record. In the log, Append numbers it and seals it
// with its CRC; in a checkpoint it is the insert record (kInsertPage,
// kInsertBlock or kKvInsertSlot) of one live mapping, lsn and crc left 0.
struct LogRecord {
  uint64_t lsn = 0;  // set by Append
  LogOpType type = LogOpType::kInsertPage;
  Lbn key = 0;                // lbn (page-level) or logical erase block (block-level)
  Ppn ppn = kInvalidPpn;      // page-level: page; block-level: first ppn of block
  uint64_t present_bits = 0;  // block-level: which in-block offsets are cached
  uint64_t dirty_bits = 0;    // page: 0/1; block: 64-bit dirty bitmap or mask
  uint32_t crc = 0;           // CRC32-C over the fields above; set by Append
};
// MemoryUsage() charges the log buffer at this size (Table 4).
static_assert(sizeof(LogRecord) == 56, "LogRecord is 56 bytes in host memory");

// The host copy of a durable log interval: records in append order, held in
// fixed 64 KB chunks, each reserved whole when it opens. Appending never
// moves a record and Clear() frees every chunk, so the host memory a log
// holds follows its length, and a steady-state log (one chunk) costs one
// allocation per checkpoint. A vector's doubling would leave each superseded
// buffer as free space in the replay worker's malloc arena, up to 5 MB before
// a shard's first checkpoint; a deque's 512-byte nodes cost one allocation
// per 9 records (EXPERIMENTS.md, "Host memory").
class ChunkedLog {
 public:
  static constexpr size_t kChunkRecords = (64u << 10) / sizeof(LogRecord);  // 1,170

  size_t size() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunkRecords + chunks_.back().size();
  }

  void Append(const std::vector<LogRecord>& records) {
    for (const LogRecord& r : records) {
      if (chunks_.empty() || chunks_.back().size() == kChunkRecords) {
        chunks_.emplace_back().reserve(kChunkRecords);
      }
      chunks_.back().push_back(r);
    }
  }

  LogRecord& operator[](size_t i) { return chunks_[i / kChunkRecords][i % kChunkRecords]; }

  // Visits every record in append order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<LogRecord>& chunk : chunks_) {
      for (const LogRecord& r : chunk) {
        fn(r);
      }
    }
  }

  void Clear() { chunks_.clear(); }

 private:
  std::vector<std::vector<LogRecord>> chunks_;  // all full but the last
};

// One fixed-size slice of a checkpoint, independently validatable: the
// insert records of a run of live mappings. The generation header lets
// recovery tell a completed checkpoint's segments from slices of an
// interrupted (newer) or superseded (older) write.
struct CheckpointSegment {
  uint64_t generation = 0;
  uint64_t base_lsn = 0;  // highest LSN this segment's records reflect
  std::vector<LogRecord> records;
  // CRC32-C over generation, base_lsn, the record count and every field of
  // each record (lsn, type, key, ppn, both bitmaps).
  uint32_t crc = 0;
};

// Durability commit points, in the order FlashCheck's crash explorer visits
// them. A crash injected at k*Start points loses the in-RAM state the step
// was about to persist; a crash at k*Done points happens with it durable.
enum class CommitPoint : uint8_t {
  kAppend,             // a record is about to enter the device-RAM log buffer
  kFlushStart,         // buffered records are about to become durable
  kFlushDone,          // the flushed batch is durable
  kCheckpointStart,    // a checkpoint is about to be written
  kCheckpointSegment,  // one checkpoint segment just hit flash (not yet live)
  kCheckpointDone,     // the checkpoint is durable and the log truncated
  kEraseBarrier,       // an erase block was just reclaimed (silent-eviction
                       // boundary; fired by the SSC, not the manager)
};

constexpr const char* CommitPointName(CommitPoint p) {
  switch (p) {
    case CommitPoint::kAppend:
      return "append";
    case CommitPoint::kFlushStart:
      return "flush-start";
    case CommitPoint::kFlushDone:
      return "flush-done";
    case CommitPoint::kCheckpointStart:
      return "checkpoint-start";
    case CommitPoint::kCheckpointSegment:
      return "checkpoint-segment";
    case CommitPoint::kCheckpointDone:
      return "checkpoint-done";
    case CommitPoint::kEraseBarrier:
      return "erase-barrier";
  }
  return "unknown";
}

// Observable phases of recovery, mirroring CommitPoint. A crash injected at
// any of these points must leave a state from which a second recovery
// succeeds: every phase only reads durable state, so re-entry is safe.
enum class RecoveryPoint : uint8_t {
  kStart,             // recovery is about to begin
  kCheckpointLoaded,  // all checkpoint segments validated (or fallen back)
  kLogScanned,        // the log tail has been read and CRC-filtered
  kMapsRebuilt,       // the device rebuilt its forward maps (fired by the SSC)
  kDone,              // recovery complete (fired by the SSC)
};

constexpr const char* RecoveryPointName(RecoveryPoint p) {
  switch (p) {
    case RecoveryPoint::kStart:
      return "recovery-start";
    case RecoveryPoint::kCheckpointLoaded:
      return "checkpoint-loaded";
    case RecoveryPoint::kLogScanned:
      return "log-scanned";
    case RecoveryPoint::kMapsRebuilt:
      return "maps-rebuilt";
    case RecoveryPoint::kDone:
      return "recovery-done";
  }
  return "unknown";
}

struct PersistStats {
  uint64_t records_logged = 0;
  uint64_t sync_commits = 0;
  uint64_t group_commits = 0;
  uint64_t log_page_writes = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_page_writes = 0;
  uint64_t records_lost_in_crash = 0;
  uint64_t last_recovery_us = 0;
  uint64_t recovered_checkpoint_entries = 0;
  uint64_t replayed_log_records = 0;
  // Media-corruption handling during recovery (see DESIGN.md §5d).
  uint64_t corrupt_records_skipped = 0;  // log records failing their CRC
  uint64_t checkpoint_fallbacks = 0;     // recoveries that needed any fallback segment
  uint64_t segment_fallbacks = 0;        // checkpoint segments lost to a torn write
  // Log-region backpressure (finite log region; see DESIGN.md §5g).
  uint64_t forced_checkpoints = 0;   // checkpoints taken to reclaim log space
  uint64_t backpressure_stalls = 0;  // bounded writer stalls spent draining the log
  uint64_t log_full_events = 0;      // full-region refusals and redirected flushes
  // Recovery-time breakdown for the most recent recovery (all overwritten by
  // each Recover; rebuild_us is reported by the device layer).
  uint64_t checkpoint_load_us = 0;
  uint64_t log_replay_us = 0;
  uint64_t rebuild_us = 0;

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<PersistStats> kFields[] = {
      {"records_logged", &PersistStats::records_logged},
      {"sync_commits", &PersistStats::sync_commits},
      {"group_commits", &PersistStats::group_commits},
      {"log_page_writes", &PersistStats::log_page_writes},
      {"checkpoints", &PersistStats::checkpoints},
      {"checkpoint_page_writes", &PersistStats::checkpoint_page_writes},
      {"records_lost_in_crash", &PersistStats::records_lost_in_crash},
      {"last_recovery_us", &PersistStats::last_recovery_us, CounterMerge::kMax},
      {"recovered_checkpoint_entries", &PersistStats::recovered_checkpoint_entries},
      {"replayed_log_records", &PersistStats::replayed_log_records},
      {"corrupt_records_skipped", &PersistStats::corrupt_records_skipped},
      {"checkpoint_fallbacks", &PersistStats::checkpoint_fallbacks},
      {"segment_fallbacks", &PersistStats::segment_fallbacks},
      {"forced_checkpoints", &PersistStats::forced_checkpoints},
      {"backpressure_stalls", &PersistStats::backpressure_stalls},
      {"log_full_events", &PersistStats::log_full_events},
      {"checkpoint_load_us", &PersistStats::checkpoint_load_us, CounterMerge::kMax},
      {"log_replay_us", &PersistStats::log_replay_us, CounterMerge::kMax},
      {"rebuild_us", &PersistStats::rebuild_us, CounterMerge::kMax},
  };

  // Accumulates another manager's counters (per-shard aggregation). Recovery
  // times keep the slowest shard: shards recover in parallel, so the system
  // is back when the last one is.
  void Merge(const PersistStats& o) { MergeCounters(*this, o); }

  friend bool operator==(const PersistStats&, const PersistStats&) = default;
};
static_assert(AllCountersListed<PersistStats>(), "list every PersistStats field in kFields");

class PersistenceManager {
 public:
  // The persistence settings; SscConfig derives from this struct.
  struct Options {
    ConsistencyMode mode = ConsistencyMode::kFull;
    uint32_t group_commit_ops = 10'000;  // Section 6.4 configuration
    uint64_t checkpoint_interval_writes = 1'000'000;
    // Size of the dedicated log region in flash pages; 0 = unbounded, the
    // stand-alone default (an SSC bounds it, see SscConfig). Bounded
    // operation needs a checkpoint source installed so the region can be
    // reclaimed under pressure.
    uint64_t log_region_pages = 0;
    // Checkpoint records per segment (the torn-write blast radius).
    uint64_t checkpoint_segment_entries = 1024;
  };

  PersistenceManager(const Options& options, SimClock* clock);

  ConsistencyMode mode() const { return options_.mode; }
  const PersistStats& stats() const { return stats_; }

  // Numbers `record` with the next LSN and appends it; `sync` forces an
  // immediate atomic flush. In kNone mode records are numbered, then dropped
  // (nothing is persisted and nothing is charged). Append never refuses a
  // record: internal activity (GC, merges, evicts) must always be loggable.
  // Host-visible admission happens in AdmitHostOp.
  void Append(LogRecord record, bool sync);

  // Flushes all buffered records to the durable log region. If the flush
  // would overflow a bounded region, it converts into a forced checkpoint
  // instead (the checkpoint reflects device RAM, which subsumes the buffer).
  void Flush();

  // While a batch is open, asynchronous appends never trigger the group-
  // commit flush. Multi-record mapping transitions — a merge's page-map
  // removes plus the block-map insert that supersedes them, an overwrite's
  // remove plus insert — must reach the durable log in one atomic flush or
  // not at all; a group commit firing between the records would make the
  // removes durable alone, and a crash in that window would lose
  // acknowledged data (FlashCheck finds this immediately). Synchronous
  // commits and explicit Flush() calls (the pre-erase barrier) are
  // unaffected. Nestable; a deferred group commit fires on the next
  // asynchronous append after the outermost batch closes.
  void BeginAtomicBatch() noexcept { ++atomic_batch_depth_; }
  void EndAtomicBatch() noexcept { --atomic_batch_depth_; }

  // RAII helper for BeginAtomicBatch/EndAtomicBatch. The destructor only
  // closes the scope and never flushes, so it is safe to unwind through
  // when a FlashCheck crash hook throws mid-batch.
  class AtomicBatchScope {
   public:
    explicit AtomicBatchScope(PersistenceManager* pm) noexcept : pm_(pm) {
      pm_->BeginAtomicBatch();
    }
    ~AtomicBatchScope() { pm_->EndAtomicBatch(); }
    AtomicBatchScope(const AtomicBatchScope&) = delete;
    AtomicBatchScope& operator=(const AtomicBatchScope&) = delete;

   private:
    PersistenceManager* pm_;
  };

  // Called by the SSC after mutating writes; triggers a checkpoint when the
  // log-size, write-count or log-region high-water policy says so. The
  // checkpoint's records are only materialized when a checkpoint actually
  // happens, through the installed checkpoint source.
  void MaybeCheckpoint() {
    if (options_.mode == ConsistencyMode::kNone || !checkpoint_source_) {
      return;
    }
    ++writes_since_checkpoint_;
    const uint64_t log_bytes = (durable_log_.size() + buffer_.size()) * kRecordBytes;
    const uint64_t ckpt_bytes = checkpoint_entry_count_ * kCheckpointEntryBytes;
    const bool log_too_long =
        ckpt_bytes > 0
            ? static_cast<double>(log_bytes) >
                  kCheckpointLogRatio * static_cast<double>(ckpt_bytes)
            : log_bytes > kInitialCheckpointTriggerBytes;
    const bool interval_due = writes_since_checkpoint_ >= options_.checkpoint_interval_writes;
    const bool high_water =
        options_.log_region_pages > 0 && PagesFor(log_bytes) >= HighWaterPages();
    if (!log_too_long && !interval_due && !high_water) {
      return;
    }
    if (high_water && !log_too_long && !interval_due) {
      // Only the finite region forced this one; the economy counters track it.
      ++stats_.forced_checkpoints;
    }
    WriteCheckpoint(checkpoint_source_());
  }

  // Writes `records`, the insert record of every live mapping, as the new
  // checkpoint and truncates the log.
  void WriteCheckpoint(std::vector<LogRecord> records);

  // Installed by the device: materializes a forward-map snapshot, the
  // records of every checkpoint (MaybeCheckpoint, ForceCheckpoint and a
  // flush that would overflow the log region).
  using CheckpointSource = std::function<std::vector<LogRecord>()>;
  void set_checkpoint_source(CheckpointSource source) {
    checkpoint_source_ = std::move(source);
  }

  // Installed by the device: routes log/checkpoint I/O time through the
  // device's event engine (the dedicated log resource) so commits overlap
  // foreground media work. Without a pipeline the manager charges the clock
  // serially — the stand-alone configuration unit tests use.
  void set_pipeline(FlashPipeline* pipeline) { pipeline_ = pipeline; }

  // Checkpoints immediately from the installed source to reclaim log space,
  // counted as forced. No-op in kNone mode or without a source.
  void ForceCheckpoint();

  // A writer chose to stall and drain the log rather than bypass the cache.
  void NoteBackpressureStall() { ++stats_.backpressure_stalls; }

  // Host-op admission for bounded log regions: false when the region cannot
  // absorb another host operation (plus a small margin for the internal
  // records it may trigger) without overflowing. Callers surface the refusal
  // as Status::kBackpressure *before* any state change, so a refused op has
  // no side effects to tear.
  bool AdmitHostOp();

  // Power failure: everything buffered in device RAM is lost; durable state
  // is untouched.
  void Crash();

  // Roll-forward recovery: reads the checkpoint and the log tail (charging
  // media reads), then hands back the reconstructed stream: the checkpoint's
  // insert records in segment order, then the log records with LSN > the
  // replay base in commit order. Recovery only reads durable state, so it is
  // idempotent: crashing at any RecoveryPoint and re-running yields the same
  // result.
  void Recover(std::vector<LogRecord>* checkpoint, std::vector<LogRecord>* log_tail);

  // Reported by the device after it finishes rebuilding its forward maps, to
  // complete the recovery-time breakdown begun by Recover().
  void RecordRebuildTime(uint64_t us) {
    stats_.rebuild_us = us;
    stats_.last_recovery_us += us;
  }

  uint64_t durable_log_records() const { return durable_log_.size(); }
  uint64_t buffered_records() const { return buffer_.size(); }
  uint64_t DurableLogPages() const { return PagesFor(durable_log_.size() * kRecordBytes); }
  uint64_t log_region_pages() const { return options_.log_region_pages; }

  size_t MemoryUsage() const { return buffer_.capacity() * sizeof(LogRecord); }

  // ---- FlashCheck instrumentation (test-only) ----

  // Invoked at every durability commit point. The crash explorer installs a
  // hook that throws to simulate power failure at that exact instant; the
  // hook must therefore be exception-transparent to this class (all state a
  // throw abandons is device RAM, which the crash wipes anyway).
  using CommitPointHook = std::function<void(CommitPoint)>;
  void set_commit_point_hook_for_testing(CommitPointHook hook) {
    commit_point_hook_ = std::move(hook);
  }

  // Invoked at every recovery phase boundary, mirroring the commit-point
  // hook: the crash explorer throws here to simulate power failing *during*
  // recovery. Also fired by the SSC for the device-side phases.
  using RecoveryPointHook = std::function<void(RecoveryPoint)>;
  void set_recovery_point_hook_for_testing(RecoveryPointHook hook) {
    recovery_point_hook_ = std::move(hook);
  }
  void NotifyRecoveryPoint(RecoveryPoint p) {
    if (recovery_point_hook_) {
      recovery_point_hook_(p);
    }
  }

  // Fired by the SSC after it erases a reclaimed block (the silent-eviction
  // boundary), so the crash explorer sees erase barriers in program order
  // with the log commit points.
  void NotifyEraseBarrier() {
    if (commit_point_hook_) {
      commit_point_hook_(CommitPoint::kEraseBarrier);
    }
  }

  // Deliberately-broken recovery: Recover() returns an empty log tail, as if
  // replay were skipped. Exists so tests can prove the crash explorer
  // actually detects G1/G2 violations rather than vacuously passing.
  void set_skip_log_tail_replay_for_testing(bool skip) { skip_log_tail_replay_ = skip; }

  // Media bit-rot injection: flips payload bits of the `index`-th durable log
  // record without refreshing its CRC, so Recover() must detect and skip it.
  void CorruptDurableRecordForTesting(size_t index);

  // Rots the last `count` durable log records (the tail a torn flush would
  // mangle); Recover() must skip exactly those and keep the rest.
  void CorruptLogTailForTesting(size_t count);

  // Rots one segment of the current checkpoint: a record's payload changes
  // and the stored CRC is left stale (an empty segment's CRC is flipped), so
  // only a CRC recomputed over the records catches it. Recover() must fall
  // back to the same-index segment of the previous generation plus the
  // retained log history, losing only that slice. The default keeps the
  // historical single-segment behavior.
  void CorruptCheckpointForTesting(size_t segment = 0);

  // Rots one segment of the *previous* (fallback) checkpoint the same way,
  // so tests can exercise the double-failure path: both generations of a
  // segment bad degrades that slice to empty + full log replay.
  void CorruptPrevCheckpointForTesting(size_t segment = 0);

 private:
  friend class InvariantChecker;
  friend class CheckTestPeer;  // injects corruption in invariant-checker tests

  void AtCommitPoint(CommitPoint p) {
    if (commit_point_hook_) {
      commit_point_hook_(p);
    }
  }

  // On-flash record sizes (packed). A log record: lsn + key + ppn + present +
  // dirty + type + CRC32-C. A checkpoint record stores no LSN or CRC of its
  // own (the segment header and CRC cover it).
  static constexpr uint64_t kRecordBytes = 8 + 8 + 8 + 8 + 8 + 1 + 4;
  static constexpr uint64_t kCheckpointEntryBytes = 8 + 8 + 8 + 8 + 1;
  // Per-segment header: generation + base LSN + entry count + CRC32-C.
  static constexpr uint64_t kSegmentHeaderBytes = 8 + 8 + 8 + 4;
  // Checkpoint once the log outgrows this share of the checkpoint (Section
  // 4.2.2: two thirds); before the first checkpoint exists, once the log
  // reaches 4 MB.
  static constexpr double kCheckpointLogRatio = 2.0 / 3.0;
  static constexpr uint64_t kInitialCheckpointTriggerBytes = 4ull << 20;
  // Headroom AdmitHostOp reserves for the internal records (invalidations,
  // block transitions) one host op can trigger beyond its own log record.
  static constexpr uint64_t kHostOpMarginRecords = 4;
  // Fraction of the region at which MaybeCheckpoint force-checkpoints even
  // when the size-ratio and write-interval rules are quiet.
  static constexpr double kLogHighWater = 0.75;

  // The flash page the log and checkpoints are written in.
  static constexpr uint64_t kPageBytes = 4096;

  static uint64_t PagesFor(uint64_t bytes) { return (bytes + kPageBytes - 1) / kPageBytes; }
  uint64_t HighWaterPages() const {
    const auto hw = static_cast<uint64_t>(
        kLogHighWater * static_cast<double>(options_.log_region_pages));
    return hw > 0 ? hw : 1;
  }
  static uint64_t SegmentBytes(const CheckpointSegment& seg) {
    return kSegmentHeaderBytes + seg.records.size() * kCheckpointEntryBytes;
  }
  void ChargeWrites(uint64_t pages);
  void ChargeReads(uint64_t pages, uint64_t* recovery_us);
  void ChargeLogUs(uint64_t us);
  // CRC32-C over every field of `record` but its own crc, extending `seed`.
  static uint32_t RecordCrc(const LogRecord& record, uint32_t seed = 0);
  static uint32_t SegmentCrc(const CheckpointSegment& seg);

  Options options_;
  SimClock* clock_;
  FlashPipeline* pipeline_ = nullptr;  // not owned; null in stand-alone use

  // A vector: its capacity is the log buffer's Table 4 charge (MemoryUsage).
  std::vector<LogRecord> buffer_;        // device RAM, lost on crash
  // Chunked, as prev_log_, so its host memory follows the log's length: a
  // vector's doubling left superseded buffers in replay workers' arenas.
  ChunkedLog durable_log_;               // on flash, since last checkpoint
  // The two alternating checkpoint regions (Section 4.2.2), each a list of
  // segments. `current_region_` indexes the live (completed) checkpoint; the
  // other region holds the previous generation until a new checkpoint is
  // staged over it segment by segment. The previous generation — plus the
  // log interval it anchors (`prev_log_`) — is the per-segment fallback when
  // a current segment fails its CRC on recovery.
  std::vector<CheckpointSegment> regions_[2];
  uint32_t current_region_ = 0;
  uint64_t checkpoint_generation_ = 0;
  uint64_t checkpoint_lsn_ = 0;          // highest LSN covered by checkpoint
  uint64_t checkpoint_entry_count_ = 0;
  // Records between the previous and current checkpoint; chunked for the
  // same reason as durable_log_.
  ChunkedLog prev_log_;
  uint64_t writes_since_checkpoint_ = 0;
  uint64_t next_lsn_ = 1;
  uint32_t atomic_batch_depth_ = 0;
  PersistStats stats_;
  CheckpointSource checkpoint_source_;
  CommitPointHook commit_point_hook_;
  RecoveryPointHook recovery_point_hook_;
  bool skip_log_tail_replay_ = false;
};

}  // namespace flashtier

#endif  // FLASHTIER_SSC_PERSIST_H_
