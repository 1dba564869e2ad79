// Write-back FlashTier cache manager (Sections 3.1 and 4.4).
//
// Writes go to the SSC only, with write-dirty; the disk is updated lazily.
// The manager tracks dirty blocks in its dirty table (an LruSet) and, when
// the dirty fraction of the cache exceeds 20% (the paper's Table 4
// configuration), issues clean commands for LRU dirty blocks — preferring
// runs of contiguous dirty blocks that can be merged into one sequential disk
// write. Cleaned blocks stay cached (and readable) until the SSC's silent
// eviction actually needs the space.
//
// After a crash the manager may serve requests immediately; it repopulates
// the dirty table with an exists scan of the disk address space, which can
// overlap normal activity (Section 4.4).
//
// DiskGuard (DESIGN.md §5i) makes the manager survive a failing disk tier:
// every disk request goes through the disk's bounded retry/backoff policy; a
// writeback that still fails leaves its blocks dirty and parks the run on a
// virtual-time backoff queue (redriven opportunistically, so no dirty data
// is ever dropped); repeated writeback failures trip a *disk-degraded* mode
// in which the cache absorbs writes instead of cleaning, up to the SSC's
// space/backpressure bound — past it, writes are refused honestly with the
// disk's error. Reads whose disk sector has gone latent-bad are served from
// the cache (rescued_reads), and ScrubDisk repairs latent sectors from
// cached copies in the background. Reads, the scrub and the degraded ladder
// live in SscCacheManager.

#ifndef FLASHTIER_CACHE_WRITE_BACK_H_
#define FLASHTIER_CACHE_WRITE_BACK_H_

#include <deque>
#include <unordered_set>

#include "src/cache/ssc_manager.h"
#include "src/policy/lru_set.h"

namespace flashtier {

class InvariantChecker;

class WriteBackManager final : public SscCacheManager {
 public:
  // `admission` is consulted before every cache insertion: rejected writes
  // go disk-only (write-around) and rejected read fills serve from disk
  // uncached.
  WriteBackManager(SscDevice* ssc, DiskModel* disk, AdmissionPolicy& admission);

  Status Write(Lbn lbn, uint64_t token) override;

  size_t HostMemoryUsage() const override { return dirty_table_.MemoryUsage(); }

  uint64_t dirty_blocks() const { return dirty_table_.size(); }

  // True while the manager is in disk-degraded mode: after
  // kDiskDegradedTripLimit consecutive failed writebacks it stops cleaning
  // and lets the cache absorb dirty data; a successful redrive of the parked
  // queue re-engages cleaning.
  bool disk_degraded() const { return disk_degraded_; }
  // Dirty blocks currently parked on the writeback retry queue.
  size_t parked_blocks() const { return parked_lbns_.size(); }

  // Writes every dirty block back to disk and cleans it (orderly shutdown).
  // Force-redrives the parked queue (a shutdown does not wait out backoff);
  // if the disk still refuses, returns its error with the refused blocks
  // intact — dirty in the SSC and on the queue, never dropped.
  Status FlushAll();

  // Rebuilds the dirty table from the SSC after a crash (the exists scan).
  // The SSC charges the scan to the shard clock.
  void RecoverDirtyTable();

 private:
  friend class InvariantChecker;
  friend class CheckTestPeer;  // injects corruption in invariant-checker tests

  // Graceful capacity degradation floor (DESIGN.md §5l): once block
  // retirement shrinks the SSC's usable capacity below this percentage of
  // nominal, the manager stops caching writes and stays in pass-through —
  // the device has aged out, and honesty beats thrashing a sliver of flash.
  // Retirement is permanent, so this trip never clears.
  static constexpr uint32_t kMinUsableCapacityPct = 10;
  // Consecutive failed writebacks before entering disk-degraded mode. Lower
  // than the flash trip limit: each writeback already survived the disk's
  // own retry loop, so two in a row mean the tier is down, not glitching.
  static constexpr uint32_t kDiskDegradedTripLimit = 2;
  // Parked-run redrive backoff: base doubles per park attempt up to the cap
  // (virtual time). Much coarser than the per-request retry backoff — the
  // request-level retries already failed when a run is parked.
  static constexpr uint64_t kParkBaseBackoffUs = 10'000;
  static constexpr uint64_t kParkMaxBackoffUs = 1'000'000;
  // Longest contiguous dirty run cleaned as one sequential disk write.
  static constexpr uint32_t kMaxCleanRun = 64;

  // A writeback run whose disk write failed after retries: its blocks stay
  // dirty (and in parked_lbns_) until a redrive succeeds or the blocks are
  // cleaned by another run.
  struct ParkedRun {
    Lbn start;
    Lbn end;  // inclusive
    uint64_t not_before_us;
    uint32_t attempt;  // parks so far for this run
  };

  // Dirty-block budget, recomputed against the SSC's *usable* capacity so an
  // aging cache cleans proportionally earlier instead of dead-ending.
  uint64_t ThresholdBlocks() const;
  // True once retirement has shrunk the SSC below kMinUsableCapacityPct.
  bool BelowCapacityFloor() const;

  // Cleans LRU dirty blocks until the table is below the threshold.
  Status CleanToThreshold();
  // What CleanOldestRun did: the dirty table shrank, the run parked, or every
  // dirty block is parked and there was nothing to clean.
  enum class CleanStep : uint8_t { kCleaned, kParked, kNoVictim };
  // Cleans the run around the least recently written dirty block that is not
  // parked, and reports in `*step` what that did.
  Status CleanOldestRun(CleanStep* step);
  // Cleans the contiguous dirty run containing `seed` (one disk write). A
  // disk failure parks the run (attempt `park_attempt`+1) instead of failing.
  Status CleanRun(Lbn seed, uint32_t park_attempt = 0);
  // Pops and re-cleans the front parked run if its backoff expired (or
  // unconditionally with `force`). At most one run per call.
  Status RedriveParked(bool force);
  void ParkRun(Lbn start, Lbn end, uint32_t attempt, Status error);
  void NoteDiskWriteFailure() override;
  void NoteDiskWriteSuccess() override;

  // A write the cache does not take: the disk step (a refusal counts as a
  // disk failure), then the uncache step, which scrubs every cached trace of
  // `lbn` so no stale version can surface. WriteAround runs both and counts
  // the write in `counter`.
  Status WriteDisk(Lbn lbn, uint64_t token);
  Status Uncache(Lbn lbn);
  Status WriteAround(Lbn lbn, uint64_t token, uint64_t ManagerStats::*counter);
  // Drops `lbn` from the dirty table and the parked set; false if the table
  // did not hold it.
  bool ForgetDirty(Lbn lbn);
  // Forgets a block the SSC reported lost, counting each loss once.
  void OnDirtyLoss(Lbn lbn) override;

  LruSet dirty_table_;  // unbounded; least recently written first to clean
  bool disk_degraded_ = false;
  uint32_t consecutive_disk_failures_ = 0;
  Status last_disk_error_ = Status::kIoError;
  std::deque<ParkedRun> parked_;
  std::unordered_set<Lbn> parked_lbns_;  // membership only, never iterated
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_WRITE_BACK_H_
