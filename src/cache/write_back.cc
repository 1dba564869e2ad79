#include "src/cache/write_back.h"

#include <algorithm>

namespace flashtier {

namespace {
// Dirty blocks the manager holds before it cleans, as a fraction of the
// SSC's usable capacity.
constexpr double kDirtyThreshold = 0.20;

uint64_t DirtyBudget(uint64_t capacity_pages) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(capacity_pages) * kDirtyThreshold));
}
}  // namespace

WriteBackManager::WriteBackManager(SscDevice* ssc, DiskModel* disk, AdmissionPolicy& admission)
    : SscCacheManager(ssc, disk, admission),
      // Table sized for the nominal budget; the live budget shrinks with the
      // device (ThresholdBlocks), which only ever needs less room.
      dirty_table_(DirtyBudget(ssc->capacity_pages()) + DirtyBudget(ssc->capacity_pages()) / 4) {}

uint64_t WriteBackManager::ThresholdBlocks() const {
  return DirtyBudget(ssc_->usable_capacity_pages());
}

bool WriteBackManager::BelowCapacityFloor() const {
  return ssc_->usable_capacity_pages() * 100 < ssc_->capacity_pages() * kMinUsableCapacityPct;
}

bool WriteBackManager::ForgetDirty(Lbn lbn) {
  parked_lbns_.erase(lbn);
  return dirty_table_.Erase(lbn);
}

void WriteBackManager::OnDirtyLoss(Lbn lbn) {
  // The SSC reports the loss when it drops the page — from a host read, a
  // scrub or a writeback (which all see kIoError), or from a GC or merge
  // that could not relocate it. A path that meets the same loss again finds
  // the block already forgotten, so each loss counts once.
  if (ForgetDirty(lbn)) {
    ++stats_.read_errors;
    ++stats_.lost_dirty;
  }
}

void WriteBackManager::NoteDiskWriteFailure() {
  if (!disk_degraded_ && ++consecutive_disk_failures_ >= kDiskDegradedTripLimit) {
    disk_degraded_ = true;
    ++stats_.disk_degraded_entries;
  }
}

void WriteBackManager::NoteDiskWriteSuccess() {
  consecutive_disk_failures_ = 0;
  disk_degraded_ = false;
}

void WriteBackManager::ParkRun(Lbn start, Lbn end, uint32_t attempt, Status error) {
  last_disk_error_ = error;
  NoteDiskWriteFailure();
  for (Lbn lbn = start; lbn <= end; ++lbn) {
    if (dirty_table_.Contains(lbn) && parked_lbns_.insert(lbn).second) {
      ++stats_.parked_writebacks;
    }
  }
  uint64_t backoff = kParkBaseBackoffUs;
  for (uint32_t i = 1; i < attempt && backoff < kParkMaxBackoffUs; ++i) {
    backoff *= 2;
  }
  parked_.push_back(
      ParkedRun{start, end, disk_->now_us() + std::min(backoff, kParkMaxBackoffUs), attempt});
}

Status WriteBackManager::RedriveParked(bool force) {
  if (parked_.empty()) {
    return Status::kOk;
  }
  if (!force && disk_->now_us() < parked_.front().not_before_us) {
    return Status::kOk;
  }
  const ParkedRun run = parked_.front();
  parked_.pop_front();
  Lbn seed = kInvalidLbn;
  for (Lbn lbn = run.start; lbn <= run.end; ++lbn) {
    parked_lbns_.erase(lbn);
    if (seed == kInvalidLbn && dirty_table_.Contains(lbn)) {
      seed = lbn;
    }
  }
  if (seed == kInvalidLbn) {
    // Another run (or a loss) already settled every block of this one.
    return Status::kOk;
  }
  return CleanRun(seed, run.attempt);
}

Status WriteBackManager::Write(Lbn lbn, uint64_t token) {
  ++stats_.writes;
  policy_.OnAccess(lbn, /*is_write=*/true);
  // Opportunistic redrive: one parked writeback run whose backoff expired
  // gets another chance per host write, so the queue drains (or escalates)
  // without a dedicated thread.
  if (Status rs = RedriveParked(/*force=*/false); !IsOk(rs)) {
    return rs;
  }
  // Graceful capacity degradation, final rung: below the usable-capacity
  // floor the device has aged out. Checked every write (not probed): the
  // retirement that tripped it is permanent.
  if (BelowCapacityFloor()) {
    EnterDegraded();
    return WriteAround(lbn, token, &ManagerStats::pass_through_writes);
  }
  if (BypassCache()) {
    return WriteAround(lbn, token, &ManagerStats::pass_through_writes);
  }
  if (!policy_.ShouldAdmit(lbn, AdmissionOp::kWriteDirty,
                           AdmissionContext{dirty_table_.Contains(lbn)})) {
    // Demoted to write-around: the newest data goes to disk, and any cached
    // version (resident or stale) must go so it can never surface. If the
    // disk refuses, durability outranks admission policy: absorb the write
    // into the cache as dirty instead of failing the host (fall through to
    // the dirty-write path below, which calls OnAdmit on success so the
    // policy's view stays consistent).
    if (IsOk(WriteDisk(lbn, token))) {
      if (Status es = Uncache(lbn); !IsOk(es)) {
        return es;
      }
      ++stats_.evicts;
      policy_.OnReject(lbn);
      return Status::kOk;
    }
  }
  // Log-region backpressure surfaces as a *bounded stall*: each drain forces
  // a checkpoint (truncating the log), so one retry normally succeeds. The
  // bound guarantees the host write can never block indefinitely.
  const auto write_with_drain = [this](Lbn b, uint64_t t) {
    Status ws = ssc_->WriteDirty(b, t);
    for (uint32_t attempt = 0;
         ws == Status::kBackpressure && attempt < SscDevice::kBackpressureDrainLimit; ++attempt) {
      ssc_->DrainLog();
      ws = ssc_->WriteDirty(b, t);
    }
    return ws;
  };
  Status s = write_with_drain(lbn, token);
  // The SSC can run out of physical space with the dirty table still under
  // threshold (sparsely-used erase blocks hold fewer cached pages than their
  // capacity). Clean LRU runs — making blocks evictable — and retry. Parked
  // blocks are skipped: their disk writes just failed, so re-attempting them
  // here would stall the host write on a dead disk.
  for (int attempt = 0; s == Status::kNoSpace && attempt < 8; ++attempt) {
    const Lbn victim = dirty_table_.LruBlockWhere(
        [this](Lbn b) { return parked_lbns_.count(b) == 0; });
    if (victim == kInvalidLbn) {
      break;
    }
    const size_t before = dirty_table_.size();
    if (Status cs = CleanRun(victim); !IsOk(cs)) {
      return cs;
    }
    if (dirty_table_.size() >= before) {
      break;  // the run parked instead of cleaning: no space was freed
    }
    s = write_with_drain(lbn, token);
  }
  if (s == Status::kBackpressure) {
    // The stalls above could not free the region; the write goes around the
    // cache rather than blocking (the stale cached copy is evicted).
    return WriteAround(lbn, token, &ManagerStats::pass_through_writes);
  }
  if (s == Status::kNoSpace) {
    // The cache has no evictable space at all. With the disk also refusing,
    // this is the honest end of the escalation ladder: the cache absorbed
    // what it could, and the host write fails loudly.
    return WriteAround(lbn, token, &ManagerStats::evicts);
  }
  if (s == Status::kIoError) {
    NoteCacheWriteFailure();
    return WriteAround(lbn, token, &ManagerStats::pass_through_writes);
  }
  if (!IsOk(s)) {
    return s;
  }
  NoteCacheWriteSuccess();
  policy_.OnAdmit(lbn);
  dirty_table_.Touch(lbn);
  // In disk-degraded mode the cache *absorbs* dirty data instead of cleaning
  // (every writeback would fail and re-park); the space/backpressure paths
  // above bound how much it can absorb.
  if (!disk_degraded_ && dirty_table_.size() > ThresholdBlocks()) {
    return CleanToThreshold();
  }
  return Status::kOk;
}

Status WriteBackManager::CleanRun(Lbn seed, uint32_t park_attempt) {
  // Grow a contiguous dirty run around the seed; merged runs become one
  // sequential disk write (Section 4.4: "prioritizes cleaning of contiguous
  // dirty blocks, which can be merged together").
  Lbn start = seed;
  while (start > 0 && seed - (start - 1) < kMaxCleanRun &&
         dirty_table_.Contains(start - 1)) {
    --start;
  }
  Lbn end = seed;  // inclusive
  while (end - start + 1 < kMaxCleanRun && dirty_table_.Contains(end + 1)) {
    ++end;
  }

  std::vector<uint64_t> tokens;
  tokens.reserve(end - start + 1);
  for (Lbn lbn = start; lbn <= end; ++lbn) {
    uint64_t token = 0;
    if (Status s = ssc_->Read(lbn, &token); !IsOk(s)) {
      if (s != Status::kIoError && s != Status::kNotPresent) {
        return s;  // structural failure, not a data fault
      }
      // kIoError: the only copy of this dirty block is unreadable, and the
      // SSC just dropped it and reported the loss (OnDirtyLoss). kNotPresent:
      // the SSC reported the loss before this manager was listening. Either
      // way, forget the block (progress is guaranteed even when it is the
      // run's first page) and clean whatever was collected before it.
      OnDirtyLoss(lbn);
      break;
    }
    tokens.push_back(token);
  }
  if (tokens.empty()) {
    return Status::kOk;
  }
  end = start + tokens.size() - 1;  // a loss above may have truncated the run
  if (Status s = disk_->GuardedWriteRun(start, tokens); !IsOk(s)) {
    // The disk refused the writeback even after its retry loop. The blocks
    // simply stay dirty — safe in the SSC (guarantee G1) — and the run parks
    // on the backoff queue for a later redrive. The host operation that
    // triggered this cleaning is NOT failed: no data was lost.
    ParkRun(start, end, park_attempt + 1, s);
    return Status::kOk;
  }
  NoteDiskWriteSuccess();
  for (Lbn lbn = start; lbn <= end; ++lbn) {
    if (Status s = ssc_->Clean(lbn); !IsOk(s)) {
      return s;
    }
    ++stats_.cleans;
    ForgetDirty(lbn);
    ++stats_.writebacks;
  }
  return Status::kOk;
}

Status WriteBackManager::WriteDisk(Lbn lbn, uint64_t token) {
  const Status ds = disk_->GuardedWrite(lbn, token);
  if (IsOk(ds)) {
    NoteDiskWriteSuccess();
  } else {
    ++stats_.disk_io_errors;
    NoteDiskWriteFailure();
  }
  return ds;
}

Status WriteBackManager::Uncache(Lbn lbn) {
  if (Status es = ssc_->Evict(lbn); !IsOk(es)) {
    return es;
  }
  ForgetDirty(lbn);
  return Status::kOk;
}

Status WriteBackManager::WriteAround(Lbn lbn, uint64_t token, uint64_t ManagerStats::*counter) {
  // The newest data goes to disk; any cached version (including the stale
  // one a failed overwrite left behind) must go so it can never surface. If
  // the disk refuses too (the cache path already failed or is bypassed),
  // fail the host write honestly rather than lie.
  if (Status ds = WriteDisk(lbn, token); !IsOk(ds)) {
    return ds;
  }
  if (Status es = Uncache(lbn); !IsOk(es)) {
    return es;
  }
  ++(stats_.*counter);
  policy_.OnEvict(lbn);
  return Status::kOk;
}

Status WriteBackManager::CleanToThreshold() {
  // Hysteresis: clean down to 90% of the threshold so every write does not
  // pay a cleaning pass.
  const uint64_t threshold = ThresholdBlocks();
  const uint64_t target = threshold - threshold / 10;
  while (dirty_table_.size() > target) {
    const Lbn victim = dirty_table_.LruBlockWhere(
        [this](Lbn b) { return parked_lbns_.count(b) == 0; });
    if (victim == kInvalidLbn) {
      break;  // every remaining dirty block is parked awaiting the disk
    }
    const size_t before = dirty_table_.size();
    if (Status s = CleanRun(victim); !IsOk(s)) {
      return s;
    }
    if (dirty_table_.size() >= before) {
      break;  // the run parked: stop cleaning until the disk answers again
    }
  }
  return Status::kOk;
}

Status WriteBackManager::FlushAll() {
  while (dirty_table_.size() > 0) {
    const Lbn victim = dirty_table_.LruBlockWhere(
        [this](Lbn b) { return parked_lbns_.count(b) == 0; });
    if (victim != kInvalidLbn) {
      const size_t before = dirty_table_.size();
      if (Status s = CleanRun(victim); !IsOk(s)) {
        return s;
      }
      if (dirty_table_.size() >= before) {
        // The run parked: the disk is refusing writebacks. The blocks stay
        // dirty and parked — surfacing the error beats spinning.
        return last_disk_error_;
      }
      continue;
    }
    // Only parked blocks remain. An orderly shutdown does not wait out
    // backoff: force-redrive the queue now. A popped run whose blocks were
    // all settled elsewhere shrinks the queue without cleaning — progress
    // too; only a redrive that re-parks (queue did not shrink) means the
    // disk is still down.
    if (parked_.empty()) {
      return Status::kCorrupt;  // parked_lbns_ disagrees with the queue
    }
    const size_t queue_before = parked_.size();
    if (Status s = RedriveParked(/*force=*/true); !IsOk(s)) {
      return s;
    }
    if (parked_.size() >= queue_before) {
      return last_disk_error_;
    }
  }
  return Status::kOk;
}

uint64_t WriteBackManager::RecoverDirtyTable() {
  std::vector<Lbn> dirty;
  ssc_->ForEachCached([&dirty](Lbn lbn, bool is_dirty) {
    if (is_dirty) {
      dirty.push_back(lbn);
    }
  });
  // Oldest-first information is gone after a crash; insert in address order
  // (the LRU order rebuilds as requests arrive).
  std::sort(dirty.begin(), dirty.end());
  for (Lbn lbn : dirty) {
    dirty_table_.Touch(lbn);
  }
  return 0;  // charged on the virtual clock by ForEachCached
}

}  // namespace flashtier
