#include "src/cache/write_back.h"

#include <algorithm>

namespace flashtier {

namespace {
uint64_t DirtyBudget(uint64_t capacity_pages, double dirty_threshold) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(capacity_pages) * dirty_threshold));
}
}  // namespace

WriteBackManager::WriteBackManager(SscDevice* ssc, DiskModel* disk, const Options& options)
    : ssc_(ssc),
      disk_(disk),
      policy_(options.admission),
      options_(options),
      // Table sized for the nominal budget; the live budget shrinks with the
      // device (ThresholdBlocks), which only ever needs less room.
      dirty_table_(DirtyBudget(ssc->capacity_pages(), options.dirty_threshold) +
                   DirtyBudget(ssc->capacity_pages(), options.dirty_threshold) / 4) {}

uint64_t WriteBackManager::ThresholdBlocks() const {
  return DirtyBudget(ssc_->usable_capacity_pages(), options_.dirty_threshold);
}

bool WriteBackManager::BelowCapacityFloor() const {
  return ssc_->usable_capacity_pages() * 100 <
         ssc_->capacity_pages() * options_.min_usable_capacity_pct;
}

void WriteBackManager::DropLostDirty(Lbn lbn) {
  ++stats_.read_errors;
  ++stats_.lost_dirty;
  dirty_table_.Erase(lbn);
  parked_lbns_.erase(lbn);
  checksums_.erase(lbn);
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

Status WriteBackManager::Read(Lbn lbn, uint64_t* token) {
  ++stats_.reads;
  if (policy_ != nullptr) {
    policy_->OnAccess(lbn, /*is_write=*/false);
  }
  Status s = ssc_->Read(lbn, token);
  if (IsOk(s)) {
    ++stats_.read_hits;
    if (disk_->latent_count() != 0 && disk_->IsLatent(lbn)) {
      // The disk sector under this block is latently unreadable: the cached
      // copy is the only serviceable one. The hit just rescued the read.
      ++stats_.rescued_reads;
    }
    return s;
  }
  if (s == Status::kIoError) {
    // An uncorrectable dirty page: the only copy of the data is gone (the
    // SSC already dropped its mapping). Surface the loss and forget the
    // block so the slot can be rewritten.
    DropLostDirty(lbn);
    return s;
  }
  if (s != Status::kNotPresent) {
    return s;
  }
  ++stats_.read_misses;
  uint64_t fetched = 0;
  if (Status ds = disk_->GuardedRead(lbn, &fetched); !IsOk(ds)) {
    // Not cached and the disk could not produce it within the retry bound:
    // an honest miss failure, never stale data.
    ++stats_.disk_io_errors;
    return ds;
  }
  // A medium failure while populating the cache does not fail the miss — the
  // data is already in hand from disk, and no stale version existed (the
  // read above said not-present). A rejected fill serves from disk uncached,
  // saving the flash write; a backpressured fill is likewise skipped rather
  // than stalled (it is an optimization, not an obligation).
  if (policy_ == nullptr ||
      policy_->ShouldAdmit(lbn, AdmissionOp::kReadFill, AdmissionContext{})) {
    const Status cs = ssc_->WriteClean(lbn, fetched);
    if (!IsOk(cs) && cs != Status::kNoSpace && cs != Status::kIoError &&
        cs != Status::kBackpressure) {
      return cs;
    }
    if (policy_ != nullptr && IsOk(cs)) {
      policy_->OnAdmit(lbn);
    }
  } else {
    policy_->OnReject(lbn);
  }
  if (token != nullptr) {
    *token = fetched;
  }
  return Status::kOk;
}

Status WriteBackManager::Write(Lbn lbn, uint64_t token) {
  ++stats_.writes;
  if (policy_ != nullptr) {
    policy_->OnAccess(lbn, /*is_write=*/true);
  }
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
    if (!degraded_) {
      degraded_ = true;
      degraded_write_count_ = 0;
      ++stats_.degraded_entries;
    }
    return PassThroughWrite(lbn, token);
  }
  if (degraded_ && (++degraded_write_count_ % kDegradedProbeInterval) != 0) {
    return PassThroughWrite(lbn, token);
  }
  if (policy_ != nullptr) {
    AdmissionContext ctx;
    ctx.resident = dirty_table_.Contains(lbn);
    if (!policy_->ShouldAdmit(lbn, AdmissionOp::kWriteDirty, ctx)) {
      // Demoted to write-around: the newest data goes to disk, and any
      // cached version (resident or stale) must go so it can never surface.
      Status ds = disk_->GuardedWrite(lbn, token);
      if (IsOk(ds)) {
        NoteDiskWriteSuccess();
        if (Status es = ssc_->Evict(lbn); !IsOk(es)) {
          return es;
        }
        dirty_table_.Erase(lbn);
        parked_lbns_.erase(lbn);
        checksums_.erase(lbn);
        ++stats_.evicts;
        policy_->OnReject(lbn);
        return Status::kOk;
      }
      // The disk refused the write-around. Durability outranks admission
      // policy: absorb the write into the cache as dirty instead of failing
      // the host (fall through to the dirty-write path below, which calls
      // OnAdmit on success so the policy's view stays consistent).
      ++stats_.disk_io_errors;
      NoteDiskWriteFailure();
    }
  }
  // Log-region backpressure surfaces as a *bounded stall*: each drain forces
  // a checkpoint (truncating the log), so one retry normally succeeds. The
  // bound guarantees the host write can never block indefinitely.
  const auto write_with_drain = [this](Lbn b, uint64_t t) {
    Status ws = ssc_->WriteDirty(b, t);
    for (uint32_t attempt = 0;
         ws == Status::kBackpressure && attempt < kBackpressureRetryLimit; ++attempt) {
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
    // cache rather than blocking (the stale cached copy is evicted below).
    return PassThroughWrite(lbn, token);
  }
  if (s == Status::kNoSpace) {
    // Write-around: the cache has no evictable space at all. Put the newest
    // data on disk and make sure no stale copy can ever surface. With the
    // disk also refusing, this is the honest end of the escalation ladder:
    // the cache absorbed what it could, and the host write fails loudly.
    if (Status ds = disk_->GuardedWrite(lbn, token); !IsOk(ds)) {
      ++stats_.disk_io_errors;
      NoteDiskWriteFailure();
      return ds;
    }
    NoteDiskWriteSuccess();
    if (Status es = ssc_->Evict(lbn); !IsOk(es)) {
      return es;
    }
    dirty_table_.Erase(lbn);
    parked_lbns_.erase(lbn);
    ++stats_.evicts;
    if (policy_ != nullptr) {
      policy_->OnEvict(lbn);
    }
    return Status::kOk;
  }
  if (s == Status::kIoError) {
    // Flash failure that survived the SSC's own retries. The write itself is
    // safe — it lands on disk — but repeated failures trip the manager into
    // degraded pass-through so a dying device cannot stall the write path.
    if (!degraded_ && ++consecutive_write_failures_ >= kDegradedTripLimit) {
      degraded_ = true;
      degraded_write_count_ = 0;
      ++stats_.degraded_entries;
    }
    return PassThroughWrite(lbn, token);
  }
  if (!IsOk(s)) {
    return s;
  }
  consecutive_write_failures_ = 0;
  degraded_ = false;  // a successful probe re-engages the cache
  if (policy_ != nullptr) {
    policy_->OnAdmit(lbn);
  }
  dirty_table_.Touch(lbn);
  if (options_.verify_checksums) {
    checksums_[lbn] = token;
  }
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
      // kIoError: the only copy of this dirty block is unreadable and the
      // SSC just dropped it. kNotPresent: a flash-side GC or merge already
      // dropped it as unreadable — the loss was notified then, and the
      // manager learns of it only now. Either way, forget the block
      // (progress is guaranteed even when it is the run's first page) and
      // clean whatever was collected before it.
      DropLostDirty(lbn);
      break;
    }
    if (options_.verify_checksums) {
      const auto it = checksums_.find(lbn);
      if (it != checksums_.end() && it->second != token) {
        ++checksum_failures_;
        return Status::kCorrupt;
      }
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
    if (options_.explicit_eviction) {
      // Section 4.2.1 variant: once the data is safely on disk, remove it
      // from the cache immediately instead of leaving it clean-and-cached.
      if (Status s = ssc_->Evict(lbn); !IsOk(s)) {
        return s;
      }
      ++stats_.evicts;
      if (policy_ != nullptr) {
        policy_->OnEvict(lbn);
      }
    } else {
      if (Status s = ssc_->Clean(lbn); !IsOk(s)) {
        return s;
      }
      ++stats_.cleans;
    }
    dirty_table_.Erase(lbn);
    parked_lbns_.erase(lbn);
    checksums_.erase(lbn);
    ++stats_.writebacks;
  }
  return Status::kOk;
}

Status WriteBackManager::PassThroughWrite(Lbn lbn, uint64_t token) {
  // The newest data goes to disk; any cached version (including the stale
  // one a failed overwrite left behind) must go so it can never surface.
  if (Status ds = disk_->GuardedWrite(lbn, token); !IsOk(ds)) {
    // Both tiers refused (the cache path already failed or is bypassed, and
    // now the disk): fail the host write honestly rather than lie.
    ++stats_.disk_io_errors;
    NoteDiskWriteFailure();
    return ds;
  }
  NoteDiskWriteSuccess();
  if (Status es = ssc_->Evict(lbn); !IsOk(es)) {
    return es;
  }
  dirty_table_.Erase(lbn);
  parked_lbns_.erase(lbn);
  checksums_.erase(lbn);
  ++stats_.pass_through_writes;
  if (policy_ != nullptr) {
    policy_->OnEvict(lbn);
  }
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

uint64_t WriteBackManager::ScrubDisk(uint32_t max_sectors) {
  // Walk the latent-sector list in LBN order and rewrite each sector whose
  // content the cache still holds — a cached token (clean or dirty) is
  // acknowledged data, so the write both heals the sector and leaves every
  // future read's answer unchanged. Uncached sectors have no repair source
  // here; they heal when the host next writes them.
  uint64_t repaired = 0;
  for (Lbn lbn : disk_->LatentSectors()) {
    if (repaired >= max_sectors) {
      break;
    }
    uint64_t token = 0;
    const Status s = ssc_->Read(lbn, &token);
    if (s == Status::kIoError) {
      // Same as the read path: the only copy of a dirty block is gone.
      DropLostDirty(lbn);
      continue;
    }
    if (!IsOk(s)) {
      continue;  // not cached: nothing to repair from
    }
    if (IsOk(disk_->GuardedWrite(lbn, token))) {
      NoteDiskWriteSuccess();
      ++repaired;
      ++stats_.scrub_repairs;
    } else {
      NoteDiskWriteFailure();
      break;  // the disk is refusing writes; end the pass
    }
  }
  return repaired;
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
