#include "src/cache/ssc_manager.h"

namespace flashtier {

SscCacheManager::SscCacheManager(SscDevice* ssc, DiskModel* disk, AdmissionPolicy& policy)
    : CacheManager(policy), ssc_(ssc), disk_(disk) {
  ssc_->set_loss_listener(this);
}

SscCacheManager::~SscCacheManager() {
  // A manager rebuilt over the same SSC may already have taken the slot.
  if (ssc_->loss_listener() == this) {
    ssc_->set_loss_listener(nullptr);
  }
}

Status SscCacheManager::Read(Lbn lbn, uint64_t* token) {
  ++stats_.reads;
  policy_.OnAccess(lbn);
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
  if (s != Status::kNotPresent) {
    // kIoError is an uncorrectable dirty page: the only copy of the data is
    // gone, and the SSC reported the loss (OnDirtyLoss) before returning.
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
  if (policy_.ShouldAdmit(lbn, AdmissionOp::kReadFill, /*resident=*/false)) {
    const Status cs = ssc_->WriteClean(lbn, fetched);
    if (!IsOk(cs) && cs != Status::kNoSpace && cs != Status::kIoError &&
        cs != Status::kBackpressure) {
      return cs;
    }
    if (IsOk(cs)) {
      policy_.OnAdmit(lbn);
    }
  } else {
    policy_.OnReject(lbn);
  }
  if (token != nullptr) {
    *token = fetched;
  }
  return Status::kOk;
}

uint64_t SscCacheManager::ScrubDisk(uint32_t max_sectors) {
  // Walk the latent-sector list in LBN order and rewrite each sector whose
  // content the cache still holds, which both heals the sector and leaves
  // every future read's answer unchanged. Uncached sectors have no repair
  // source here; they heal when the host next writes them.
  uint64_t repaired = 0;
  for (Lbn lbn : disk_->LatentSectors()) {
    if (repaired >= max_sectors) {
      break;
    }
    uint64_t token = 0;
    if (!IsOk(ssc_->Read(lbn, &token))) {
      continue;  // not cached, or lost (and reported) just now: no repair source
    }
    if (!IsOk(disk_->GuardedWrite(lbn, token))) {
      NoteDiskWriteFailure();
      break;  // the disk is refusing writes; end the pass
    }
    NoteDiskWriteSuccess();
    ++repaired;
    ++stats_.scrub_repairs;
  }
  return repaired;
}

void SscCacheManager::EnterDegraded() {
  if (!degraded_) {
    degraded_ = true;
    degraded_write_count_ = 0;
    ++stats_.degraded_entries;
  }
}

void SscCacheManager::NoteCacheWriteFailure() {
  // Flash failure that survived the SSC's own retries. Each write is still
  // safe (it lands on disk), but repeated failures trip pass-through so a
  // dying device cannot stall the write path.
  if (!degraded_ && ++consecutive_write_failures_ >= kDegradedTripLimit) {
    EnterDegraded();
  }
}

void SscCacheManager::NoteCacheWriteSuccess() {
  consecutive_write_failures_ = 0;
  degraded_ = false;  // a successful probe re-engages the cache
}

bool SscCacheManager::BypassCache() {
  return degraded_ && (++degraded_write_count_ % kDegradedProbeInterval) != 0;
}

}  // namespace flashtier
