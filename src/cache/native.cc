#include "src/cache/native.h"

#include <algorithm>
#include <cassert>

#include "src/sparsemap/sparse_hash_map.h"  // MixHash64

namespace flashtier {

NativeCacheManager::NativeCacheManager(SsdFtl* ssd, DiskModel* disk, uint64_t cache_pages,
                                       AdmissionPolicy& admission, const Options& options)
    : CacheManager(admission),
      ssd_(ssd),
      disk_(disk),
      options_(options),
      ways_(static_cast<uint16_t>(std::clamp<uint64_t>(cache_pages, 1, kMaxWays))),
      sets_(static_cast<uint32_t>(std::max<uint64_t>(1, cache_pages / ways_))) {
  slots_.assign(static_cast<size_t>(sets_) * ways_, Slot{});
  set_head_.assign(sets_, kNilWay);
  set_tail_.assign(sets_, kNilWay);
  set_dirty_.assign(sets_, 0);
  assert(ssd_->logical_pages() >= slots_.size() + kMetadataRegionPages);
}

uint32_t NativeCacheManager::SetOf(Lbn lbn) const {
  return static_cast<uint32_t>(MixHash64(lbn) % sets_);
}

uint16_t NativeCacheManager::FindWay(uint32_t set, Lbn lbn) const {
  const uint64_t base = static_cast<uint64_t>(set) * ways_;
  for (uint16_t way = 0; way < ways_; ++way) {
    const Slot& s = slots_[base + way];
    if (s.state != SlotState::kFree && s.lbn == lbn) {
      return way;
    }
  }
  return kNilWay;
}

void NativeCacheManager::LruUnlink(uint32_t set, uint16_t way) {
  Slot& s = SlotAt(set, way);
  if (s.lru_prev != kNilWay) {
    SlotAt(set, s.lru_prev).lru_next = s.lru_next;
  } else {
    set_head_[set] = s.lru_next;
  }
  if (s.lru_next != kNilWay) {
    SlotAt(set, s.lru_next).lru_prev = s.lru_prev;
  } else {
    set_tail_[set] = s.lru_prev;
  }
  s.lru_prev = s.lru_next = kNilWay;
}

void NativeCacheManager::LruPushFront(uint32_t set, uint16_t way) {
  Slot& s = SlotAt(set, way);
  s.lru_prev = kNilWay;
  s.lru_next = set_head_[set];
  if (set_head_[set] != kNilWay) {
    SlotAt(set, set_head_[set]).lru_prev = way;
  }
  set_head_[set] = way;
  if (set_tail_[set] == kNilWay) {
    set_tail_[set] = way;
  }
}

void NativeCacheManager::MetadataUpdate() {
  if (options_.mode != Mode::kWriteBack || !options_.persist_metadata) {
    return;
  }
  if (++pending_metadata_ < kMetadataBatch) {
    return;
  }
  pending_metadata_ = 0;
  // One page of packed dirty-block metadata to the reserved region.
  const uint64_t page =
      slots_.size() + metadata_cursor_ % kMetadataRegionPages;
  ++metadata_cursor_;
  // Cost-model write: the packed metadata page carries no payload the
  // simulation ever reads back, so a faulted program loses nothing tracked —
  // only the media charge matters here.
  (void)ssd_->Write(page, /*token=*/metadata_cursor_);
  ++stats_.metadata_writes;
}

void NativeCacheManager::MarkClean(uint32_t set, uint16_t way) {
  SlotAt(set, way).state = SlotState::kClean;
  --set_dirty_[set];
  --dirty_total_;
  MetadataUpdate();
}

void NativeCacheManager::DropSlot(uint32_t set, uint16_t way) {
  AssertOk(ssd_->Trim(SsdPageOf(set, way)));
  LruUnlink(set, way);
  SlotAt(set, way) = Slot{};
  --occupied_;
}

Status NativeCacheManager::WriteBackSlot(uint32_t set, uint16_t way) {
  Slot& s = SlotAt(set, way);
  assert(s.state == SlotState::kDirty);
  uint64_t token = 0;
  if (Status rs = ssd_->Read(SsdPageOf(set, way), &token); !IsOk(rs)) {
    if (rs == Status::kCorrupt) {
      // The only copy of this dirty block is unreadable: nothing correct can
      // reach the disk, so record the loss and let the slot be reclaimed.
      ++stats_.read_errors;
      ++stats_.lost_dirty;
      MarkClean(set, way);
      return Status::kOk;
    }
    return rs;
  }
  if (Status ds = disk_->GuardedWrite(s.lbn, token); !IsOk(ds)) {
    // The disk refused the writeback even after retries. The block stays
    // dirty (and cached); the caller decides whether to defer or refuse.
    ++stats_.disk_io_errors;
    return ds;
  }
  MarkClean(set, way);
  ++stats_.writebacks;
  return Status::kOk;
}

Status NativeCacheManager::AllocateWay(uint32_t set, uint16_t* way) {
  const uint64_t base = static_cast<uint64_t>(set) * ways_;
  for (uint16_t w = 0; w < ways_; ++w) {
    if (slots_[base + w].state == SlotState::kFree) {
      *way = w;
      return Status::kOk;
    }
  }
  // Evict the set's LRU entry.
  uint16_t victim = set_tail_[set];
  if (victim == kNilWay) {
    return Status::kNoSpace;
  }
  if (SlotAt(set, victim).state == SlotState::kDirty) {
    const Status st = WriteBackSlot(set, victim);
    if (st == Status::kIoError || st == Status::kTimeout) {
      // The disk refused the victim's writeback, so the dirty block must stay
      // cached. Fall back to the least-recently-used *clean* slot (walking
      // from the LRU tail toward the MRU head) so the allocation can still
      // proceed without dropping dirty data.
      uint16_t w = victim;
      while (w != kNilWay && SlotAt(set, w).state == SlotState::kDirty) {
        w = SlotAt(set, w).lru_prev;
      }
      if (w == kNilWay) {
        return st;  // every slot is dirty and the disk is down: refuse honestly
      }
      victim = w;
    } else if (!IsOk(st)) {
      return st;
    }
  }
  DropSlot(set, victim);
  ++stats_.evicts;
  MetadataUpdate();
  *way = victim;
  return Status::kOk;
}

Status NativeCacheManager::InsertBlock(Lbn lbn, uint64_t token, bool dirty, AdmissionOp op) {
  const uint32_t set = SetOf(lbn);
  uint16_t way = FindWay(set, lbn);
  const bool was_present = (way != kNilWay);
  if (!was_present && !policy_.ShouldAdmit(lbn, op, /*resident=*/false)) {
    // Rejected new insertion: nothing is cached (the table lookup missed),
    // so the block simply stays uncached; dirty data goes straight to disk.
    if (!dirty) {
      policy_.OnReject(lbn);
      return Status::kOk;
    }
    if (Status ds = disk_->GuardedWrite(lbn, token); IsOk(ds)) {
      policy_.OnReject(lbn);
      return Status::kOk;
    }
    // The write-around disk write failed past the retry bound. Durability
    // outranks admission policy: fall through and cache the block dirty
    // anyway (OnAdmit fires below if the insertion succeeds).
    ++stats_.disk_io_errors;
  }
  if (way == kNilWay) {
    if (Status s = AllocateWay(set, &way); !IsOk(s)) {
      return s;
    }
    Slot& s = SlotAt(set, way);
    s.lbn = lbn;
    s.state = SlotState::kClean;
    ++occupied_;
    LruPushFront(set, way);
  } else {
    LruUnlink(set, way);
    LruPushFront(set, way);
  }
  Slot& s = SlotAt(set, way);
  s.checksum = token;
  if (Status ws = ssd_->Write(SsdPageOf(set, way), token); !IsOk(ws)) {
    if (ws == Status::kIoError) {
      // The SSD could not land the data even after the FTL's retries.
      // Uncache the block entirely — an out-of-place FTL write that failed
      // leaves the *old* version mapped, which is now stale — and fall back
      // to the disk for dirty data.
      if (s.state == SlotState::kDirty) {
        MarkClean(set, way);
      }
      DropSlot(set, way);
      ++stats_.pass_through_writes;
      if (!dirty) {
        return Status::kOk;
      }
      if (Status ds = disk_->GuardedWrite(lbn, token); !IsOk(ds)) {
        // Neither tier can hold the data: refuse honestly. The host was
        // never acked, so nothing durable is lost silently.
        ++stats_.disk_io_errors;
        return ds;
      }
      return Status::kOk;
    }
    return ws;
  }
  if (!was_present) {
    policy_.OnAdmit(lbn);
  }
  if (dirty && s.state != SlotState::kDirty) {
    s.state = SlotState::kDirty;
    ++set_dirty_[set];
    ++dirty_total_;
    MetadataUpdate();
  } else if (!dirty && s.state == SlotState::kDirty) {
    // Overwrite of a dirty block with clean contents (fill after write-back).
    MarkClean(set, way);
  }
  const auto threshold = static_cast<uint16_t>(static_cast<double>(ways_) * kDirtyThreshold);
  if (dirty && set_dirty_[set] > threshold) {
    return CleanSet(set);
  }
  return Status::kOk;
}

Status NativeCacheManager::CleanSet(uint32_t set) {
  // Write back the set's dirty blocks oldest-first, merging address-contiguous
  // victims into sequential disk writes (FlashCache behaviour).
  const auto limit = static_cast<uint16_t>(static_cast<double>(ways_) * kDirtyThreshold / 2.0);
  std::vector<std::pair<Lbn, uint16_t>> dirty;  // (lbn, way)
  const uint64_t base = static_cast<uint64_t>(set) * ways_;
  for (uint16_t w = 0; w < ways_; ++w) {
    if (slots_[base + w].state == SlotState::kDirty) {
      dirty.emplace_back(slots_[base + w].lbn, w);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  size_t i = 0;
  while (set_dirty_[set] > limit && i < dirty.size()) {
    // Collect a contiguous run starting at i.
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j].first == dirty[j - 1].first + 1 &&
           j - i < kMaxCleanRun) {
      ++j;
    }
    std::vector<uint64_t> tokens;
    tokens.reserve(j - i);
    size_t lost = j;  // index of a run-truncating unreadable page, if any
    for (size_t k = i; k < j; ++k) {
      uint64_t token = 0;
      if (Status s = ssd_->Read(SsdPageOf(set, dirty[k].second), &token); !IsOk(s)) {
        if (s == Status::kCorrupt) {
          // Unreadable dirty page: record the loss, drop it from the run,
          // and write back only the pages collected before it.
          ++stats_.read_errors;
          ++stats_.lost_dirty;
          MarkClean(set, dirty[k].second);
          lost = k;
          break;
        }
        return s;
      }
      tokens.push_back(token);
    }
    const size_t run_end = std::min(lost, j);
    if (!tokens.empty()) {
      if (Status s = disk_->GuardedWriteRun(dirty[i].first, tokens); !IsOk(s)) {
        // The disk refused the run even after retries. FlashCache-style
        // deferral: the blocks simply stay dirty and the next threshold
        // crossing retries them. Not an error for the triggering host write.
        ++stats_.disk_io_errors;
        stats_.parked_writebacks += tokens.size();
        return Status::kOk;
      }
    }
    for (size_t k = i; k < run_end; ++k) {
      MarkClean(set, dirty[k].second);
      ++stats_.writebacks;
    }
    i = (lost < j) ? lost + 1 : j;
  }
  return Status::kOk;
}

Status NativeCacheManager::Read(Lbn lbn, uint64_t* token) {
  ++stats_.reads;
  policy_.OnAccess(lbn);
  const uint32_t set = SetOf(lbn);
  const uint16_t way = FindWay(set, lbn);
  if (way != kNilWay) {
    const Status rs = ssd_->Read(SsdPageOf(set, way), token);
    if (rs != Status::kCorrupt) {
      ++stats_.read_hits;
      if (IsOk(rs) && disk_->latent_count() != 0 && disk_->IsLatent(lbn)) {
        // The disk sector under this block is latently unreadable: the
        // cached copy is the only serviceable one.
        ++stats_.rescued_reads;
      }
      LruUnlink(set, way);
      LruPushFront(set, way);
      return rs;
    }
    // Uncorrectable flash read: drop the slot. A dirty block is lost for
    // good; a clean one degrades to a miss and is refetched from disk below.
    const bool was_dirty = (SlotAt(set, way).state == SlotState::kDirty);
    ++stats_.read_errors;
    if (was_dirty) {
      ++stats_.lost_dirty;
      MarkClean(set, way);
    }
    DropSlot(set, way);
    if (was_dirty) {
      return Status::kIoError;
    }
  }
  ++stats_.read_misses;
  uint64_t fetched = 0;
  if (Status s = disk_->GuardedRead(lbn, &fetched); !IsOk(s)) {
    ++stats_.disk_io_errors;
    return s;
  }
  if (Status s = InsertBlock(lbn, fetched, /*dirty=*/false, AdmissionOp::kReadFill);
      !IsOk(s)) {
    return s;
  }
  if (token != nullptr) {
    *token = fetched;
  }
  return Status::kOk;
}

Status NativeCacheManager::Write(Lbn lbn, uint64_t token) {
  ++stats_.writes;
  policy_.OnAccess(lbn);
  if (options_.mode == Mode::kWriteThrough) {
    if (Status s = disk_->GuardedWrite(lbn, token); !IsOk(s)) {
      ++stats_.disk_io_errors;
      return s;
    }
    return InsertBlock(lbn, token, /*dirty=*/false, AdmissionOp::kWrite);
  }
  return InsertBlock(lbn, token, /*dirty=*/true, AdmissionOp::kWrite);
}

Status NativeCacheManager::FlushAll() {
  for (uint32_t set = 0; set < sets_; ++set) {
    const uint64_t base = static_cast<uint64_t>(set) * ways_;
    for (uint16_t w = 0; w < ways_; ++w) {
      if (slots_[base + w].state == SlotState::kDirty) {
        if (Status s = WriteBackSlot(set, w); !IsOk(s)) {
          return s;
        }
      }
    }
  }
  return Status::kOk;
}

uint64_t NativeCacheManager::ScrubDisk(uint32_t max_sectors) {
  uint64_t repaired = 0;
  for (Lbn lbn : disk_->LatentSectors()) {
    if (repaired >= max_sectors) {
      break;
    }
    const uint32_t set = SetOf(lbn);
    const uint16_t way = FindWay(set, lbn);
    if (way == kNilWay) {
      continue;  // not cached: nothing to repair from
    }
    uint64_t token = 0;
    if (!IsOk(ssd_->Read(SsdPageOf(set, way), &token))) {
      continue;  // unreadable slot: Read()'s own loss handling will find it
    }
    if (IsOk(disk_->GuardedWrite(lbn, token))) {
      ++repaired;
      ++stats_.scrub_repairs;
    } else {
      break;  // the disk is refusing writes; end the pass
    }
  }
  return repaired;
}

size_t NativeCacheManager::HostMemoryUsage() const {
  return slots_.capacity() * sizeof(Slot) +
         (set_head_.capacity() + set_tail_.capacity() + set_dirty_.capacity()) *
             sizeof(uint16_t);
}

uint64_t NativeCacheManager::RecoveryEstimateUs() const {
  // The manager's table must be reloaded from the SSD's metadata region:
  // 22 bytes per cached block, read as 4 KB pages.
  const uint64_t bytes = occupied_ * 22;
  const uint64_t pages = bytes / 4096 + 1;
  return pages * FlashTimings::ReadCostUs();
}

}  // namespace flashtier
