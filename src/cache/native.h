// The "Native" baseline: a FlashCache-style cache manager over a plain SSD.
//
// This reproduces the system FlashTier is compared against (Section 6.1: "the
// unmodified Facebook FlashCache cache manager and the FlashSim SSD
// simulator"). Because a conventional SSD has its own dense address space,
// the manager must keep a host-side table mapping disk LBNs to SSD locations
// for *every* cached block — 22 bytes each (disk block number, checksum, two
// LRU indexes, block state) — and manage free space itself.
//
// The table is set-associative (as in FlashCache): a block hashes to a set
// of 256 ways (one set of cache_pages ways for a smaller cache) and may
// occupy any way of that set; the slot index doubles as the SSD page number,
// so no flash address needs to be stored. Replacement is LRU within the set;
// dirty victims are written back to disk first, and a set whose dirty ways
// pass 20% is cleaned.
//
// In write-back mode with metadata persistence enabled (the Fig. 4 "Native-D"
// configuration), every dirty-block state change is persisted by writing
// metadata pages to a reserved region of the SSD, two updates per page (the
// paper's manager only batches *sequential* updates, so random dirty traffic
// flushes nearly per-update); clean-block metadata is only written at
// orderly shutdown, so clean contents are lost in a crash. In write-through
// mode nothing is persisted and the cache cannot be recovered at all.

#ifndef FLASHTIER_CACHE_NATIVE_H_
#define FLASHTIER_CACHE_NATIVE_H_

#include <cstdint>
#include <vector>

#include "src/cache/cache_manager.h"
#include "src/disk/disk_model.h"
#include "src/ssd/ssd_ftl.h"

namespace flashtier {

class NativeCacheManager final : public CacheManager {
 public:
  enum class Mode { kWriteThrough, kWriteBack };

  struct Options {
    Mode mode = Mode::kWriteBack;
    // Persist dirty-block metadata at runtime (Native-D). Only meaningful in
    // write-back mode.
    bool persist_metadata = true;
  };

  // `ssd` must expose at least cache_pages + kMetadataRegionPages logical
  // pages; slot i of the table is stored at SSD page i. `admission` is
  // consulted before every *new* insertion (table hits keep their slot):
  // rejected dirty insertions go straight to disk, rejected clean ones are
  // simply not cached.
  NativeCacheManager(SsdFtl* ssd, DiskModel* disk, uint64_t cache_pages, AdmissionPolicy& admission,
                     const Options& options);

  static constexpr uint64_t kMetadataRegionPages = 1024;

  Status Read(Lbn lbn, uint64_t* token) override;
  Status Write(Lbn lbn, uint64_t token) override;

  size_t HostMemoryUsage() const override;

  uint64_t cached_blocks() const { return occupied_; }
  uint64_t dirty_blocks() const { return dirty_total_; }

  // Repairs up to `max_sectors` latent disk sectors from cached copies (any
  // readable slot works: clean slots match the disk's acknowledged content,
  // dirty slots are newer than it). Dirty slots stay dirty — the repair write
  // is not a writeback, just a sector heal.
  uint64_t ScrubDisk(uint32_t max_sectors) override;

  // Writes all dirty blocks to disk (orderly shutdown).
  Status FlushAll();

  // Modeled time for the manager to reload its per-block table from the SSD
  // after a crash (Fig. 5, "Native-FC"). Only available when metadata was
  // persisted (write-back mode).
  uint64_t RecoveryEstimateUs() const;

 private:
  enum class SlotState : uint16_t { kFree = 0, kClean = 1, kDirty = 2 };

  // 22 bytes of per-block metadata, as in the paper: disk block number,
  // checksum, LRU links, state.
  struct Slot {
    Lbn lbn = kInvalidLbn;
    uint64_t checksum = 0;
    uint16_t lru_prev = kNilWay;
    uint16_t lru_next = kNilWay;
    SlotState state = SlotState::kFree;
  };
  static constexpr uint16_t kNilWay = 0xffff;
  // Ways per set; a cache smaller than one set is one set of its own size.
  static constexpr uint64_t kMaxWays = 256;
  // A set is cleaned once more than this fraction of its ways is dirty.
  static constexpr double kDirtyThreshold = 0.20;
  // Dirty-metadata state changes coalesced per metadata page write.
  static constexpr uint32_t kMetadataBatch = 2;
  // Longest contiguous dirty run written back as one disk write.
  static constexpr uint32_t kMaxCleanRun = 64;

  uint32_t SetOf(Lbn lbn) const;
  // Index within the set, or kNilWay.
  uint16_t FindWay(uint32_t set, Lbn lbn) const;
  Slot& SlotAt(uint32_t set, uint16_t way) { return slots_[SsdPageOf(set, way)]; }
  uint64_t SsdPageOf(uint32_t set, uint16_t way) const {
    return static_cast<uint64_t>(set) * ways_ + way;
  }

  void LruUnlink(uint32_t set, uint16_t way);
  void LruPushFront(uint32_t set, uint16_t way);
  // Allocates a way in the set, evicting the LRU entry if needed.
  Status AllocateWay(uint32_t set, uint16_t* way);
  Status InsertBlock(Lbn lbn, uint64_t token, bool dirty, AdmissionOp op);
  Status WriteBackSlot(uint32_t set, uint16_t way);
  Status CleanSet(uint32_t set);
  // Records a dirty-metadata state change; flushes a metadata page to the
  // SSD every kMetadataBatch changes (Native-D).
  void MetadataUpdate();
  // A dirty slot turns clean: the dirty counts fall and the state change is
  // recorded.
  void MarkClean(uint32_t set, uint16_t way);
  // Trims the slot's SSD page, unlinks it from its set's LRU list and frees
  // it.
  void DropSlot(uint32_t set, uint16_t way);

  SsdFtl* ssd_;
  DiskModel* disk_;
  Options options_;
  uint16_t ways_;
  uint32_t sets_;
  std::vector<Slot> slots_;
  std::vector<uint16_t> set_head_;     // MRU way per set
  std::vector<uint16_t> set_tail_;     // LRU way per set
  std::vector<uint16_t> set_dirty_;    // dirty count per set
  uint64_t occupied_ = 0;
  uint64_t dirty_total_ = 0;
  uint32_t pending_metadata_ = 0;
  uint64_t metadata_cursor_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_NATIVE_H_
