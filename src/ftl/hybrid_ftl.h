// The FAST-style hybrid log-block FTL engine under both flash devices.
//
// The SSC (src/ssc) and the baseline SSD (src/ssd) are built from the same
// FTL (Section 5: "similar to the FAST FTL"). Host writes append to
// page-mapped log blocks kept in a FIFO; data blocks are block-mapped. When
// the log is full its oldest block is reclaimed by a switch merge (it holds
// one logical block written in order), a partial merge (it holds an in-order
// prefix; the tail is copied in) or full merges (every logical block with
// live pages in it is rebuilt in a fresh block). Static wear leveling moves
// the coldest data block onto the most-worn free block. HybridFtl holds that
// machinery once: the log FIFO and each log block's contents, the host-write
// append with program retry, free-space management, erase-or-retire, the
// merges and relocation, and the one per-offset copy loop with its handling
// of unreadable sources and failed destinations. All copying is charged to
// the flash device, so write amplification, erases and wear (Table 5) emerge
// from the mechanism rather than from a model.
//
// The two devices differ only in mapping and in reclamation. Each derives
// from HybridFtl<itself> and supplies that difference as a translation the
// engine binds at compile time, so merges call it once per page without a
// virtual call:
//
//   uint32_t LogBlockLimit() const;        log FIFO length that triggers a merge
//   auto PageSources(LogicalBlock logical, bool with_log) const;
//       a callable (uint32_t offset) -> PageSource: where the version of that
//       offset to copy lives — the newest one (log first, when `with_log`)
//       or the data block's own copy (relocation) — or kInvalidPpn if absent
//   void RetireLogPage(uint64_t lpn);      drop a log-resident version's mapping
//   void DropLostPage(uint64_t lpn, bool dirty);
//       account for a page a copy could not move (the engine invalidates it)
//   void InstallDataBlock(LogicalBlock, PhysBlock, uint64_t present,
//                         uint64_t dirty);  map a rebuilt block, reclaim the old
//   void RemoveDataBlock(LogicalBlock);     unmap an emptied data block, if any
//   bool ColdestDataBlock(PhysBlock*, LogicalBlock*) const;  wear-leveling source
//   const FtlOptions& ftl_options() const;  the engine's settings, stored once
//
// and may hide the defaults below, which are the SSD's behaviour; the SSC
// replaces each: FreeWithoutCopying (dead queue, then silent eviction),
// TryForwardCopy (SE-Merge), MergeBatch (one atomic log batch per merge),
// BeforeErase/AfterErase (flush the mapping log, mark the erase barrier),
// DisposeBlock (the dead queue instead of an eager erase) and
// BreakRetirementForTesting (flashcheck --break-retry). A device declares
// `friend class HybridFtl<Device>` so its hooks can stay private.

#ifndef FLASHTIER_FTL_HYBRID_FTL_H_
#define FLASHTIER_FTL_HYBRID_FTL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/ftl/block_allocator.h"
#include "src/ftl/ftl_stats.h"
#include "src/util/status.h"

namespace flashtier {

class InvariantChecker;

// The engine's settings, the same for both devices: SsdFtl::Options names
// this struct, and SscConfig derives from it.
struct FtlOptions {
  FlashGeometry geometry;  // plane layout template; plane size scales to fit
  // Medium fault injection (DESIGN.md §5d); disabled by default, so ordinary
  // configurations are unaffected.
  FaultPlan fault_plan;
  // Static wear leveling (DESIGN.md §5l): one pass every N host writes (0 =
  // only on explicit WearLevelOnce calls), migrating when the wear spread
  // exceeds the max-diff. Counted in host writes, not time, so it is
  // identical across thread counts.
  uint32_t wear_level_interval_writes = 0;
  uint32_t wear_level_max_diff = 8;
};

template <class Device>
class HybridFtl {
 public:
  // The fixed log-block reserve, as a fraction of capacity: the SSD's log
  // budget and SE-Util's reserve (the paper's 7%).
  static constexpr double kLogReserveFraction = 0.07;
  // Times a program the medium rejects is retried on a fresh log block.
  static constexpr uint32_t kProgramRetryLimit = 4;

  const FtlStats& ftl_stats() const { return ftl_stats_; }
  const FlashStats& flash_stats() const { return device_->stats(); }
  const FlashDevice& device() const { return *device_; }

  double ExtraWritesPerBlock() const {
    return ftl_stats_.ExtraWritesPerBlock(device_->stats().page_writes,
                                          device_->stats().gc_copies);
  }

  // One static wear-leveling pass: if the wear spread exceeds
  // `max_wear_diff`, moves the coldest data block (fewest erases on its
  // flash) onto the most-worn free block so the young block re-enters the
  // allocation pool. Returns true if it moved anything.
  bool WearLevelOnce(uint32_t max_wear_diff);

 protected:
  // The static wear-leveling cadence, called after each host write.
  void MaybeWearLevel() {
    const FtlOptions& options = self().ftl_options();
    if (options.wear_level_interval_writes > 0 &&
        ++writes_since_wear_level_ >= options.wear_level_interval_writes) {
      writes_since_wear_level_ = 0;
      WearLevelOnce(options.wear_level_max_diff);
    }
  }

  // Where the version of one logical page that a copy should move lives.
  struct PageSource {
    Ppn ppn = kInvalidPpn;  // kInvalidPpn: the page is absent
    bool dirty = false;
    bool from_log = false;  // page-mapped in a log block (else in the data block)
  };
  // Offsets (as bits) a copy moved into its destination, and which are dirty.
  struct Copied {
    uint64_t present = 0;
    uint64_t dirty = 0;
  };
  struct NoBatch {};

  // Takes ownership of the medium; every block starts free.
  void AttachFlash(std::unique_ptr<FlashDevice> device) {
    device_ = std::move(device);
    allocator_ = std::make_unique<BlockAllocator>(*device_, /*reserved_blocks=*/0);
    ResetLog();
  }

  // Programs one host page at the log head, after making sure `min_free`
  // blocks are free. A program abort poisons the whole log block, so each
  // retry moves to a freshly opened one; the aborted block stays in the FIFO
  // (its earlier pages are live) until a merge reclaims it. Nothing is
  // mapped on failure, so the old version stays readable.
  Status AppendToLog(uint32_t min_free, const OobRecord& oob, uint64_t token, Ppn* ppn);

  Status EnsureFreeBlocks(uint32_t want);
  Status EnsureActiveLogBlock();
  bool ActiveLogBlockWritable() const {
    return !log_blocks_.empty() && !device_->BlockFull(log_blocks_.back()) &&
           !device_->BlockProgramFailed(log_blocks_.back());
  }
  // Allocates a block, freeing space without copying when none is free.
  // kInvalidBlock when that is not possible.
  PhysBlock AllocateWithoutCopying();

  // Appends `block` to the log FIFO with empty contents.
  void OpenLogBlock(PhysBlock block) {
    log_blocks_.push_back(block);
    log_contents_[block].clear();
  }
  // Frees a log block's contents list, storage included, when the block
  // leaves the log: clear() would keep the capacity, and a block reopened
  // later would carry it into the memory model (LogContentsMemoryUsage).
  void ReleaseLogContents(PhysBlock block) { log_contents_[block] = std::vector<uint64_t>(); }
  // Forgets the whole log (device RAM lost in a crash), storage included.
  void ResetLog() {
    log_blocks_.clear();
    log_contents_ = std::vector<std::vector<uint64_t>>(device_->geometry().TotalBlocks());
  }
  // Device RAM holding the log blocks' reverse maps (Table 4).
  size_t LogContentsMemoryUsage() const {
    size_t bytes = 0;
    for (const PhysBlock b : log_blocks_) {
      bytes += sizeof(b) + log_contents_[b].capacity() * sizeof(uint64_t);
    }
    return bytes;
  }

  // Erases `block` and frees it; a failed erase retires it as bad instead.
  void EraseOrRetire(PhysBlock block);
  // Returns a destination a copy left unused: straight to the free pool when
  // nothing was programmed, else through DisposeBlock.
  void ReleaseUnused(PhysBlock block) {
    if (device_->BlockErased(block) && !device_->BlockProgramFailed(block)) {
      allocator_->Free(block);
    } else {
      self().DisposeBlock(block);
    }
  }

  Status MergeOldestLogBlock();
  // Full merge: rebuilds `logical` in a fresh block from the newest version
  // of each page, wherever it lives.
  Status MergeLogicalBlock(LogicalBlock logical);
  bool TrySwitchOrPartialMerge(PhysBlock victim);
  // Moves a data block to `destination` (already allocated), preserving
  // offsets. Only the block's own pages move; log-resident versions stay in
  // the log. kIoError if nothing could move.
  Status RelocateDataBlock(LogicalBlock logical, PhysBlock destination);

  // The per-offset copy loop of every merge and relocation: copies offsets
  // [first, pages_per_block) of `logical` into `dst` at their offsets. An
  // unreadable source is dropped; after a destination program failure the
  // block takes nothing more, so log-resident pages stay where they are and
  // pages whose only copy is the vacated data block are dropped.
  template <class Sources>
  Status CopyPages(LogicalBlock logical, uint32_t first, PhysBlock dst, const Sources& source,
                   Copied* out);
  // Drops a page a copy could not move: the device accounts for the loss,
  // then the medium copy is invalidated and a log-resident version unmapped.
  // The loss comes first because the SSC's unmap record can crash-commit the
  // removal, and a loss the host never heard about reads as a broken G1.
  void DropPage(uint64_t lpn, const PageSource& src) {
    self().DropLostPage(lpn, src.dirty);
    AssertOk(device_->MarkInvalid(src.ppn));
    if (src.from_log) {
      self().RetireLogPage(lpn);
    }
  }

  // Default translation hooks: the SSD's behaviour (see the file comment).
  bool FreeWithoutCopying() { return false; }
  std::optional<Status> TryForwardCopy(PhysBlock) { return std::nullopt; }
  NoBatch MergeBatch() { return {}; }
  void BeforeErase() {}
  void AfterErase() {}
  void DisposeBlock(PhysBlock block) { EraseOrRetire(block); }
  bool BreakRetirementForTesting() const { return false; }

  std::unique_ptr<FlashDevice> device_;
  std::unique_ptr<BlockAllocator> allocator_;
  std::deque<PhysBlock> log_blocks_;  // FIFO; back() is the active one
  // Logical page programmed at each page index of each log block, indexed by
  // block (device-RAM copy of the OOB reverse map); empty outside the log.
  std::vector<std::vector<uint64_t>> log_contents_;
  FtlStats ftl_stats_;
  uint32_t writes_since_wear_level_ = 0;

 private:
  friend Device;
  friend class InvariantChecker;

  // Only `Device` derives from HybridFtl<Device>.
  HybridFtl() = default;
  Device& self() { return static_cast<Device&>(*this); }
};

template <class Device>
Status HybridFtl<Device>::AppendToLog(uint32_t min_free, const OobRecord& oob, uint64_t token,
                                      Ppn* ppn) {
  if (Status s = EnsureFreeBlocks(min_free); !IsOk(s)) {
    return s;
  }
  if (Status s = EnsureActiveLogBlock(); !IsOk(s)) {
    return s;
  }
  Status ps = device_->ProgramPage(log_blocks_.back(), oob, token, ppn);
  for (uint32_t retry = 0; ps == Status::kIoError && retry < kProgramRetryLimit; ++retry) {
    ++ftl_stats_.program_retries;
    if (Status s = EnsureActiveLogBlock(); !IsOk(s)) {
      return s;
    }
    ps = device_->ProgramPage(log_blocks_.back(), oob, token, ppn);
  }
  if (IsOk(ps)) {
    log_contents_[log_blocks_.back()].push_back(oob.lbn);
  }
  return ps;
}

template <class Device>
Status HybridFtl<Device>::EnsureFreeBlocks(uint32_t want) {
  // Bounded: a degraded merge may return without freeing anything (it put a
  // victim with unmovable pages back), so "merge until free" must not spin.
  for (uint32_t attempt = 0; attempt < device_->geometry().TotalBlocks() + 4; ++attempt) {
    if (allocator_->FreeCount() >= want) {
      return Status::kOk;
    }
    if (self().FreeWithoutCopying()) {
      continue;
    }
    if (log_blocks_.size() <= 1) {
      return Status::kNoSpace;
    }
    if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
      return s;
    }
  }
  return Status::kNoSpace;
}

template <class Device>
Status HybridFtl<Device>::EnsureActiveLogBlock() {
  if (ActiveLogBlockWritable()) {
    return Status::kOk;
  }
  if (log_blocks_.size() >= self().LogBlockLimit()) {
    if (Status s = MergeOldestLogBlock(); !IsOk(s)) {
      return s;
    }
  }
  PhysBlock block = allocator_->Allocate();
  if (block == kInvalidBlock) {
    if (Status s = EnsureFreeBlocks(1); !IsOk(s)) {
      return s;
    }
    block = allocator_->Allocate();
    if (block == kInvalidBlock) {
      return Status::kNoSpace;
    }
  }
  OpenLogBlock(block);
  return Status::kOk;
}

template <class Device>
PhysBlock HybridFtl<Device>::AllocateWithoutCopying() {
  PhysBlock block = allocator_->Allocate();
  while (block == kInvalidBlock && self().FreeWithoutCopying()) {
    block = allocator_->Allocate();
  }
  return block;
}

template <class Device>
void HybridFtl<Device>::EraseOrRetire(PhysBlock block) {
  self().BeforeErase();
  if (IsOk(device_->EraseBlock(block)) || self().BreakRetirementForTesting()) {
    allocator_->Free(block);
  } else {
    allocator_->Retire(block);
    ++ftl_stats_.retired_blocks;
  }
  self().AfterErase();
}

template <class Device>
template <class Sources>
Status HybridFtl<Device>::CopyPages(LogicalBlock logical, uint32_t first, PhysBlock dst,
                                    const Sources& source, Copied* out) {
  const uint32_t ppb = device_->geometry().pages_per_block;
  bool dst_failed = false;
  for (uint32_t off = first; off < ppb; ++off) {
    const PageSource src = source(off);
    if (src.ppn == kInvalidPpn) {
      // Skipping keeps the block-mapped offsets aligned. A destination that
      // refuses the skip (a full block a broken retirement freed) takes no
      // more programs either.
      dst_failed = dst_failed || !IsOk(device_->SkipPage(dst));
      continue;
    }
    const uint64_t lpn = logical * ppb + off;
    const Status cs = dst_failed ? Status::kIoError : device_->CopyPage(src.ppn, dst, nullptr);
    if (cs == Status::kCorrupt) {
      // The cached copy is unreadable: drop it (a clean page is a future
      // miss, a dirty one counted data loss) and skip its slot.
      DropPage(lpn, src);
      dst_failed = !IsOk(device_->SkipPage(dst));
      continue;
    }
    if (cs == Status::kIoError) {
      // The destination stopped taking programs. A log-resident page stays
      // mapped where it is; a page whose only copy is the data block being
      // vacated is lost with it.
      dst_failed = true;
      if (!src.from_log) {
        DropPage(lpn, src);
      }
      continue;
    }
    if (!IsOk(cs)) {
      return cs;
    }
    if (src.from_log) {
      self().RetireLogPage(lpn);
    }
    out->present |= uint64_t{1} << off;
    if (src.dirty) {
      out->dirty |= uint64_t{1} << off;
    }
  }
  return Status::kOk;
}

template <class Device>
Status HybridFtl<Device>::MergeLogicalBlock(LogicalBlock logical) {
  // The log-page retirements below and the final block-map install must
  // not be torn across a group commit.
  [[maybe_unused]] auto batch = self().MergeBatch();
  const PhysBlock fresh = AllocateWithoutCopying();
  if (fresh == kInvalidBlock) {
    return Status::kNoSpace;
  }
  const auto source = self().PageSources(logical, /*with_log=*/true);
  Copied copied;
  if (Status s = CopyPages(logical, 0, fresh, source, &copied); !IsOk(s)) {
    return s;
  }
  if (copied.present == 0) {
    // Nothing survived into the fresh block (every source was lost, or the
    // destination failed at once): drop the emptied data block instead.
    self().RemoveDataBlock(logical);
    ReleaseUnused(fresh);
    return Status::kOk;
  }
  self().InstallDataBlock(logical, fresh, copied.present, copied.dirty);
  return Status::kOk;
}

template <class Device>
Status HybridFtl<Device>::RelocateDataBlock(LogicalBlock logical, PhysBlock destination) {
  const auto source = self().PageSources(logical, /*with_log=*/false);
  Copied copied;
  if (Status s = CopyPages(logical, 0, destination, source, &copied); !IsOk(s)) {
    return s;
  }
  if (copied.present == 0) {
    self().RemoveDataBlock(logical);
    ReleaseUnused(destination);
    return Status::kIoError;
  }
  self().InstallDataBlock(logical, destination, copied.present, copied.dirty);
  return Status::kOk;
}

template <class Device>
bool HybridFtl<Device>::TrySwitchOrPartialMerge(PhysBlock victim) {
  const FlashGeometry& g = device_->geometry();
  const uint32_t ppb = g.pages_per_block;
  const std::vector<uint64_t>& lpns = log_contents_[victim];
  if (lpns.empty() || lpns[0] % ppb != 0) {
    return false;
  }
  // The prefix's log-page retirements and the block-map install commit
  // together (see MergeLogicalBlock).
  [[maybe_unused]] auto batch = self().MergeBatch();
  // Every programmed page i must hold offset i of one logical block and
  // still be its newest version.
  const LogicalBlock logical = lpns[0] / ppb;
  const Ppn base = g.FirstPpnOf(victim);
  for (size_t i = 0; i < lpns.size(); ++i) {
    if (lpns[i] != logical * ppb + i || device_->page_state(base + i) != PageState::kValid) {
      return false;
    }
  }
  const auto prefix = static_cast<uint32_t>(lpns.size());
  // A program failure closed the victim early: it cannot take the tail, so
  // it goes to the full merge, which copies into a fresh block.
  if (prefix < ppb && device_->BlockProgramFailed(victim)) {
    return false;
  }

  const auto source = self().PageSources(logical, /*with_log=*/true);
  Copied copied;
  // The prefix: page-mapped today, block-mapped after the switch.
  for (uint32_t off = 0; off < prefix; ++off) {
    const PageSource src = source(off);
    assert(src.from_log && src.ppn == base + off);
    copied.present |= uint64_t{1} << off;
    if (src.dirty) {
      copied.dirty |= uint64_t{1} << off;
    }
    self().RetireLogPage(logical * ppb + off);
  }
  if (prefix < ppb) {
    // Partial merge: complete the tail from wherever the newest version of
    // each remaining offset lives (another log block or the old data block).
    AssertOk(CopyPages(logical, prefix, victim, source, &copied));
    ++ftl_stats_.partial_merges;
  } else {
    ++ftl_stats_.switch_merges;
  }
  ReleaseLogContents(victim);
  self().InstallDataBlock(logical, victim, copied.present, copied.dirty);
  return true;
}

template <class Device>
Status HybridFtl<Device>::MergeOldestLogBlock() {
  if (log_blocks_.size() <= 1) {
    return Status::kNoSpace;
  }
  ++ftl_stats_.gc_invocations;
  const PhysBlock victim = log_blocks_.front();
  log_blocks_.pop_front();

  if (TrySwitchOrPartialMerge(victim)) {
    return Status::kOk;
  }
  if (const std::optional<Status> s = self().TryForwardCopy(victim); s.has_value()) {
    if (!IsOk(*s)) {
      // The victim is still a consistent log block (uncopied pages stay
      // page-mapped into it).
      log_blocks_.push_front(victim);
    }
    return *s;
  }

  // Full merge: rebuild every logical block with live pages in the victim.
  const FlashGeometry& g = device_->geometry();
  const Ppn base = g.FirstPpnOf(victim);
  const std::vector<uint64_t>& lpns = log_contents_[victim];
  std::vector<LogicalBlock> logicals;
  for (size_t i = 0; i < lpns.size(); ++i) {
    if (device_->page_state(base + i) == PageState::kValid) {
      const LogicalBlock l = lpns[i] / g.pages_per_block;
      if (std::find(logicals.begin(), logicals.end(), l) == logicals.end()) {
        logicals.push_back(l);
      }
    }
  }
  for (const LogicalBlock l : logicals) {
    if (Status s = MergeLogicalBlock(l); !IsOk(s)) {
      // MergeLogicalBlock fails only before copying anything (no free
      // destination), so the victim's remaining pages are still page-mapped
      // and consistent: put it back and report the shortage.
      log_blocks_.push_front(victim);
      return s;
    }
  }
  if (!logicals.empty()) {
    ++ftl_stats_.full_merges;
  }
  if (device_->valid_pages(victim) != 0) {
    // A degraded merge (destination program failures) left live pages
    // page-mapped in the victim; it is still a consistent log block.
    log_blocks_.push_front(victim);
    return Status::kOk;
  }
  ReleaseLogContents(victim);
  EraseOrRetire(victim);
  return Status::kOk;
}

template <class Device>
bool HybridFtl<Device>::WearLevelOnce(uint32_t max_wear_diff) {
  if (device_->MaxWearDiff() <= max_wear_diff) {
    return false;
  }
  PhysBlock coldest = kInvalidBlock;
  LogicalBlock logical = 0;
  if (!self().ColdestDataBlock(&coldest, &logical)) {
    return false;
  }
  const PhysBlock destination = allocator_->AllocateMostWorn();
  if (destination == kInvalidBlock) {
    return false;
  }
  if (device_->erase_count(destination) <= device_->erase_count(coldest) + max_wear_diff) {
    allocator_->Free(destination);  // spread is not where we can fix it
    return false;
  }
  if (!IsOk(RelocateDataBlock(logical, destination))) {
    return false;
  }
  ++ftl_stats_.wl_migrations;
  return true;
}

}  // namespace flashtier

#endif  // FLASHTIER_FTL_HYBRID_FTL_H_
