#include "src/ssc/ssc_device.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "src/util/rng.h"

namespace flashtier {

namespace {
// Spare erase blocks beyond nominal capacity: merge transients need a free
// destination block while both source and destination exist. This is not
// over-provisioned *capacity* (the SSC exposes none, Section 3.3) — it is the
// small internal slack any FTL needs to make forward progress.
constexpr uint32_t kSpareBlocks = 8;
constexpr uint32_t kMinFreeBlocks = 2;
}  // namespace

SscConfig ShardSscConfig(const SscConfig& device, uint32_t shards, uint32_t index) {
  const uint32_t n = std::max<uint32_t>(1, shards);
  SscConfig slice = device;
  slice.capacity_pages = device.capacity_pages / n + (index < device.capacity_pages % n ? 1 : 0);
  slice.fault_plan.seed = ShardSeed(device.fault_plan.seed, index);
  return slice;
}

SscDevice::SscDevice(const SscConfig& config, SimClock* clock)
    : config_(config) {
  const FlashGeometry& probe = config.geometry;
  const uint64_t capacity_blocks =
      (config.capacity_pages + probe.pages_per_block - 1) / probe.pages_per_block;
  FlashGeometry geometry = FlashGeometry::ForCapacity(
      (capacity_blocks + kSpareBlocks) * probe.EraseBlockBytes(), probe);
  AttachFlash(std::make_unique<FlashDevice>(geometry, clock, config.fault_plan));
  persist_ = std::make_unique<PersistenceManager>(config, clock);
  // Log commits and checkpoint I/O go through the device's event engine so
  // they overlap foreground media work on other planes.
  persist_->set_pipeline(device_->pipeline());
  // Bounded log regions need a way to reclaim space on their own: install
  // the snapshot source so the persistence layer can force a checkpoint when
  // a flush would overflow the region.
  persist_->set_checkpoint_source([this] { return SnapshotForCheckpoint(); });
  phys_to_logical_.assign(geometry.TotalBlocks(), kInvalidLbn);
  block_birth_.assign(geometry.TotalBlocks(), 0);
}

uint32_t SscDevice::LogBlockLimit() const {
  const uint32_t ppb = device_->geometry().pages_per_block;
  // Sized against the *usable* capacity: as retirement shrinks the medium,
  // the log reserve tightens proportionally instead of squeezing data blocks
  // until EnsureFreeBlocks dead-ends.
  const uint64_t capacity_blocks = (usable_capacity_pages() + ppb - 1) / ppb;
  const double fraction = config_.policy == EvictionPolicy::kSeUtil
                              ? kLogReserveFraction
                              : config_.max_log_fraction;
  return std::max<uint32_t>(
      2, static_cast<uint32_t>(static_cast<double>(capacity_blocks) * fraction));
}

// ---------------------------------------------------------------------------
// Host interface
// ---------------------------------------------------------------------------

Status SscDevice::Read(Lbn lbn, uint64_t* token) {
  ++ftl_stats_.host_reads;
  if (const std::optional<PageLocation> at = Locate(lbn)) {
    if (at->block != nullptr) {
      ++at->block->access_count;
    }
    const Status s = device_->ReadPage(at->ppn, token);
    return s == Status::kCorrupt ? DropCorruptPage(lbn, at->dirty) : s;
  }
  ++ftl_stats_.host_read_misses;
  // In-memory lookup + reply: pure controller work on the block's channel.
  device_->pipeline()->ExecuteControl(FlashTimings::kControlUs, lbn);
  return Status::kNotPresent;
}

void SscDevice::NoteLoss(Lbn lbn, bool dirty) {
  if (dirty) {
    ++ftl_stats_.lost_dirty_pages;
    if (loss_listener_ != nullptr) {
      loss_listener_->OnDirtyLoss(lbn);
    }
    if (data_loss_hook_) {
      data_loss_hook_(lbn);
    }
  } else {
    ++ftl_stats_.dropped_clean_pages;
  }
}

Status SscDevice::DropCorruptPage(Lbn lbn, bool dirty) {
  // Dropping the mapping keeps G2: the page reads not-present from now on,
  // never stale. The removal is buffered like a silent eviction; if a crash
  // loses it, the recovered mapping points back at the sticky-corrupt page
  // and the next read drops it again.
  //
  // The loss must be reported BEFORE the remove record is appended: the
  // append can flush or checkpoint, making the removal durable at a crash
  // commit point, and a loss the host never heard about reads as a broken G1.
  NoteLoss(lbn, dirty);
  InvalidateOldVersion(lbn);
  if (dirty) {
    return Status::kIoError;
  }
  ++ftl_stats_.host_read_misses;  // to the host this is an ordinary miss
  return Status::kNotPresent;
}

Status SscDevice::WriteDirty(Lbn lbn, uint64_t token) {
  return WriteInternal(lbn, token, /*dirty=*/true);
}

Status SscDevice::WriteClean(Lbn lbn, uint64_t token) {
  return WriteInternal(lbn, token, /*dirty=*/false);
}

Status SscDevice::WriteInternal(Lbn lbn, uint64_t token, bool dirty) {
  // Backpressure gate: refuse the op *before* any side effects when the log
  // region cannot absorb the records it would generate. Internal activity
  // (GC, merges, evicts) is never gated — it is what drains the region.
  if (!persist_->AdmitHostOp()) {
    return Status::kBackpressure;
  }
  ++ftl_stats_.host_writes;
  // Program first, so a write the medium rejects fails with no mapping or
  // log-record side effects: the cache still holds exactly what it held
  // before (failure atomicity).
  OobRecord oob;
  oob.lbn = lbn;
  oob.flags = dirty ? 1 : 0;
  Ppn ppn = kInvalidPpn;
  if (Status s = AppendToLog(kMinFreeBlocks, oob, token, &ppn); !IsOk(s)) {
    return s;
  }

  // An overwrite's remove and insert records must commit together: if a
  // group commit made the remove durable alone, a crash before the insert's
  // flush would recover with neither version of acknowledged data.
  PersistenceManager::AtomicBatchScope batch(persist_.get());
  const bool had_old = InvalidateOldVersion(lbn);
  const uint64_t packed = Pack(ppn, dirty);
  page_map_.Insert(lbn, packed);
  ++cached_pages_;  // InvalidateOldVersion decremented it if this is an overwrite
  if (dirty) {
    ++dirty_pages_;
  }

  // Section 4.2.1: write-dirty commits synchronously (G1); write-clean may be
  // buffered unless it replaces previous data at the same address, in which
  // case the mapping change must be durable before completion (G2). In kFull
  // mode clean inserts are also synchronous (the FlashTier-C/D config).
  const bool sync = dirty || had_old || config_.mode == ConsistencyMode::kFull;
  persist_->Append(PageInsertRecord(lbn, packed), sync);
  persist_->MaybeCheckpoint();
  MaybeEnduranceMaintenance();
  MaybeAudit();
  return Status::kOk;
}

void SscDevice::MaybeEnduranceMaintenance() {
  MaybeWearLevel();
  if (config_.patrol_interval_writes > 0 &&
      ++writes_since_patrol_ >= config_.patrol_interval_writes) {
    writes_since_patrol_ = 0;
    PatrolFlash(config_.patrol_blocks_per_pass);
  }
}

void SscDevice::MaybeAudit() {
  if (!audit_hook_) {
    return;
  }
  if (ftl_stats_.gc_invocations == last_audited_gc_ &&
      persist_->stats().checkpoints == last_audited_checkpoints_) {
    return;
  }
  last_audited_gc_ = ftl_stats_.gc_invocations;
  last_audited_checkpoints_ = persist_->stats().checkpoints;
  audit_hook_(*this);
}

bool SscDevice::InvalidateOldVersion(Lbn lbn) {
  const std::optional<PageLocation> at = Locate(lbn);
  if (!at) {
    return false;
  }
  AssertOk(device_->MarkInvalid(at->ppn));
  if (at->dirty) {
    --dirty_pages_;
  }
  --cached_pages_;
  if (at->block == nullptr) {
    RetireLogPage(lbn);
    return true;
  }
  BlockEntry* e = at->block;
  const uint64_t bit = uint64_t{1} << at->off;
  const uint64_t logical = lbn / device_->geometry().pages_per_block;
  e->present_bits &= ~bit;
  e->dirty_bits &= ~bit;
  // dirty_bits: the mask of bits cleared.
  persist_->Append({.type = LogOpType::kClearBlockPages, .key = logical, .dirty_bits = bit},
                   /*sync=*/false);
  if (e->present_bits == 0) {
    RemoveDataBlock(logical);
  }
  return true;
}

Status SscDevice::Evict(Lbn lbn) {
  const bool had = InvalidateOldVersion(lbn);
  if (had) {
    // Eviction is durable before the request completes (G3).
    persist_->Flush();
  }
  MaybeAudit();
  return Status::kOk;
}

Status SscDevice::Clean(Lbn lbn) {
  const std::optional<PageLocation> at = Locate(lbn);
  if (!at) {
    return Status::kNotPresent;
  }
  if (!at->dirty) {
    return Status::kOk;
  }
  --dirty_pages_;
  if (at->block == nullptr) {
    *at->packed = Pack(at->ppn, false);
    persist_->Append({.type = LogOpType::kSetCleanPage, .key = lbn}, /*sync=*/false);
    return Status::kOk;
  }
  const uint64_t bit = uint64_t{1} << at->off;
  const uint64_t logical = lbn / device_->geometry().pages_per_block;
  at->block->dirty_bits &= ~bit;
  // dirty_bits: the mask of bits cleared.
  persist_->Append({.type = LogOpType::kSetCleanBlocks, .key = logical, .dirty_bits = bit},
                   /*sync=*/false);
  return Status::kOk;
}

void SscDevice::Exists(Lbn start, uint64_t count, Bitmap* dirty_out) {
  dirty_out->Resize(count);
  device_->pipeline()->ExecuteControl(FlashTimings::kControlUs, start);  // device-memory scan
  for (uint64_t i = 0; i < count; ++i) {
    if (const std::optional<PageLocation> at = Locate(start + i); at && at->dirty) {
      dirty_out->Set(i);
    }
  }
}

void SscDevice::ExistsDetail(Lbn start, uint64_t count, std::vector<BlockInfo>* out) {
  out->assign(count, BlockInfo{});
  device_->pipeline()->ExecuteControl(FlashTimings::kControlUs, start);  // device-memory scan
  for (uint64_t i = 0; i < count; ++i) {
    if (const std::optional<PageLocation> at = Locate(start + i)) {
      // A page-mapped page was written at least once recently.
      (*out)[i] = {.present = true,
                   .dirty = at->dirty,
                   .access_frequency = at->block != nullptr ? at->block->access_count : 1};
    }
  }
}

uint32_t SscDevice::BackgroundCollect(uint64_t budget_us) {
  const uint64_t deadline = device_->now_us() + budget_us;
  uint32_t reclaimed = 0;
  while (device_->now_us() < deadline) {
    if (ReclaimDeadBlock()) {
      ++reclaimed;
      continue;
    }
    const uint64_t free_before = allocator_->FreeCount();
    if (!CollectFullestPlane()) {
      break;  // nothing evictable; don't burn idle time copying
    }
    reclaimed += static_cast<uint32_t>(allocator_->FreeCount() - free_before);
  }
  MaybeAudit();
  return reclaimed;
}

bool SscDevice::ColdestDataBlock(PhysBlock* phys, LogicalBlock* logical) const {
  // Section 3.3: the device "may relocate data to perform wear leveling".
  PhysBlock coldest = kInvalidBlock;
  uint32_t coldest_wear = ~0u;
  for (PhysBlock b = 0; b < device_->geometry().TotalBlocks(); ++b) {
    if (phys_to_logical_[b] != kInvalidLbn && device_->erase_count(b) < coldest_wear) {
      coldest_wear = device_->erase_count(b);
      coldest = b;
    }
  }
  if (coldest == kInvalidBlock) {
    return false;
  }
  *phys = coldest;
  *logical = phys_to_logical_[coldest];
  return true;
}

uint32_t SscDevice::PatrolFlash(uint32_t max_blocks) {
  const FaultPlan& plan = device_->fault_plan();
  if (plan.read_disturb_limit == 0 && plan.retention_age_us == 0) {
    return 0;
  }
  const uint32_t total = device_->geometry().TotalBlocks();
  uint32_t refreshed = 0;
  for (uint32_t step = 0; step < total && refreshed < max_blocks; ++step) {
    const PhysBlock b = patrol_cursor_;
    patrol_cursor_ = (patrol_cursor_ + 1) % total;
    const uint64_t logical = phys_to_logical_[b];
    if (logical == kInvalidLbn) {
      continue;
    }
    // "Risky" = exposure at 75% of the device's fault threshold. The patrol
    // is not paused against fault injection: its own relocation reads can
    // trigger the very disturb faults it is racing, which is the race the
    // aging harness measures (corruption-vs-repair).
    const bool disturb_risk =
        plan.read_disturb_limit > 0 &&
        device_->ReadsSinceErase(b) * 4 >= static_cast<uint64_t>(plan.read_disturb_limit) * 3;
    const bool retention_risk = plan.retention_age_us > 0 &&
                                device_->OldestProgramAgeUs(b) * 4 >= plan.retention_age_us * 3;
    if (!disturb_risk && !retention_risk) {
      continue;
    }
    const PhysBlock destination = allocator_->Allocate();
    if (destination == kInvalidBlock) {
      break;  // no slack this pass; the cursor resumes here next time
    }
    if (IsOk(RelocateDataBlock(logical, destination))) {
      ++refreshed;
      ++ftl_stats_.patrol_repairs;
    }
  }
  return refreshed;
}

void SscDevice::ChargeExistsScan() {
  // Model the scan as batched exists commands, one per 64 Ki blocks of the
  // cached footprint; each is a device-RAM lookup plus a command round trip.
  const uint64_t calls = cached_pages_ / 65536 + 1;
  device_->pipeline()->ExecuteControl(calls * FlashTimings::kControlUs, 0);
}

// ---------------------------------------------------------------------------
// Free space management (Section 4.3)
// ---------------------------------------------------------------------------

bool SscDevice::ReclaimDeadBlock() {
  if (dead_blocks_.empty()) {
    return false;
  }
  // Blocks with no live data: erase lazily.
  const PhysBlock b = dead_blocks_.front();
  dead_blocks_.pop_front();
  EraseOrRetire(b);
  return true;
}

bool SscDevice::CollectFullestPlane() {
  const FlashGeometry& g = device_->geometry();
  const uint32_t planes = g.planes;
  const uint32_t first = allocator_->FullestPlane();
  for (uint32_t step = 0; step < planes; ++step) {
    const uint32_t plane = (first + step) % planes;
    // Gather clean (fully evictable) data blocks in this plane with their
    // utilization; silent eviction picks the least-utilized (SE-Util victim
    // policy, also used for victim choice by SE-Merge).
    std::vector<std::pair<uint32_t, PhysBlock>> candidates;  // (valid pages, block)
    uint64_t birth_sum = 0;
    for (uint32_t i = 0; i < g.blocks_per_plane; ++i) {
      const PhysBlock b = g.BlockAt(plane, i);
      const Lbn logical = phys_to_logical_[b];
      if (logical == kInvalidLbn) {
        continue;
      }
      const BlockEntry* e = block_map_.Find(logical);
      if (e != nullptr && e->dirty_bits == 0) {
        candidates.emplace_back(device_->valid_pages(b), b);
        birth_sum += block_birth_[b];
      }
    }
    if (candidates.empty()) {
      continue;
    }
    // Age-aware SE-Util: freshly-merged blocks are sparse *because they are
    // young*, not because their data is stale. Prefer victims older than the
    // candidate-average birth; fall back to all candidates if that leaves
    // nothing (Section 4.1's eviction-guiding usage statistics).
    const uint64_t birth_cutoff = birth_sum / candidates.size();
    std::vector<std::pair<uint32_t, PhysBlock>> aged;
    for (const auto& c : candidates) {
      if (block_birth_[c.second] <= birth_cutoff) {
        aged.push_back(c);
      }
    }
    if (!aged.empty()) {
      candidates.swap(aged);
    }
    ++ftl_stats_.gc_invocations;
    std::sort(candidates.begin(), candidates.end());
    const size_t k = std::min<size_t>(config_.gc_victims_per_cycle, candidates.size());
    for (size_t i = 0; i < k; ++i) {
      SilentlyEvict(candidates[i].second, phys_to_logical_[candidates[i].second]);
    }
    return true;
  }
  return false;
}

void SscDevice::SilentlyEvict(PhysBlock phys, uint64_t logical) {
  BlockEntry* e = block_map_.Find(logical);
  assert(e != nullptr && e->phys == phys && e->dirty_bits == 0);
  const FlashGeometry& g = device_->geometry();
  const uint32_t ppb = g.pages_per_block;
  const uint32_t dropped = static_cast<uint32_t>(std::popcount(e->present_bits));
  for (uint32_t off = 0; off < ppb; ++off) {
    if ((e->present_bits >> off) & 1u) {
      AssertOk(device_->MarkInvalid(g.FirstPpnOf(phys) + off));
    }
  }
  cached_pages_ -= dropped;
  ftl_stats_.silently_evicted_pages += dropped;
  ++ftl_stats_.silent_evictions;
  block_map_.Erase(logical);
  UnmapDataBlock(logical, phys);
  EraseOrRetire(phys);
}

// ---------------------------------------------------------------------------
// Log-block reclamation: switch / partial / full merges
// ---------------------------------------------------------------------------

void SscDevice::RetireLogPage(Lbn lbn) {
  page_map_.Erase(lbn);
  persist_->Append({.type = LogOpType::kRemovePage, .key = lbn}, /*sync=*/false);
}

void SscDevice::UnmapDataBlock(uint64_t logical, PhysBlock phys) {
  persist_->Append({.type = LogOpType::kRemoveBlock, .key = logical}, /*sync=*/false);
  phys_to_logical_[phys] = kInvalidLbn;
}

LogRecord SscDevice::BlockInsertRecord(uint64_t logical, const BlockEntry& e) const {
  return {.type = LogOpType::kInsertBlock,
          .key = logical,
          .ppn = device_->geometry().FirstPpnOf(e.phys),
          .present_bits = e.present_bits,
          .dirty_bits = e.dirty_bits};
}

void SscDevice::InstallDataBlock(uint64_t logical, PhysBlock phys, uint64_t present_bits,
                                 uint64_t dirty_bits) {
  // The remove of the old entry and the insert of its replacement must reach
  // the log as one atomic batch (Section 4.2.2: transient states exposing
  // stale or missing data are not possible) — so append both *before* any
  // flush, and only erase the old block once the batch is durable.
  PersistenceManager::AtomicBatchScope batch(persist_.get());
  BlockEntry* old = block_map_.Find(logical);
  PhysBlock old_phys = kInvalidBlock;
  if (old != nullptr) {
    old_phys = old->phys;
    assert(device_->valid_pages(old_phys) == 0);
    UnmapDataBlock(logical, old_phys);
  }
  BlockEntry fresh;
  fresh.phys = phys;
  fresh.present_bits = present_bits;
  fresh.dirty_bits = dirty_bits;
  block_map_.Insert(logical, fresh);
  persist_->Append(BlockInsertRecord(logical, fresh), /*sync=*/false);
  phys_to_logical_[phys] = logical;
  block_birth_[phys] = ++birth_counter_;
  if (old_phys != kInvalidBlock) {
    EraseOrRetire(old_phys);
  }
}

void SscDevice::DropLostPage(Lbn lbn, bool dirty) {
  NoteLoss(lbn, dirty);
  --cached_pages_;
  if (dirty) {
    --dirty_pages_;
  }
}

void SscDevice::RemoveDataBlock(uint64_t logical) {
  const BlockEntry* e = block_map_.Find(logical);
  if (e == nullptr) {
    return;
  }
  const PhysBlock phys = e->phys;
  block_map_.Erase(logical);
  UnmapDataBlock(logical, phys);
  dead_blocks_.push_back(phys);
}

std::optional<Status> SscDevice::TryForwardCopy(PhysBlock victim) {
  // Forward-copying pays only when most of the victim is superseded; a
  // mostly-live victim would just rotate through the log (copying its pages
  // to the frontier over and over), so consolidate it into data blocks
  // instead. The log may not outgrow the fraction its page-level mappings
  // reserved memory for (Section 5: 0-20% for SSC-R).
  if (config_.policy != EvictionPolicy::kSeMerge || log_blocks_.size() >= LogBlockLimit() ||
      device_->valid_pages(victim) > device_->geometry().pages_per_block / 2) {
    return std::nullopt;
  }
  return ForwardCopyLogBlock(victim);
}

Status SscDevice::ForwardCopyLogBlock(PhysBlock victim) {
  // SE-Merge log reclamation (Section 4.3): instead of full merges, live log
  // pages are copied forward to the log frontier (still page-mapped), and
  // data blocks are only created by switch merges. Copy cost is one page per
  // *live* page — overwrite-heavy workloads leave log victims nearly empty.
  const Ppn base = device_->geometry().FirstPpnOf(victim);
  const std::vector<Lbn>& lpns = log_contents_[victim];
  for (size_t i = 0; i < lpns.size(); ++i) {
    if (device_->page_state(base + i) != PageState::kValid) {
      continue;
    }
    const Lbn lbn = lpns[i];
    const uint64_t* packed = page_map_.Find(lbn);
    assert(packed != nullptr && PackedPpn(*packed) == base + i);
    const bool dirty = PackedDirty(*packed);
    // Destination: the active log block, growing the log as needed. A
    // program abort poisons the frontier block, so retry on a fresh one.
    Status cs = Status::kIoError;
    Ppn dst = kInvalidPpn;
    for (uint32_t attempt = 0; cs == Status::kIoError && attempt <= kProgramRetryLimit; ++attempt) {
      if (attempt > 0) {
        ++ftl_stats_.program_retries;
      }
      if (!ActiveLogBlockWritable()) {
        const PhysBlock fresh = AllocateWithoutCopying();
        if (fresh == kInvalidBlock) {
          return Status::kNoSpace;
        }
        OpenLogBlock(fresh);
      }
      cs = device_->CopyPage(base + i, log_blocks_.back(), &dst);
    }
    if (cs == Status::kCorrupt) {
      // Unreadable source: the page cannot move forward; drop it.
      DropPage(lbn, {base + i, dirty, /*from_log=*/true});
      continue;
    }
    if (!IsOk(cs)) {
      return cs;
    }
    page_map_.Insert(lbn, Pack(dst, dirty));
    log_contents_[log_blocks_.back()].push_back(lbn);
    persist_->Append(PageInsertRecord(lbn, Pack(dst, dirty)), /*sync=*/false);
  }
  ReleaseLogContents(victim);
  EraseOrRetire(victim);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Crash and recovery (Section 4.2.2)
// ---------------------------------------------------------------------------

void SscDevice::DrainLog() {
  if (config_.mode == ConsistencyMode::kNone) {
    return;
  }
  persist_->NoteBackpressureStall();
  persist_->ForceCheckpoint();
}

void SscDevice::SimulateCrash() {
  ResetRamState();
  // Power failure loses in-flight device work: the event engine's resource
  // frontiers reset along with the device's RAM state.
  device_->pipeline()->Reset();
  persist_->Crash();
}

void SscDevice::ResetRamState() {
  block_map_.Clear();
  page_map_.Clear();
  ResetLog();
  dead_blocks_.clear();
  phys_to_logical_.assign(device_->geometry().TotalBlocks(), kInvalidLbn);
  block_birth_.assign(device_->geometry().TotalBlocks(), 0);
  birth_counter_ = 0;
  cached_pages_ = 0;
  dirty_pages_ = 0;
  writes_since_wear_level_ = 0;
  writes_since_patrol_ = 0;
  patrol_cursor_ = 0;
}

Status SscDevice::Recover() {
  // Recovery is re-entrant: a crash at any RecoveryPoint leaves durable
  // state untouched, and starting from scratch here discards whatever a
  // previous aborted attempt had rebuilt (without this reset, a second
  // Recover would double-queue dead blocks and double-count pages).
  ResetRamState();
  recovered_kv_.clear();

  std::vector<LogRecord> checkpoint;
  std::vector<LogRecord> tail;
  persist_->Recover(&checkpoint, &tail);

  const uint64_t rebuild_start_us = device_->now_us();
  const FlashGeometry& g = device_->geometry();
  const uint32_t ppb = g.pages_per_block;

  // 1. Forward maps: checkpoint, then roll the log forward. Pre-size both
  // maps for the checkpoint's bulk load so recovery pays one table
  // allocation per map instead of a rehash cascade.
  size_t block_entries = 0;
  size_t page_entries = 0;
  for (const LogRecord& r : checkpoint) {
    block_entries += r.type == LogOpType::kInsertBlock ? 1 : 0;
    page_entries += r.type == LogOpType::kInsertPage ? 1 : 0;
  }
  block_map_.Reserve(block_entries);
  page_map_.Reserve(page_entries);
  for (const std::vector<LogRecord>* records : {&checkpoint, &tail}) {
    for (const LogRecord& r : *records) {
      switch (r.type) {
        case LogOpType::kInsertPage:
          page_map_.Insert(r.key, Pack(r.ppn, r.dirty_bits != 0));
          break;
        case LogOpType::kRemovePage:
          page_map_.Erase(r.key);
          break;
        case LogOpType::kInsertBlock: {
          BlockEntry be;
          be.phys = g.BlockOf(r.ppn);
          be.present_bits = r.present_bits;
          be.dirty_bits = r.dirty_bits;
          block_map_.Insert(r.key, be);
          break;
        }
        case LogOpType::kRemoveBlock:
          block_map_.Erase(r.key);
          break;
        case LogOpType::kClearBlockPages:
          if (BlockEntry* e = block_map_.Find(r.key); e != nullptr) {
            e->present_bits &= ~r.dirty_bits;
            e->dirty_bits &= ~r.dirty_bits;
            if (e->present_bits == 0) {
              block_map_.Erase(r.key);
            }
          }
          break;
        case LogOpType::kSetCleanPage:
          if (uint64_t* packed = page_map_.Find(r.key); packed != nullptr) {
            *packed = Pack(PackedPpn(*packed), false);
          }
          break;
        case LogOpType::kSetCleanBlocks:
          if (BlockEntry* e = block_map_.Find(r.key); e != nullptr) {
            e->dirty_bits &= ~r.dirty_bits;
          }
          break;
        case LogOpType::kKvInsertSlot:
        case LogOpType::kKvDeleteSlot:
          // KV slot-directory records are opaque to the SSC's own maps; they
          // are handed to the KV layer, which rebuilds after the device.
          recovered_kv_.push_back(r);
          break;
      }
    }
  }

  // 2. Reverse maps and block state, reconciled against the medium. Entries
  // pointing at pages that never became durable are pruned; valid pages no
  // recovered mapping references are invalidated (their inserts were lost in
  // the crash — equivalent to a silent eviction, per Section 4.2.1).
  std::unordered_map<PhysBlock, uint64_t> log_refs;  // block -> offset bitmap
  std::vector<Lbn> dropped_pages;
  page_map_.ForEach([&](Lbn lbn, uint64_t packed) {
    const Ppn ppn = PackedPpn(packed);
    if (device_->page_state(ppn) == PageState::kFree || device_->oob(ppn).lbn != lbn) {
      dropped_pages.push_back(lbn);
      return;
    }
    log_refs[g.BlockOf(ppn)] |= uint64_t{1} << g.PageOf(ppn);
  });
  for (Lbn lbn : dropped_pages) {
    page_map_.Erase(lbn);
  }

  std::vector<uint64_t> dropped_blocks;
  block_map_.ForEach([&](uint64_t logical, const BlockEntry& e) {
    bool any = false;
    for (uint32_t off = 0; off < ppb; ++off) {
      if (((e.present_bits >> off) & 1u) != 0 &&
          device_->page_state(g.FirstPpnOf(e.phys) + off) != PageState::kFree) {
        any = true;
        break;
      }
    }
    if (!any) {
      dropped_blocks.push_back(logical);
    }
  });
  for (uint64_t logical : dropped_blocks) {
    block_map_.Erase(logical);
  }
  block_map_.ForEach([&](uint64_t logical, const BlockEntry& e) {
    phys_to_logical_[e.phys] = logical;
  });

  // Rebuild allocator and per-block validity. The free-list sweep and the
  // validity reconciliation overlap normal activity and do not delay
  // start-up (Section 6.4) — the forward map alone decides what a read may
  // see — so neither is charged against recovery.
  allocator_ = std::make_unique<BlockAllocator>(*device_, g.TotalBlocks());  // starts empty
  cached_pages_ = 0;
  dirty_pages_ = 0;
  std::vector<std::pair<uint64_t, PhysBlock>> recovered_logs;  // (first seq, block)
  for (PhysBlock b = 0; b < g.TotalBlocks(); ++b) {
    const Ppn base = g.FirstPpnOf(b);
    const uint64_t logical = phys_to_logical_[b];
    uint64_t want = 0;
    if (logical != kInvalidLbn) {
      want = block_map_.Find(logical)->present_bits;
    } else if (const auto it = log_refs.find(b); it != log_refs.end()) {
      want = it->second;
    }
    if (want == 0) {
      if (device_->BlockBad(b)) {
        // Bad blocks are sticky medium state: re-retire without recounting
        // (the failure was counted when the erase first failed). Mappings
        // never reference them — removals are flushed before any erase.
        // With retirement deliberately broken, keep mis-freeing them so the
        // invariant checker can prove it notices.
        if (config_.break_retirement_for_testing) {
          allocator_->Free(b);
        } else {
          allocator_->Retire(b);
        }
      } else if (device_->BlockErased(b)) {
        allocator_->Free(b);
      } else {
        dead_blocks_.push_back(b);
      }
      continue;
    }
    uint64_t min_seq = ~uint64_t{0};
    for (uint32_t off = 0; off < device_->write_pointer(b); ++off) {
      const bool referenced = ((want >> off) & 1u) != 0;
      const PageState state = device_->page_state(base + off);
      if (state == PageState::kValid && !referenced) {
        // The insert that would have referenced this page was lost in the
        // crash: treat it as silently evicted.
        AssertOk(device_->MarkInvalid(base + off));
      } else if (state == PageState::kInvalid && referenced) {
        // Pre-crash RAM had superseded this page (e.g. a merge was copying
        // it) but only the old mapping is durable; the old page is live.
        AssertOk(device_->MarkValid(base + off));
      }
      if (referenced) {
        min_seq = std::min(min_seq, device_->oob(base + off).seq);
      }
    }
    if (logical == kInvalidLbn) {
      recovered_logs.emplace_back(min_seq, b);
    }
  }

  // 3. Log-block list: FIFO by program sequence; a partially-filled block (at
  // most one under normal operation) goes to the back as the active block.
  // This is the one scan that MUST finish before the device accepts writes —
  // appends and GC need the log contents — so its OOB reads (one metadata
  // page per log block) are what the rebuild phase charges.
  std::sort(recovered_logs.begin(), recovered_logs.end());
  std::stable_partition(recovered_logs.begin(), recovered_logs.end(),
                        [&](const auto& p) { return device_->BlockFull(p.second); });
  for (const auto& [seq, b] : recovered_logs) {
    OpenLogBlock(b);
    for (uint32_t off = 0; off < device_->write_pointer(b); ++off) {
      log_contents_[b].push_back(device_->oob(g.FirstPpnOf(b) + off).lbn);
    }
  }

  // 4. Page counts.
  page_map_.ForEach([&](Lbn, uint64_t packed) {
    ++cached_pages_;
    if (PackedDirty(packed)) {
      ++dirty_pages_;
    }
  });
  block_map_.ForEach([&](uint64_t, const BlockEntry& e) {
    cached_pages_ += static_cast<uint64_t>(std::popcount(e.present_bits));
    dirty_pages_ += static_cast<uint64_t>(std::popcount(e.dirty_bits));
  });

  device_->pipeline()->ExecuteLog(recovered_logs.size() * FlashTimings::ReadCostUs());
  persist_->RecordRebuildTime(device_->now_us() - rebuild_start_us);
  persist_->NotifyRecoveryPoint(RecoveryPoint::kMapsRebuilt);
  persist_->NotifyRecoveryPoint(RecoveryPoint::kDone);
  return Status::kOk;
}

std::vector<LogRecord> SscDevice::SnapshotForCheckpoint() const {
  // Only forward mappings are checkpointed (Section 4.2.2); reverse maps and
  // block state live in OOB areas and are reconstructed at recovery.
  std::vector<LogRecord> records;
  records.reserve(page_map_.size() + block_map_.size());
  page_map_.ForEach(
      [&records](Lbn lbn, uint64_t packed) { records.push_back(PageInsertRecord(lbn, packed)); });
  block_map_.ForEach([this, &records](uint64_t logical, const BlockEntry& e) {
    records.push_back(BlockInsertRecord(logical, e));
  });
  if (kv_snapshot_source_) {
    kv_snapshot_source_(&records);
  }
  return records;
}

// ---------------------------------------------------------------------------
// Memory accounting (Table 4)
// ---------------------------------------------------------------------------

size_t SscDevice::DeviceMemoryUsage() const {
  size_t bytes = block_map_.MemoryUsage() + page_map_.MemoryUsage();
  bytes += LogContentsMemoryUsage();
  bytes += phys_to_logical_.capacity() * sizeof(Lbn);
  bytes += allocator_->MemoryUsage();
  bytes += persist_->MemoryUsage();
  return bytes;
}

size_t SscDevice::ReservedDeviceMemoryUsage() const {
  // Page-level mappings must be reserved for the maximum log fraction
  // (Section 5): entry plus amortized group/bitmap overhead per bucket.
  const double fraction = config_.policy == EvictionPolicy::kSeUtil ? kLogReserveFraction
                                                                    : config_.max_log_fraction;
  const auto reserved_entries =
      static_cast<uint64_t>(static_cast<double>(config_.capacity_pages) * fraction);
  const size_t per_entry = sizeof(SparseHashMap<Lbn, uint64_t>::Entry) + 2;
  size_t bytes = block_map_.MemoryUsage() + reserved_entries * per_entry;
  bytes += LogContentsMemoryUsage();
  bytes += phys_to_logical_.capacity() * sizeof(Lbn);
  bytes += allocator_->MemoryUsage();
  bytes += persist_->MemoryUsage();
  return bytes;
}

}  // namespace flashtier
