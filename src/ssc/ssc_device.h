// The Solid-State Cache (SSC): the paper's primary contribution.
//
// An SSC is a flash device whose interface and FTL are specialized for
// caching (Sections 3-4):
//
//   * Unified sparse address space: the host addresses the SSC with disk
//     LBNs. Internally a hybrid mapping is kept in sparse hash maps — most
//     cached data is block-mapped (256 KB granularity) and a log-block
//     fraction is page-mapped (4 KB), as in the hybrid FTLs the paper builds
//     on, but keyed by the sparse disk address space rather than a dense
//     device address space.
//
//   * Six-operation consistent interface: write-dirty, write-clean, read,
//     evict, clean, exists, with guarantees G1 (dirty writes durable), G2
//     (clean writes return new data or not-present — never stale) and G3
//     (reads after evict return not-present).
//
//   * Durability: mapping changes are logged via the PersistenceManager.
//     write-dirty and evict commit synchronously; write-clean commits
//     synchronously only when it replaces existing data (the mapping change
//     must be durable, Section 4.2.1) and is group-committed otherwise;
//     clean is always buffered (a crash may revert cleaned blocks to dirty).
//     Internal reclamation (GC, merges, silent eviction) flushes the log
//     before erasing any block so a recovered mapping can never reference
//     reused flash.
//
//   * Silent eviction: garbage collection drops clean blocks instead of
//     copying them. SE-Util (the "SSC" config) keeps a fixed 7% log-block
//     reserve; SE-Merge (the "SSC-R" config) lets the log fraction float up
//     to 20% and prefers creating data blocks by switch merges.
//
// The SSC carries a few spare erase blocks for merge transients but no
// over-provisioned capacity: when space runs out it evicts, which is the
// point (Section 3.3).
//
// The log blocks, merges, wear leveling and fault handling are the hybrid-FTL
// engine it shares with the baseline SSD (src/ftl/hybrid_ftl.h). This class
// is the SSC's translation over that engine: the sparse unified maps with
// their dirty bits, what a lost page means (G1 data loss or a miss), the
// logged installation of data blocks, and reclamation without copying — the
// dead-block queue and silent eviction — plus SE-Merge's forward copying,
// patrol scrubbing, recovery and checkpoints.

#ifndef FLASHTIER_SSC_SSC_DEVICE_H_
#define FLASHTIER_SSC_SSC_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/ftl/hybrid_ftl.h"
#include "src/sparsemap/sparse_hash_map.h"
#include "src/ssc/persist.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace flashtier {

class InvariantChecker;

enum class EvictionPolicy : uint8_t {
  kSeUtil,   // "SSC": fixed log reserve, evict min-utilization clean blocks
  kSeMerge,  // "SSC-R": floating log fraction (up to 20%), switch-merge-first
};

// An SSC's settings: its persistence (PersistenceManager::Options: mode,
// group commit, checkpoint cadence, log region, segments), its hybrid-FTL
// engine (FtlOptions: geometry, faults, wear leveling) and what
// only the SSC has.
struct SscConfig : PersistenceManager::Options, FtlOptions {
  // A bounded log region, far above what the ratio/interval checkpoint
  // policies let the log reach, so backpressure only engages when those are
  // configured off or the region is deliberately squeezed.
  SscConfig() : PersistenceManager::Options{.log_region_pages = 4096} {}

  uint64_t capacity_pages = 0;  // nominal cache capacity in 4 KB pages
  EvictionPolicy policy = EvictionPolicy::kSeUtil;
  // SE-Merge's log ceiling; SE-Util keeps the engine's fixed 7% reserve.
  double max_log_fraction = 0.20;
  uint32_t gc_victims_per_cycle = 4;  // top-k victim blocks per collection
  // Patrol scrub (DESIGN.md §5l): one PatrolFlash pass every N host writes
  // (0 = off), refreshing at most `patrol_blocks_per_pass` blocks.
  uint32_t patrol_interval_writes = 0;
  uint32_t patrol_blocks_per_pass = 4;
  // Self-test knob (flashcheck --break-retry): return erase-failed blocks to
  // the free pool instead of retiring them, so the invariant checker's
  // partition audit provably detects the broken bad-block management.
  bool break_retirement_for_testing = false;
};

// Shard `index` of `shards`' slice of a whole-device config: an even share
// of the capacity (the remainder goes to the low shards) and its own fault
// stream, seeded by ShardSeed so a shard's draws depend only on its own
// operation order.
SscConfig ShardSscConfig(const SscConfig& device, uint32_t shards, uint32_t index);

class SscDevice : public HybridFtl<SscDevice> {
 public:
  explicit SscDevice(const SscConfig& config, SimClock* clock);

  // ---- The SSC interface (Section 4.2.1) ----

  // Insert or update a block with dirty data; durable on return (G1).
  Status WriteDirty(Lbn lbn, uint64_t token);

  // Insert or update a block with clean data; a following read returns the
  // new data or not-present (G2).
  Status WriteClean(Lbn lbn, uint64_t token);

  // Read a block if present, else kNotPresent.
  Status Read(Lbn lbn, uint64_t* token);

  // Evict a block immediately; durable on return (G3).
  Status Evict(Lbn lbn);

  // Mark a block clean so the SSC may silently evict it later. Asynchronous;
  // after a crash cleaned blocks may return to their dirty state.
  Status Clean(Lbn lbn);

  // Test for the presence of dirty blocks in [start, start+count): bit i of
  // `dirty_out` is set iff block start+i is present and dirty. Served from
  // device memory.
  void Exists(Lbn start, uint64_t count, Bitmap* dirty_out);

  // Per-block metadata returned by the extended exists query (Section 4.2.1:
  // exists "could be extended to return additional per-block metadata, such
  // as access time or frequency, to help manage cache contents").
  struct BlockInfo {
    bool present = false;
    bool dirty = false;
    uint32_t access_frequency = 0;  // reads+overwrites since caching
  };

  // Extended exists: presence, dirty state and access frequency for each
  // block in [start, start+count). Served from device memory.
  void ExistsDetail(Lbn start, uint64_t count, std::vector<BlockInfo>* out);

  // Background garbage collection (Section 5 integrates silent eviction
  // "with background and foreground garbage collection"): reclaim space
  // during idle time, spending at most `budget_us` of device time. Returns
  // the number of blocks reclaimed.
  uint32_t BackgroundCollect(uint64_t budget_us);

  // One patrol-scrub pass (the flash-tier mirror of the disk tier's
  // ScrubDisk): walks data blocks from a persistent cursor and relocates
  // those whose read-disturb or retention exposure is within 25% of the
  // device's fault thresholds, before the exposure turns into corruption.
  // The relocation is a fresh program (retention clock restarts) followed by
  // an erase of the source (disturb counter resets). Refreshes at most
  // `max_blocks` blocks; returns how many it refreshed. No-op when the fault
  // plan models neither wear effect.
  uint32_t PatrolFlash(uint32_t max_blocks);

  // Streams every (lbn, dirty) cached page to `fn(lbn, dirty)`, charging the
  // same device-memory cost as an exists scan of the spanned address range
  // would. Used by write-back cache-manager recovery.
  template <typename Fn>
  void ForEachCached(Fn&& fn) {
    ChargeExistsScan();
    VisitCached(fn);
  }

  // ---- Crash simulation / recovery (Section 4.2.2) ----

  // Power failure: device RAM (maps, log buffer, GC state) is lost; the
  // flash medium and the durable log/checkpoint regions survive.
  void SimulateCrash();

  // Roll-forward recovery: checkpoint + log replay, then reconstruction of
  // reverse maps and block state. Leaves the device ready to serve requests.
  // Idempotent: device RAM is reset on entry, so a crash at any RecoveryPoint
  // can simply run Recover() again.
  Status Recover();

  // Drains the log region by forcing a checkpoint, counting one backpressure
  // stall. Cache managers call this when a write returns kBackpressure, then
  // retry (the bounded-stall path); no-op in kNone mode.
  void DrainLog();
  // The bound on that stall: drains a writer spends on one kBackpressure
  // before it gives up.
  static constexpr uint32_t kBackpressureDrainLimit = 4;

  // ---- Introspection ----

  uint64_t capacity_pages() const { return config_.capacity_pages; }
  uint64_t cached_pages() const { return cached_pages_; }
  uint64_t dirty_pages() const { return dirty_pages_; }

  // Graceful capacity degradation: the nominal capacity minus every page of
  // every retired block. Cache managers size their dirty thresholds against
  // this, so an aging device serves a proportionally smaller cache instead of
  // dead-ending in kNoSpace.
  uint64_t usable_capacity_pages() const {
    const uint64_t retired_pages = static_cast<uint64_t>(allocator_->RetiredCount()) *
                                   device_->geometry().pages_per_block;
    return retired_pages >= config_.capacity_pages ? 0 : config_.capacity_pages - retired_pages;
  }
  // Blocks permanently retired (allocator ground truth, survives recovery).
  uint64_t retired_block_count() const { return allocator_->RetiredCount(); }

  const PersistStats& persist_stats() const { return persist_->stats(); }
  // Mutable medium access for test harnesses (e.g. pausing fault injection
  // while a checker observes the device).
  FlashDevice* device_for_testing() { return device_.get(); }
  uint64_t last_recovery_us() const { return persist_->stats().last_recovery_us; }

  // Device-resident mapping memory actually in use (Table 4 "SSC" column).
  size_t DeviceMemoryUsage() const;
  // SE-Merge must reserve device memory for page-level mappings of the
  // maximum log fraction (Table 4 "SSC-R" column accounting).
  size_t ReservedDeviceMemoryUsage() const;

  uint64_t current_log_blocks() const { return log_blocks_.size(); }
  uint64_t free_blocks() const { return allocator_->FreeCount(); }
  uint64_t data_block_entries() const { return block_map_.size(); }
  uint64_t page_map_entries() const { return page_map_.size(); }

  // ---- FlashCheck instrumentation ----

  // Debug audit hook: when set, invoked with the device at a quiescent state
  // at the end of any host operation during which a garbage-collection pass
  // ran or a checkpoint was written. Tests install a hook that runs
  // InvariantChecker::Check and asserts an empty report, so every GC/merge/
  // checkpoint interleaving a workload produces is audited in place.
  using AuditHook = std::function<void(const SscDevice&)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

  // The cache manager over this device. It is told of every *dirty* page
  // the device loses, when the loss is reported and before the data-loss
  // hook, so its dirty table never names a block the device has dropped
  // (DESIGN.md §5i). One listener at a time: a manager installs itself when
  // built and removes itself when destroyed, if still installed.
  class LossListener {
   public:
    virtual void OnDirtyLoss(Lbn lbn) = 0;

   protected:
    ~LossListener() = default;
  };
  void set_loss_listener(LossListener* listener) { loss_listener_ = listener; }
  const LossListener* loss_listener() const { return loss_listener_; }

  // Invoked with the LBN whenever a *dirty* cached page is lost to a medium
  // error (uncorrectable read, or a merge that could not relocate it), after
  // the loss listener. The crash explorer and the replay oracle use it to
  // tell accounted data loss from silent corruption; a write-back manager
  // listening has already forgotten the block and counted it in
  // ManagerStats (lost_dirty).
  using DataLossHook = std::function<void(Lbn)>;
  void set_data_loss_hook(DataLossHook hook) { data_loss_hook_ = std::move(hook); }

  // The crash explorer installs its commit-point hook directly on the
  // persistence manager and flips its broken-recovery flag through this.
  PersistenceManager* persist_for_testing() { return persist_.get(); }

  // ---- KV layer plumbing (src/kv, DESIGN.md §5k) ----

  // The KV layer shares this shard's persistence log: its slot records ride
  // the same group-commit/checkpoint machinery, so G1–G3 extend to objects.
  PersistenceManager* persist() { return persist_.get(); }

  // Installed by the KV layer: appends the live slots' kKvInsertSlot records
  // to a checkpoint after the device's own, so device checkpoints subsume the
  // KV slot directory too (a checkpoint that truncated the log without them
  // would silently forget every slot).
  using KvSnapshotSource = std::function<void(std::vector<LogRecord>*)>;
  void set_kv_snapshot_source(KvSnapshotSource source) {
    kv_snapshot_source_ = std::move(source);
  }

  // The KV records the most recent Recover() read, in the order it read
  // them: the checkpoint's kKvInsertSlot records, then the log tail's KV
  // records in commit order. The KV layer takes them once, immediately after
  // the device recovers.
  std::vector<LogRecord> TakeRecoveredKv() { return std::exchange(recovered_kv_, {}); }

 private:
  friend class HybridFtl<SscDevice>;
  friend class InvariantChecker;
  friend class CheckTestPeer;  // injects corruption in invariant-checker tests

  struct BlockEntry {
    PhysBlock phys = kInvalidBlock;
    uint64_t present_bits = 0;
    uint64_t dirty_bits = 0;
    // Volatile usage statistic (Section 4.1); reported by ExistsDetail and
    // not persisted (resets to zero across a crash).
    uint32_t access_count = 0;
  };

  static uint64_t Pack(Ppn ppn, bool dirty) {
    return (ppn << 1) | (dirty ? 1u : 0u);
  }
  static Ppn PackedPpn(uint64_t packed) { return packed >> 1; }
  static bool PackedDirty(uint64_t packed) { return (packed & 1u) != 0; }

  // Where the SSC holds a page: `packed` is a page-mapped page's page-map
  // value, `block` a block-mapped page's entry and `off` its offset there.
  struct PageLocation {
    Ppn ppn = kInvalidPpn;
    bool dirty = false;
    uint64_t* packed = nullptr;
    BlockEntry* block = nullptr;
    uint32_t off = 0;
  };
  // The one lookup of the unified map: the page map first, then the present
  // bit of the block's entry. Empty when the page is not cached. Defined here
  // so every host operation inlines it. The pointers are mutable for the
  // callers that update the maps, which hold the device non-const.
  std::optional<PageLocation> Locate(Lbn lbn) const {
    if (const uint64_t* packed = page_map_.Find(lbn); packed != nullptr) {
      return PageLocation{.ppn = PackedPpn(*packed),
                          .dirty = PackedDirty(*packed),
                          .packed = const_cast<uint64_t*>(packed)};
    }
    const FlashGeometry& g = device_->geometry();
    const BlockEntry* e = block_map_.Find(lbn / g.pages_per_block);
    const uint32_t off = static_cast<uint32_t>(lbn % g.pages_per_block);
    if (e == nullptr || ((e->present_bits >> off) & 1u) == 0) {
      return std::nullopt;
    }
    return PageLocation{.ppn = g.FirstPpnOf(e->phys) + off,
                        .dirty = ((e->dirty_bits >> off) & 1u) != 0,
                        .block = const_cast<BlockEntry*>(e),
                        .off = off};
  }

  // Streams every cached page to `fn(lbn, dirty)`, the page map first, then
  // each block entry's present pages. Charges nothing.
  template <typename Fn>
  void VisitCached(Fn&& fn) const {
    const uint32_t ppb = device_->geometry().pages_per_block;
    page_map_.ForEach([&](Lbn lbn, uint64_t packed) { fn(lbn, PackedDirty(packed)); });
    block_map_.ForEach([&](uint64_t logical, const BlockEntry& e) {
      for (uint32_t off = 0; off < ppb; ++off) {
        if ((e.present_bits >> off) & 1u) {
          fn(logical * ppb + off, ((e.dirty_bits >> off) & 1u) != 0);
        }
      }
    });
  }

  Status WriteInternal(Lbn lbn, uint64_t token, bool dirty);
  // Wipes all device-RAM structures (maps, log FIFO, dead queue, counters);
  // used by SimulateCrash and by Recover re-entry.
  void ResetRamState();
  // Removes the newest version of lbn from maps and medium; returns true if
  // one existed. Appends the matching log records (not flushed).
  bool InvalidateOldVersion(Lbn lbn);

  // Erases one block from the dead queue (EraseOrRetire flushes the pending
  // log records first) and returns it to the allocator. False if the queue
  // is empty.
  bool ReclaimDeadBlock();

  // Stats, loss listener and data-loss hook for a page lost to a medium
  // error. Does not touch cached/dirty counters — callers adjust those
  // through the path that removed the mapping.
  void NoteLoss(Lbn lbn, bool dirty);
  // Host read hit an uncorrectable page: drop the mapping (the cached copy is
  // gone) and translate to the host-visible outcome — kNotPresent for clean
  // pages (just a miss), kIoError for dirty ones (data loss).
  Status DropCorruptPage(Lbn lbn, bool dirty);

  // One garbage-collection cycle on the fullest plane. Prefers silent
  // eviction of clean data blocks; falls back to copying GC. Returns true if
  // at least one block was reclaimed.
  bool CollectFullestPlane();
  void SilentlyEvict(PhysBlock phys, uint64_t logical);

  // SE-Merge log reclamation: copy live pages to the log frontier (no block
  // rebuild) and erase the victim.
  Status ForwardCopyLogBlock(PhysBlock victim);

  // ---- Translation for the hybrid-FTL engine (src/ftl/hybrid_ftl.h) ----

  const FtlOptions& ftl_options() const { return config_; }
  // SE-Util: the fixed reserve; SE-Merge: the ceiling.
  uint32_t LogBlockLimit() const;
  bool FreeWithoutCopying() { return ReclaimDeadBlock() || CollectFullestPlane(); }
  // SE-Merge reclaims a mostly-superseded log victim by forward copying.
  std::optional<Status> TryForwardCopy(PhysBlock victim);
  // A merge's page-map removes and its block-map insert commit together; an
  // intermediate group commit would tear them.
  PersistenceManager::AtomicBatchScope MergeBatch() {
    return PersistenceManager::AtomicBatchScope(persist_.get());
  }
  // Mapping removals that made a block reclaimable are durable before the
  // block is erased, so a recovered mapping never references reused flash.
  void BeforeErase() { persist_->Flush(); }
  void AfterErase() { persist_->NotifyEraseBarrier(); }
  void DisposeBlock(PhysBlock block) { dead_blocks_.push_back(block); }
  bool BreakRetirementForTesting() const { return config_.break_retirement_for_testing; }
  auto PageSources(uint64_t logical, bool with_log) const {
    const uint32_t ppb = device_->geometry().pages_per_block;
    const BlockEntry* data = block_map_.Find(logical);
    return [this, logical, with_log, ppb, data](uint32_t off) {
      PageSource src;
      if (with_log) {
        if (const uint64_t* packed = page_map_.Find(logical * ppb + off); packed != nullptr) {
          src.ppn = PackedPpn(*packed);
          src.dirty = PackedDirty(*packed);
          src.from_log = true;
          return src;
        }
      }
      if (data != nullptr && ((data->present_bits >> off) & 1u) != 0) {
        src.ppn = device_->geometry().FirstPpnOf(data->phys) + off;
        src.dirty = ((data->dirty_bits >> off) & 1u) != 0;
      }
      return src;
    };
  }
  void RetireLogPage(Lbn lbn);
  // A page a merge or relocation could not move: report the loss and drop
  // it from the page counters.
  void DropLostPage(Lbn lbn, bool dirty);
  // Installs `phys` as the data block for `logical` and retires the previous
  // data block, if any.
  void InstallDataBlock(uint64_t logical, PhysBlock phys, uint64_t present_bits,
                        uint64_t dirty_bits);
  // Unmaps the data block of `logical`, if any, and queues it for erasure.
  void RemoveDataBlock(uint64_t logical);
  // Logs the removal of `logical`'s block mapping and clears the reverse map
  // of its block `phys`; the caller erases or replaces the block-map entry.
  void UnmapDataBlock(uint64_t logical, PhysBlock phys);
  // The data block sitting on the least-worn flash (statistically the
  // coldest), walking physical blocks.
  bool ColdestDataBlock(PhysBlock* phys, LogicalBlock* logical) const;

  // Write-cadence driver for the endurance defenses: runs a wear-leveling
  // pass and/or a patrol pass when their intervals elapse. Called from the
  // end of WriteInternal (a quiescent point — the host op has committed).
  void MaybeEnduranceMaintenance();

  void ChargeExistsScan();
  // The insert record of a page-map entry (`packed` as the map stores it) and
  // of a block-map entry: what the log carries when the mapping is made and
  // what a checkpoint holds while it lives.
  static LogRecord PageInsertRecord(Lbn lbn, uint64_t packed) {
    return {.type = LogOpType::kInsertPage,
            .key = lbn,
            .ppn = PackedPpn(packed),
            .dirty_bits = PackedDirty(packed) ? 1u : 0u};
  }
  LogRecord BlockInsertRecord(uint64_t logical, const BlockEntry& e) const;
  // The checkpoint: page-map, then block-map insert records, then the KV
  // slot directory's.
  std::vector<LogRecord> SnapshotForCheckpoint() const;
  // Runs the audit hook if a GC pass or checkpoint happened since the last
  // audit. Call only from quiescent points (end of a host operation).
  void MaybeAudit();

  SscConfig config_;
  std::unique_ptr<PersistenceManager> persist_;

  SparseHashMap<uint64_t, BlockEntry> block_map_;  // logical erase block -> entry
  SparseHashMap<Lbn, uint64_t> page_map_;          // lbn -> packed (ppn, dirty)

  std::vector<Lbn> phys_to_logical_;       // data-block reverse map (device RAM)
  // Creation stamp per data block — the "usage statistics to guide ...
  // eviction policies" of Section 4.1. Freshly-merged blocks are sparse by
  // construction; without an age filter, pure min-utilization eviction would
  // preferentially discard the youngest data.
  std::vector<uint64_t> block_birth_;
  uint64_t birth_counter_ = 0;
  std::deque<PhysBlock> dead_blocks_;      // unreferenced, not yet erased

  uint64_t cached_pages_ = 0;
  uint64_t dirty_pages_ = 0;

  // Endurance-maintenance cadence state (device RAM; resets across a crash).
  uint32_t writes_since_patrol_ = 0;
  PhysBlock patrol_cursor_ = 0;

  AuditHook audit_hook_;
  LossListener* loss_listener_ = nullptr;
  DataLossHook data_loss_hook_;
  KvSnapshotSource kv_snapshot_source_;
  std::vector<LogRecord> recovered_kv_;
  uint64_t last_audited_gc_ = 0;
  uint64_t last_audited_checkpoints_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_SSC_SSC_DEVICE_H_
