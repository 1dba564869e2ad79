// Functional + timing model of a raw NAND flash device.
//
// This is the medium both FTLs (the baseline SSD's and the SSC's) are built
// on. It models what real NAND enforces:
//   * pages must be programmed sequentially within an erased block,
//   * a programmed page cannot be reprogrammed until its block is erased,
//   * erases operate on whole blocks and are slow,
//   * every page has a small out-of-band (OOB) area written with the data,
//     which the FTLs use for the reverse map (Section 4.1, "Block State").
//
// Every cached page carries an 8-byte "content token" so correctness tests
// can detect stale reads without storing 4 KB payloads ("David"-style
// emulation, Section 5); no page stores a payload.

#ifndef FLASHTIER_FLASH_FLASH_DEVICE_H_
#define FLASHTIER_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/flash/fault_plan.h"
#include "src/flash/geometry.h"
#include "src/flash/pipeline.h"
#include "src/flash/timing.h"
#include "src/flash/types.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace flashtier {

enum class PageState : uint8_t {
  kFree,     // erased, programmable
  kValid,    // holds live data
  kInvalid,  // holds superseded data, reclaimable by erase
};

// Out-of-band metadata programmed atomically with each page. Real devices
// give 64-224 spare bytes per page; we use 17.
struct OobRecord {
  Lbn lbn = kInvalidLbn;   // reverse map: which logical block this page holds
  uint64_t seq = 0;        // monotonic write sequence, breaks ties in recovery
  uint8_t flags = 0;       // FTL-defined (dirty bit, page- vs block-level, ...)
};

struct FlashStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t oob_reads = 0;
  uint64_t erases = 0;
  uint64_t gc_copies = 0;  // internal copy-back programs (subset of nothing; counted separately)
  uint64_t busy_us = 0;    // total device busy time charged to the clock

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<FlashStats> kFields[] = {
      {"page_reads", &FlashStats::page_reads},
      {"page_writes", &FlashStats::page_writes},
      {"oob_reads", &FlashStats::oob_reads},
      {"erases", &FlashStats::erases},
      {"gc_copies", &FlashStats::gc_copies},
      {"busy_us", &FlashStats::busy_us},
  };

  // Accumulates another device's counters (per-shard aggregation).
  void Merge(const FlashStats& o) { MergeCounters(*this, o); }

  friend bool operator==(const FlashStats&, const FlashStats&) = default;
};
static_assert(AllCountersListed<FlashStats>(), "list every FlashStats field in kFields");

class FlashDevice {
 public:
  FlashDevice(const FlashGeometry& geometry, SimClock* clock,
              const FaultPlan& faults = FaultPlan{});

  const FlashGeometry& geometry() const { return geometry_; }
  const FlashStats& stats() const { return stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }
  const FaultPlan& fault_plan() const { return faults_; }
  // Virtual time on the clock this device charges.
  uint64_t now_us() const { return clock_->now_us(); }

  PageState page_state(Ppn ppn) const { return pages_[ppn].state; }
  const OobRecord& oob(Ppn ppn) const { return pages_[ppn].oob; }
  uint32_t erase_count(PhysBlock block) const { return blocks_[block].erase_count; }
  uint32_t valid_pages(PhysBlock block) const { return blocks_[block].valid_pages; }
  // Next programmable page index within the block, == pages_per_block when full.
  uint32_t write_pointer(PhysBlock block) const { return blocks_[block].next_page; }
  bool BlockFull(PhysBlock block) const {
    return blocks_[block].next_page == geometry_.pages_per_block;
  }
  bool BlockErased(PhysBlock block) const {
    return blocks_[block].next_page == 0;
  }
  // The block failed an erase (or wore out) and can never be reused. Sticky
  // medium state: it survives crashes and erase attempts alike.
  bool BlockBad(PhysBlock block) const { return blocks_[block].bad; }
  // The block aborted a program and cannot accept further programs until it
  // is successfully erased. Its already-programmed pages remain readable.
  bool BlockProgramFailed(PhysBlock block) const { return blocks_[block].program_failed; }
  // Reads the block has absorbed since its last erase (the read-disturb
  // exposure). Counted only while fault injection is enabled and unpaused so
  // observer sweeps cannot age the medium.
  uint64_t ReadsSinceErase(PhysBlock block) const { return blocks_[block].reads_since_erase; }
  // Virtual age of the oldest programmed page in `block` (retention
  // exposure); 0 when the block holds no programmed pages.
  uint64_t OldestProgramAgeUs(PhysBlock block) const;

  // Programs the next free page of `block`; returns the assigned PPN through
  // `*ppn`. Fails with kNoSpace if the block is full. The token identifies
  // the page contents for verification.
  Status ProgramPage(PhysBlock block, const OobRecord& oob, uint64_t token, Ppn* ppn);

  // Reads a valid or invalid (but programmed) page. `token` may be null if
  // the caller does not need it.
  Status ReadPage(Ppn ppn, uint64_t* token);

  // Reads only the OOB area (cheaper; used by recovery scans).
  Status ReadOob(Ppn ppn, OobRecord* oob_out);

  // Marks a programmed page as superseded. No media cost: validity is
  // tracked in FTL/OOB state, not by touching the flash array.
  Status MarkInvalid(Ppn ppn);

  // Reinstates a programmed-but-invalid page as valid. Only used by crash
  // recovery, when the recovered forward map proves a page the pre-crash FTL
  // had superseded in RAM is in fact the live version.
  Status MarkValid(Ppn ppn);

  // Advances the block's write pointer without programming, leaving the
  // skipped page unprogrammed (NAND permits programming pages of a block in
  // ascending order with gaps). Merges use this to keep a logical page at
  // its in-block offset when intermediate pages have no cached version.
  Status SkipPage(PhysBlock block);

  // Erases the whole block; all pages return to kFree.
  Status EraseBlock(PhysBlock block);

  // Internal copy-back used by garbage collection: programs the next free
  // page of `dst_block` with the contents+OOB of `src`, then invalidates
  // `src`. Charged the GC copy cost (no host bus transfer).
  Status CopyPage(Ppn src, PhysBlock dst_block, Ppn* dst_ppn);

  // Largest difference in erase counts between any two blocks ("wear diff",
  // Table 5).
  uint32_t MaxWearDiff() const;

  // Suspends NEW fault draws (and their op-ordinal accounting) while leaving
  // sticky fault state — bad blocks, program-failed blocks, corrupt pages —
  // fully in effect. Verification harnesses pause injection while observing
  // the device so the act of checking cannot itself destroy state.
  void set_fault_injection_paused(bool paused) { fault_injection_paused_ = paused; }

  // The device's virtual-time event engine. All device time — including the
  // FTL's pure-controller replies and the persistence layer's log I/O — must
  // be charged through it so phases on distinct planes overlap under
  // open-loop replay (flashlint's clock-advance rule enforces this).
  FlashPipeline* pipeline() { return &pipeline_; }

 private:
  struct Page {
    PageState state = PageState::kFree;
    bool corrupt = false;  // injected uncorrectable read error; sticky until erase
    OobRecord oob;
    uint64_t token = 0;
    uint64_t programmed_at_us = 0;  // virtual program time, for retention decay
  };
  static_assert(sizeof(Page) == 48, "one Page per physical page: keep it packed");
  struct Block {
    uint32_t next_page = 0;
    uint32_t valid_pages = 0;
    uint32_t erase_count = 0;
    uint64_t reads_since_erase = 0;  // read-disturb exposure; reset by erase
    bool bad = false;             // erase failed or wore out; permanently retired
    bool program_failed = false;  // program aborted; unprogrammable until erase
  };

  // Draws the read-disturb and retention-decay faults for a read of `page`
  // in `block` (fault plan enabled and unpaused only); may set
  // `page.corrupt`.
  void MaybeWearFaultOnRead(Block& b, Page& page);

  // Schedules `op`'s phases on the event engine and accounts the nominal
  // service time as device busy time.
  void Charge(FlashPipeline::Op op, uint32_t plane);
  void ChargeCopy(uint32_t src_plane, uint32_t dst_plane);

  FlashGeometry geometry_;
  SimClock* clock_;  // not owned
  FlashPipeline pipeline_;
  FaultPlan faults_;
  bool fault_injection_paused_ = false;
  Rng fault_rng_;
  std::vector<Page> pages_;
  std::vector<Block> blocks_;
  FlashStats stats_;
  FaultStats fault_stats_;
  uint64_t next_seq_ = 1;
  // Per-kind op ordinals (1-based after increment) for scripted triggers.
  uint64_t program_ops_ = 0;
  uint64_t erase_ops_ = 0;
  uint64_t read_ops_ = 0;
};

// Coefficient of variation of per-block erase counts over every block of
// every device in `media` (retired blocks included: their frozen counts are
// wear the medium absorbed). 0 when nothing has been erased.
double EraseCountCv(const std::vector<const FlashDevice*>& media);

}  // namespace flashtier

#endif  // FLASHTIER_FLASH_FLASH_DEVICE_H_
