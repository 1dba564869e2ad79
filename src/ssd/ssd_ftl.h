// Baseline SSD: a FAST-style hybrid flash translation layer.
//
// This is the "Native" device of the evaluation — a conventional SSD exposing
// a dense logical address space the size of its capacity, built from scratch
// after FlashSim + the FAST FTL the paper bases its implementation on
// (Section 5: "We implemented our own FTL that is similar to the FAST FTL").
//
// The log blocks, merges, wear leveling and fault handling are the shared
// hybrid-FTL engine (src/ftl/hybrid_ftl.h); this class is the SSD's
// translation over it:
//
//   * Data blocks are block-mapped (256 KB translations) in a dense linear
//     table; a logical page's home is `data_block_base + in-block offset`,
//     and a page is present there iff its flash page is still valid.
//   * Log pages are mapped by a fully-associative page map (any page of any
//     logical block can sit in any log block).
//   * The log budget is 7% of capacity. Reclamation always copies: a data
//     block whose pages are all superseded is erased at once, and a page a
//     merge cannot move is counted in `dropped_clean_pages` — the SSD cannot
//     know whether the host had a copy.
//
// The device is over-provisioned: physical capacity = logical capacity + log
// budget + spare blocks, matching the paper's "7% over-provisioning for
// garbage collection" on the SSD (the SSC has none).

#ifndef FLASHTIER_SSD_SSD_FTL_H_
#define FLASHTIER_SSD_SSD_FTL_H_

#include <cstdint>
#include <unordered_map>

#include "src/flash/flash_device.h"
#include "src/ftl/hybrid_ftl.h"
#include "src/sparsemap/dense_map.h"
#include "src/util/status.h"

namespace flashtier {

class SsdFtl : public HybridFtl<SsdFtl> {
 public:
  // The engine's settings: geometry, faults, wear leveling.
  using Options = FtlOptions;

  SsdFtl(uint64_t logical_pages, SimClock* clock, const Options& options);
  SsdFtl(uint64_t logical_pages, SimClock* clock) : SsdFtl(logical_pages, clock, Options{}) {}

  uint64_t logical_pages() const { return logical_pages_; }

  // Reads logical page `lpn`. Returns kNotPresent if the page has never been
  // written (or was trimmed).
  Status Read(uint64_t lpn, uint64_t* token);

  // Writes logical page `lpn` out-of-place into the log.
  Status Write(uint64_t lpn, uint64_t token);

  // Discards logical page `lpn` (SATA trim).
  Status Trim(uint64_t lpn);

  // Device-resident mapping memory: dense block map + log page map + log
  // block metadata (Table 4's "SSD" column).
  size_t DeviceMemoryUsage() const;

  // Modeled time to rebuild the mapping after power failure by scanning OOB
  // areas — the paper's best case reads "just enough OOB area to equal the
  // size of the mapping table" (Section 6.4, Native-SSD recovery).
  uint64_t RecoveryOobScanUs() const;

 private:
  friend class HybridFtl<SsdFtl>;
  friend class InvariantChecker;

  static constexpr uint32_t kSpareBlocks = 4;

  // Removes the current newest version of lpn, wherever it lives.
  void InvalidateOldVersion(uint64_t lpn);

  // ---- Translation for the hybrid-FTL engine (src/ftl/hybrid_ftl.h) ----

  const Options& ftl_options() const { return options_; }
  uint32_t LogBlockLimit() const { return max_log_blocks_; }
  auto PageSources(LogicalBlock logical, bool with_log) const {
    const PhysBlock* data = block_map_.Find(logical);
    const Ppn data_base = data != nullptr ? device_->geometry().FirstPpnOf(*data) : kInvalidPpn;
    return [this, logical, with_log, data_base](uint32_t off) {
      PageSource src;
      const uint64_t lpn = logical * device_->geometry().pages_per_block + off;
      if (with_log) {
        if (const auto it = log_map_.find(lpn); it != log_map_.end()) {
          src.ppn = it->second;
          src.from_log = true;
          return src;
        }
      }
      if (data_base != kInvalidPpn && device_->page_state(data_base + off) == PageState::kValid) {
        src.ppn = data_base + off;
      }
      return src;
    };
  }
  void RetireLogPage(uint64_t lpn) { log_map_.erase(lpn); }
  void DropLostPage(uint64_t, bool) { ++ftl_stats_.dropped_clean_pages; }
  void InstallDataBlock(LogicalBlock logical, PhysBlock phys, uint64_t present_bits,
                        uint64_t dirty_bits);
  void RemoveDataBlock(LogicalBlock logical);
  bool ColdestDataBlock(PhysBlock* phys, LogicalBlock* logical) const;

  Options options_;
  uint64_t logical_pages_;
  uint64_t logical_blocks_;
  uint32_t max_log_blocks_;

  DenseMap<PhysBlock> block_map_;  // logical erase block -> physical block
  std::unordered_map<uint64_t, Ppn> log_map_;  // lpn -> ppn in a log block
};

}  // namespace flashtier

#endif  // FLASHTIER_SSD_SSD_FTL_H_
