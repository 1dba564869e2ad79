// Counters shared by both FTLs; these back Table 5 and Figure 6.

#ifndef FLASHTIER_FTL_FTL_STATS_H_
#define FLASHTIER_FTL_FTL_STATS_H_

#include <cstdint>

#include "src/util/counters.h"

namespace flashtier {

struct FtlStats {
  // Host-visible operations.
  uint64_t host_reads = 0;
  uint64_t host_writes = 0;
  uint64_t host_read_misses = 0;  // reads answered "not present" (SSC only)

  // Reclamation activity.
  uint64_t gc_invocations = 0;
  uint64_t full_merges = 0;
  uint64_t partial_merges = 0;
  uint64_t switch_merges = 0;
  uint64_t silent_evictions = 0;        // blocks reclaimed without copying
  uint64_t silently_evicted_pages = 0;  // valid pages dropped by silent eviction

  // Fault handling (FaultPlan injection; see DESIGN.md §5d).
  uint64_t program_retries = 0;     // host writes retried on a fresh block
  uint64_t retired_blocks = 0;      // blocks retired after erase failure/wear-out
  uint64_t dropped_clean_pages = 0;  // clean pages lost to media errors (just misses)
  uint64_t lost_dirty_pages = 0;     // dirty pages lost to media errors (data loss)

  // Endurance defenses (DESIGN.md §5l).
  uint64_t wl_migrations = 0;    // static wear-leveling block relocations
  uint64_t patrol_repairs = 0;   // disturb/retention-risky blocks refreshed by patrol

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<FtlStats> kFields[] = {
      {"host_reads", &FtlStats::host_reads},
      {"host_writes", &FtlStats::host_writes},
      {"host_read_misses", &FtlStats::host_read_misses},
      {"gc_invocations", &FtlStats::gc_invocations},
      {"full_merges", &FtlStats::full_merges},
      {"partial_merges", &FtlStats::partial_merges},
      {"switch_merges", &FtlStats::switch_merges},
      {"silent_evictions", &FtlStats::silent_evictions},
      {"silently_evicted_pages", &FtlStats::silently_evicted_pages},
      {"program_retries", &FtlStats::program_retries},
      {"retired_blocks", &FtlStats::retired_blocks},
      {"dropped_clean_pages", &FtlStats::dropped_clean_pages},
      {"lost_dirty_pages", &FtlStats::lost_dirty_pages},
      {"wl_migrations", &FtlStats::wl_migrations},
      {"patrol_repairs", &FtlStats::patrol_repairs},
  };

  // Accumulates another FTL's counters (per-shard aggregation).
  void Merge(const FtlStats& o) { MergeCounters(*this, o); }

  // Write amplification = (all flash page programs, including GC copies and
  // metadata) / host page writes - 1 would be "extra writes per block"; the
  // paper's Table 5 reports extra writes per block, e.g. 2.30 means each
  // block written once by the host was written 2.30 *additional* times.
  double ExtraWritesPerBlock(uint64_t device_page_writes, uint64_t device_gc_copies) const {
    if (host_writes == 0) {
      return 0.0;
    }
    const uint64_t total = device_page_writes + device_gc_copies;
    const double amp = static_cast<double>(total) / static_cast<double>(host_writes);
    return amp > 1.0 ? amp - 1.0 : 0.0;
  }

  friend bool operator==(const FtlStats&, const FtlStats&) = default;
};
static_assert(AllCountersListed<FtlStats>(), "list every FtlStats field in kFields");

}  // namespace flashtier

#endif  // FLASHTIER_FTL_FTL_STATS_H_
