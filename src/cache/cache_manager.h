// Cache manager interface (Section 3.1).
//
// A cache manager interposes at the OS block layer: application reads and
// writes arrive here, and the manager decides what goes to the caching device
// (SSC or SSD) and what goes to disk. Every manager has an admission policy,
// consulted before each cache insertion (DESIGN.md §5f); admit-all, the
// default, admits everything. Content identity flows through as
// 64-bit tokens so integration tests can verify that no configuration ever
// returns stale data.

#ifndef FLASHTIER_CACHE_CACHE_MANAGER_H_
#define FLASHTIER_CACHE_CACHE_MANAGER_H_

#include <cstddef>
#include <cstdint>

#include "src/flash/types.h"
#include "src/policy/admission_policy.h"
#include "src/util/counters.h"
#include "src/util/status.h"

namespace flashtier {

struct ManagerStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_hits = 0;
  uint64_t read_misses = 0;
  uint64_t writebacks = 0;       // dirty blocks written back to disk
  uint64_t cleans = 0;           // clean commands issued to the SSC
  uint64_t evicts = 0;           // evictions (explicit or LRU replacement)
  uint64_t metadata_writes = 0;  // native manager metadata persistence writes

  // Fault handling (FaultPlan injection; see DESIGN.md §5d).
  uint64_t read_errors = 0;         // cache reads that failed with a medium error
  uint64_t lost_dirty = 0;          // dirty blocks lost to uncorrectable errors
  uint64_t degraded_entries = 0;    // times the manager tripped into pass-through
  uint64_t pass_through_writes = 0; // writes served by disk because the cache failed

  // Disk-tier fault handling (DiskFaultPlan injection; see DESIGN.md §5i).
  uint64_t rescued_reads = 0;         // cache hits whose disk sector is latent-bad
  uint64_t disk_io_errors = 0;        // host ops failed by the disk after retries
  uint64_t parked_writebacks = 0;     // failed writebacks re-dirtied and parked
  uint64_t scrub_repairs = 0;         // latent sectors repaired from cached copies
  uint64_t disk_degraded_entries = 0; // times the manager entered disk-degraded mode

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<ManagerStats> kFields[] = {
      {"reads", &ManagerStats::reads},
      {"writes", &ManagerStats::writes},
      {"read_hits", &ManagerStats::read_hits},
      {"read_misses", &ManagerStats::read_misses},
      {"writebacks", &ManagerStats::writebacks},
      {"cleans", &ManagerStats::cleans},
      {"evicts", &ManagerStats::evicts},
      {"metadata_writes", &ManagerStats::metadata_writes},
      {"read_errors", &ManagerStats::read_errors},
      {"lost_dirty", &ManagerStats::lost_dirty},
      {"degraded_entries", &ManagerStats::degraded_entries},
      {"pass_through_writes", &ManagerStats::pass_through_writes},
      {"rescued_reads", &ManagerStats::rescued_reads},
      {"disk_io_errors", &ManagerStats::disk_io_errors},
      {"parked_writebacks", &ManagerStats::parked_writebacks},
      {"scrub_repairs", &ManagerStats::scrub_repairs},
      {"disk_degraded_entries", &ManagerStats::disk_degraded_entries},
  };

  // Accumulates another manager's counters (used to aggregate the per-shard
  // managers of a sharded system into one host-visible view).
  void Merge(const ManagerStats& o) { MergeCounters(*this, o); }

  double HitRate() const {
    const uint64_t lookups = read_hits + read_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(read_hits) / static_cast<double>(lookups);
  }
  double MissRatePercent() const {
    const uint64_t lookups = read_hits + read_misses;
    return lookups == 0 ? 0.0
                        : 100.0 * static_cast<double>(read_misses) / static_cast<double>(lookups);
  }

  friend bool operator==(const ManagerStats&, const ManagerStats&) = default;
};
static_assert(AllCountersListed<ManagerStats>(), "list every ManagerStats field in kFields");

class CacheManager {
 public:
  virtual ~CacheManager() = default;

  // Application read of one 4 KB block.
  virtual Status Read(Lbn lbn, uint64_t* token) = 0;

  // Application write of one 4 KB block.
  virtual Status Write(Lbn lbn, uint64_t token) = 0;

  // Host (OS) memory this manager needs for per-block state — the Table 4
  // "Host" column.
  virtual size_t HostMemoryUsage() const = 0;

  const ManagerStats& stats() const { return stats_; }

  // Background scrub pass (DESIGN.md §5i): repairs up to `max_sectors` of
  // the disk's latent sectors from cached copies (a cached token — clean or
  // dirty — is acknowledged data, so rewriting it heals the sector without
  // changing what any read may return). Returns sectors repaired; managers
  // without a repair source report 0.
  virtual uint64_t ScrubDisk(uint32_t max_sectors) {
    (void)max_sectors;
    return 0;
  }

 protected:
  explicit CacheManager(AdmissionPolicy& policy) : policy_(policy) {}

  ManagerStats stats_;
  // Consulted before every cache insertion and told of every access,
  // admission, rejection and eviction.
  AdmissionPolicy& policy_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_CACHE_MANAGER_H_
