// Write-through FlashTier cache manager (Sections 3.1 and 4.4).
//
// The manager stores *no* per-block host state: it consults the SSC on every
// read (misses are cheap — an in-memory map lookup on the device) and sends
// every write to both the disk and the SSC with write-clean. Because all
// cached data is clean, the SSC may silently evict anything, and after a
// crash the manager can use the cache immediately with no recovery work.
// Reads, the scrub and the degraded ladder live in SscCacheManager.

#ifndef FLASHTIER_CACHE_WRITE_THROUGH_H_
#define FLASHTIER_CACHE_WRITE_THROUGH_H_

#include "src/cache/ssc_manager.h"

namespace flashtier {

class WriteThroughManager final : public SscCacheManager {
 public:
  WriteThroughManager(SscDevice* ssc, DiskModel* disk, AdmissionPolicy& admission)
      : SscCacheManager(ssc, disk, admission) {}

  Status Write(Lbn lbn, uint64_t token) override;

  // "The manager stores no data about cached blocks" — Section 4.4.
  size_t HostMemoryUsage() const override { return 0; }

 private:
  // The disk already holds the newest data of `lbn`: evict any cached copy
  // so it can never surface, counting a write the cache did not take as a
  // pass-through write.
  Status EvictAround(Lbn lbn, bool pass_through);
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_WRITE_THROUGH_H_
