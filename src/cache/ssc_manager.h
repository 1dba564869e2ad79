// The FlashTier cache manager's core over an SSC (Sections 3.1 and 4.4).
//
// Write-through and write-back differ only in how a host write reaches the
// SSC. Everything else a manager does over an SSC is written once here: the
// read path (a hit, or a miss served from disk and filled with write-clean),
// the latent-sector scrub, the degraded ladder (DESIGN.md §5d rung 4), and
// the entry point through which the SSC reports a lost dirty block
// (DESIGN.md §5i). WriteThroughManager adds only its write path;
// WriteBackManager adds write-dirty, the dirty table, cleaning, parking,
// disk-degraded mode, flush and recovery.

#ifndef FLASHTIER_CACHE_SSC_MANAGER_H_
#define FLASHTIER_CACHE_SSC_MANAGER_H_

#include "src/cache/cache_manager.h"
#include "src/disk/disk_model.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

class SscCacheManager : public CacheManager, private SscDevice::LossListener {
 public:
  SscCacheManager(const SscCacheManager&) = delete;
  SscCacheManager& operator=(const SscCacheManager&) = delete;

  Status Read(Lbn lbn, uint64_t* token) final;

  // Repairs up to `max_sectors` latent disk sectors from cached copies: a
  // cached token, clean or dirty, is acknowledged data.
  uint64_t ScrubDisk(uint32_t max_sectors) final;

  // True while the manager is in degraded pass-through: after
  // kDegradedTripLimit consecutive cache write failures (or, for write-back,
  // below the usable-capacity floor) writes go straight to disk, probing the
  // cache every kDegradedProbeInterval writes and re-engaging when a probe
  // lands.
  bool degraded() const { return degraded_; }

 protected:
  SscCacheManager(SscDevice* ssc, DiskModel* disk, AdmissionPolicy& policy);
  ~SscCacheManager() override;

  // The degraded ladder. EnterDegraded trips it (once per entry);
  // NoteCacheWriteFailure trips it after kDegradedTripLimit consecutive
  // failures; NoteCacheWriteSuccess re-engages the cache. BypassCache is
  // true while degraded, except on every kDegradedProbeInterval-th write.
  void EnterDegraded();
  void NoteCacheWriteFailure();
  void NoteCacheWriteSuccess();
  bool BypassCache();

  // The SSC lost a dirty page of `lbn` (a corrupt read, or a GC or merge
  // that could not relocate it). Write-through never caches dirty data.
  void OnDirtyLoss(Lbn lbn) override { (void)lbn; }
  // A scrub repair write to disk landed or was refused.
  virtual void NoteDiskWriteSuccess() {}
  virtual void NoteDiskWriteFailure() {}

  SscDevice* const ssc_;
  DiskModel* const disk_;

 private:
  static constexpr uint32_t kDegradedTripLimit = 4;
  static constexpr uint32_t kDegradedProbeInterval = 64;

  bool degraded_ = false;
  uint32_t consecutive_write_failures_ = 0;
  uint64_t degraded_write_count_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_SSC_MANAGER_H_
