// Free erase-block management shared by the SSD and SSC FTLs.
//
// Tracks per-plane free lists and implements wear-aware allocation: among the
// free blocks of the chosen plane, the one with the lowest erase count is
// handed out, which is the wear-leveling policy whose effect Table 5's "wear
// diff" column measures. Plane choice balances free space (the paper's
// inter-plane copy support exists so GC can keep planes balanced).

#ifndef FLASHTIER_FTL_BLOCK_ALLOCATOR_H_
#define FLASHTIER_FTL_BLOCK_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/flash/flash_device.h"
#include "src/flash/geometry.h"
#include "src/flash/types.h"

namespace flashtier {

class InvariantChecker;

class BlockAllocator {
 public:
  // All blocks of the device start free except those in [0, reserved), which
  // the caller keeps for fixed regions (SSC checkpoint/log areas).
  BlockAllocator(const FlashDevice& device, uint32_t reserved_blocks);

  // Allocates the lowest-wear free block of the plane with the most free
  // blocks. Returns kInvalidBlock if nothing is free.
  PhysBlock Allocate();

  // Allocates the *most*-worn free block (wear-leveling destination: cold
  // data parked on worn blocks stops their wear).
  PhysBlock AllocateMostWorn();

  // Returns an erased block to the free pool.
  void Free(PhysBlock block);

  // Permanently removes a block from circulation (failed erase / wear-out).
  // Retired blocks are never handed out again and are excluded from the
  // free-space accounting; the invariant checker audits them as their own
  // partition class.
  void Retire(PhysBlock block);
  // O(1) bitmap lookup: retirement is hot in the erase paths of an aged
  // device (every EraseOrRetire consults it).
  bool IsRetired(PhysBlock block) const {
    return block < retired_bitmap_.size() && retired_bitmap_[block] != 0;
  }
  uint32_t RetiredCount() const { return static_cast<uint32_t>(retired_.size()); }

  // Calls fn(block) for every retired block (retirement order — stable, so
  // deterministic consumers may iterate it directly).
  template <typename Fn>
  void ForEachRetired(Fn&& fn) const {
    for (PhysBlock b : retired_) {
      fn(b);
    }
  }

  uint32_t FreeCount() const { return free_total_; }
  // Plane with the fewest free blocks (GC target selection).
  uint32_t FullestPlane() const;

  size_t MemoryUsage() const;

  // Calls fn(block) for every free block (unspecified order).
  template <typename Fn>
  void ForEachFree(Fn&& fn) const {
    for (const std::vector<PhysBlock>& plane : free_) {
      for (PhysBlock b : plane) {
        fn(b);
      }
    }
  }

 private:
  friend class InvariantChecker;

  PhysBlock PopLowestWear(uint32_t plane);

  const FlashDevice& device_;
  std::vector<std::vector<PhysBlock>> free_;  // per plane
  std::vector<PhysBlock> retired_;            // bad blocks, in retirement order
  std::vector<uint8_t> retired_bitmap_;       // O(1) IsRetired, indexed by block
  uint32_t free_total_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_FTL_BLOCK_ALLOCATOR_H_
