// Flash device geometry (Table 2 of the paper) and physical address helpers.
//
// Physical page numbers are dense: ppn = (block * pages_per_block) + page,
// with blocks numbered plane-major (block = plane * blocks_per_plane + index)
// so that a block's plane is recoverable from its number. This matches the
// package/die/plane/block/page hierarchy the paper describes while keeping
// addresses simple integers.

#ifndef FLASHTIER_FLASH_GEOMETRY_H_
#define FLASHTIER_FLASH_GEOMETRY_H_

#include <cstdint>

#include "src/flash/types.h"

namespace flashtier {

struct FlashGeometry {
  // Defaults are the paper's Table 2 emulation parameters.
  uint32_t planes = 10;
  uint32_t blocks_per_plane = 256;
  uint32_t pages_per_block = 64;
  uint32_t page_size = 4096;
  // Independent command/bus channels; planes attach round-robin (plane %
  // channels). Command dispatch and data transfer serialize per channel while
  // media (array) time serializes per plane, so two planes on one channel
  // overlap their array phases but not their transfers.
  uint32_t channels = 5;

  constexpr uint32_t TotalBlocks() const { return planes * blocks_per_plane; }
  constexpr uint64_t TotalPages() const {
    return static_cast<uint64_t>(TotalBlocks()) * pages_per_block;
  }
  constexpr uint64_t EraseBlockBytes() const {
    return static_cast<uint64_t>(pages_per_block) * page_size;
  }

  constexpr Ppn FirstPpnOf(PhysBlock block) const {
    return static_cast<Ppn>(block) * pages_per_block;
  }
  constexpr PhysBlock BlockOf(Ppn ppn) const {
    return static_cast<PhysBlock>(ppn / pages_per_block);
  }
  constexpr uint32_t PageOf(Ppn ppn) const {
    return static_cast<uint32_t>(ppn % pages_per_block);
  }
  constexpr uint32_t PlaneOf(PhysBlock block) const { return block / blocks_per_plane; }
  constexpr PhysBlock BlockAt(uint32_t plane, uint32_t index) const {
    return plane * blocks_per_plane + index;
  }

  // Scales the per-plane block count so a device based on `base` holds at
  // least `bytes`, keeping the plane count fixed — the paper "scales the size
  // of each plane to vary the SSD capacity" (Section 6.1). Rounding waste is
  // at most planes-1 erase blocks, so a cache-sized device carries no
  // accidental over-provisioning.
  static FlashGeometry ForCapacity(uint64_t bytes, const FlashGeometry& base);
  static FlashGeometry ForCapacity(uint64_t bytes) { return ForCapacity(bytes, FlashGeometry{}); }
};

inline FlashGeometry FlashGeometry::ForCapacity(uint64_t bytes, const FlashGeometry& base) {
  FlashGeometry g = base;
  const uint64_t block_bytes = g.EraseBlockBytes();
  const uint64_t blocks = (bytes + block_bytes - 1) / block_bytes;
  g.blocks_per_plane = static_cast<uint32_t>((blocks + g.planes - 1) / g.planes);
  if (g.blocks_per_plane == 0) {
    g.blocks_per_plane = 1;
  }
  return g;
}

}  // namespace flashtier

#endif  // FLASHTIER_FLASH_GEOMETRY_H_
