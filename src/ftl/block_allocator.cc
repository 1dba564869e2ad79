#include "src/ftl/block_allocator.h"

namespace flashtier {

BlockAllocator::BlockAllocator(const FlashDevice& device, uint32_t reserved_blocks)
    : device_(device),
      free_(device.geometry().planes),
      retired_bitmap_(device.geometry().TotalBlocks(), 0) {
  const FlashGeometry& g = device.geometry();
  for (PhysBlock b = reserved_blocks; b < g.TotalBlocks(); ++b) {
    free_[g.PlaneOf(b)].push_back(b);
    ++free_total_;
  }
}

PhysBlock BlockAllocator::PopLowestWear(uint32_t plane) {
  std::vector<PhysBlock>& list = free_[plane];
  if (list.empty()) {
    return kInvalidBlock;
  }
  size_t best = 0;
  for (size_t i = 1; i < list.size(); ++i) {
    if (device_.erase_count(list[i]) < device_.erase_count(list[best])) {
      best = i;
    }
  }
  const PhysBlock block = list[best];
  list[best] = list.back();
  list.pop_back();
  --free_total_;
  return block;
}

PhysBlock BlockAllocator::Allocate() {
  uint32_t best_plane = 0;
  size_t best_free = 0;
  for (uint32_t p = 0; p < free_.size(); ++p) {
    if (free_[p].size() > best_free) {
      best_free = free_[p].size();
      best_plane = p;
    }
  }
  if (best_free == 0) {
    return kInvalidBlock;
  }
  return PopLowestWear(best_plane);
}

PhysBlock BlockAllocator::AllocateMostWorn() {
  uint32_t best_plane = 0;
  size_t best_index = 0;
  uint32_t best_wear = 0;
  bool found = false;
  for (uint32_t p = 0; p < free_.size(); ++p) {
    for (size_t i = 0; i < free_[p].size(); ++i) {
      const uint32_t wear = device_.erase_count(free_[p][i]);
      if (!found || wear > best_wear) {
        found = true;
        best_wear = wear;
        best_plane = p;
        best_index = i;
      }
    }
  }
  if (!found) {
    return kInvalidBlock;
  }
  std::vector<PhysBlock>& list = free_[best_plane];
  const PhysBlock block = list[best_index];
  list[best_index] = list.back();
  list.pop_back();
  --free_total_;
  return block;
}

void BlockAllocator::Free(PhysBlock block) {
  // Retirement is permanent: a retired block can never re-enter the free
  // pool, even through a confused caller.
  if (IsRetired(block)) {
    return;
  }
  free_[device_.geometry().PlaneOf(block)].push_back(block);
  ++free_total_;
}

void BlockAllocator::Retire(PhysBlock block) {
  if (!IsRetired(block)) {
    retired_.push_back(block);
    retired_bitmap_[block] = 1;
  }
}

uint32_t BlockAllocator::FullestPlane() const {
  uint32_t best = 0;
  for (uint32_t p = 1; p < free_.size(); ++p) {
    if (free_[p].size() < free_[best].size()) {
      best = p;
    }
  }
  return best;
}

size_t BlockAllocator::MemoryUsage() const {
  size_t bytes = free_.capacity() * sizeof(free_[0]);
  for (const auto& list : free_) {
    bytes += list.capacity() * sizeof(PhysBlock);
  }
  bytes += retired_.capacity() * sizeof(PhysBlock);
  bytes += retired_bitmap_.capacity() * sizeof(uint8_t);
  return bytes;
}

}  // namespace flashtier
