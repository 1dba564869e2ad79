// The write-back FlashTier cache manager's dirty-block table (Section 4.4).
//
// The manager tracks only *dirty* blocks — clean-block state lives entirely
// in the SSC, which is where FlashTier's host-memory savings come from
// (Table 4: 2.4 B/block vs the native manager's 22 B/block). The paper
// stores, per dirty block: an 8-byte disk block number, two 2-byte LRU
// indexes, and a 2-byte state (14 bytes; +8 for an optional checksum). We
// keep the same information in a chained hash with intrusive LRU links.

#ifndef FLASHTIER_CACHE_DIRTY_TABLE_H_
#define FLASHTIER_CACHE_DIRTY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/flash/types.h"

namespace flashtier {

class DirtyTable {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  explicit DirtyTable(size_t expected_entries);

  size_t size() const { return size_; }
  bool Contains(Lbn lbn) const { return FindSlot(lbn) != kNil; }

  // Inserts lbn as most-recently-used, or refreshes its recency.
  void Touch(Lbn lbn);

  // Removes lbn; returns false if absent.
  bool Erase(Lbn lbn);

  // Least-recently-used dirty block satisfying `pred`, walking from the LRU
  // end; kInvalidLbn if none. Used to pick cleaning victims while skipping
  // blocks parked on the writeback retry queue.
  template <typename Pred>
  Lbn LruBlockWhere(Pred&& pred) const {
    for (uint32_t slot = lru_tail_; slot != kNil; slot = entries_[slot].lru_prev) {
      if (pred(entries_[slot].lbn)) {
        return entries_[slot].lbn;
      }
    }
    return kInvalidLbn;
  }

  // Calls fn(lbn) for every entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.lbn != kInvalidLbn) {
        fn(e.lbn);
      }
    }
  }

  size_t MemoryUsage() const {
    return entries_.capacity() * sizeof(Entry) + buckets_.capacity() * sizeof(uint32_t);
  }

 private:
  struct Entry {
    Lbn lbn = kInvalidLbn;
    uint32_t hash_next = kNil;
    uint32_t lru_prev = kNil;
    uint32_t lru_next = kNil;
  };

  uint32_t BucketOf(Lbn lbn) const;
  uint32_t FindSlot(Lbn lbn) const;
  void LruUnlink(uint32_t slot);
  void LruPushFront(uint32_t slot);

  std::vector<uint32_t> buckets_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_slots_;
  uint32_t lru_head_ = kNil;  // most recently used
  uint32_t lru_tail_ = kNil;  // least recently used
  size_t size_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_CACHE_DIRTY_TABLE_H_
