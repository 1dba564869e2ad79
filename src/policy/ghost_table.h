// Bounded LRU table of LBN -> small counter, the building block of the
// admission policies: GhostLru keeps recently *missed* blocks in one to count
// re-misses, and every policy keeps recently *rejected* blocks in one so the
// regret counter (and the rejected-block-absent audit) has a window to look
// at. The table is deterministic — iteration order is recency order — and its
// memory is strictly bounded: at `capacity` entries the LRU entry is evicted
// before a new one is inserted.
//
// The table is flat, since a GhostLru policy consults it on every read miss:
// entries live in one vector, linked into the LRU list by 32-bit indices,
// with freed entries chained through their `next` link; an open-addressing
// index (linear probing, at most half full, backward-shift delete) maps an
// LBN to its entry. Both vectors grow with the entries held, not with the
// configured capacity, and once grown no Touch or Erase allocates.

#ifndef FLASHTIER_POLICY_GHOST_TABLE_H_
#define FLASHTIER_POLICY_GHOST_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/flash/types.h"
#include "src/sparsemap/sparse_hash_map.h"  // for MixHash64

namespace flashtier {

class GhostTable {
 public:
  explicit GhostTable(size_t capacity) : capacity_(std::clamp<size_t>(capacity, 1, kNil)) {}

  // Bumps `lbn` to most-recently-used and increments its counter (inserting
  // it at 1), evicting the least-recently-used entry when the table is full.
  // Returns the counter after the increment.
  uint32_t Touch(Lbn lbn) {
    if (const uint32_t hit = index_[FindSlot(lbn)]; hit != kNil) {
      Unlink(hit);
      PushFront(hit);
      return ++entries_[hit].count;
    }
    if (size_ >= capacity_) {
      Erase(entries_[tail_].lbn);
    }
    uint32_t e = free_;
    if (e != kNil) {
      free_ = entries_[e].next;
    } else {
      e = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[e].lbn = lbn;
    entries_[e].count = 1;
    PushFront(e);
    ++size_;
    if (2 * size_ > index_.size()) {
      Rehash(2 * index_.size());  // re-places every entry, `lbn`'s included
    } else {
      index_[FindSlot(lbn)] = e;
    }
    return 1;
  }

  bool Contains(Lbn lbn) const { return index_[FindSlot(lbn)] != kNil; }

  uint32_t Count(Lbn lbn) const {
    const uint32_t e = index_[FindSlot(lbn)];
    return e == kNil ? 0 : entries_[e].count;
  }

  void Erase(Lbn lbn) {
    size_t hole = FindSlot(lbn);
    const uint32_t e = index_[hole];
    if (e == kNil) {
      return;
    }
    Unlink(e);
    entries_[e].next = free_;
    free_ = e;
    --size_;
    // Backward-shift delete: pull each later entry of the probe run back
    // into the hole unless its home slot lies cyclically after the hole.
    const size_t mask = index_.size() - 1;
    for (size_t j = (hole + 1) & mask; index_[j] != kNil; j = (j + 1) & mask) {
      const size_t home = Home(entries_[index_[j]].lbn);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kNil;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  // Visits (lbn, count) in recency order, most recent first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
      fn(entries_[e].lbn, entries_[e].count);
    }
  }

  // Modeled bytes per entry: the payload plus two list links and two hash
  // links. A fixed constant so MemoryBound is a hard capacity * entry ceiling
  // independent of allocator behaviour; it is above the real cost per entry
  // of a full table of at least 8 entries: 24 B plus two to four 4-B slots.
  static constexpr size_t kEntryBytes =
      sizeof(Lbn) + sizeof(uint32_t) + 4 * sizeof(void*);

  size_t MemoryUsage() const { return size_ * kEntryBytes; }
  size_t MemoryBound() const { return capacity_ * kEntryBytes; }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr size_t kMinSlots = 16;

  struct Entry {
    Lbn lbn = kInvalidLbn;
    uint32_t count = 0;
    uint32_t prev = kNil;  // toward the most recently used
    uint32_t next = kNil;  // toward the least recently used; the free chain
  };

  size_t Home(Lbn lbn) const { return MixHash64(lbn) & (index_.size() - 1); }

  // The index slot holding `lbn`, or the empty slot that ends its probe run.
  size_t FindSlot(Lbn lbn) const {
    const size_t mask = index_.size() - 1;
    size_t slot = Home(lbn);
    while (index_[slot] != kNil && entries_[index_[slot]].lbn != lbn) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Rehash(size_t slots) {
    index_.assign(slots, kNil);
    for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
      index_[FindSlot(entries_[e].lbn)] = e;
    }
  }

  void Unlink(uint32_t e) {
    Entry& entry = entries_[e];
    (entry.prev == kNil ? head_ : entries_[entry.prev].next) = entry.next;
    (entry.next == kNil ? tail_ : entries_[entry.next].prev) = entry.prev;
  }

  void PushFront(uint32_t e) {
    entries_[e].prev = kNil;
    entries_[e].next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
  }

  size_t capacity_;
  size_t size_ = 0;
  std::vector<Entry> entries_;
  std::vector<uint32_t> index_ = std::vector<uint32_t>(kMinSlots, kNil);  // kNil: empty
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used
  uint32_t free_ = kNil;  // first freed entry
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_GHOST_TABLE_H_
