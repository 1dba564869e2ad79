// A set of LBNs in recency order. The write-back manager's dirty-block table
// (Section 4.4) is one, unbounded: it cleans from the least recently written
// end. The admission policies' windows are bounded ones: GhostLru remembers
// recently *missed* blocks in one, and every policy remembers recently
// *rejected* blocks in one for the regret counter and the
// rejected-block-absent audit. Iteration order is recency order, so every
// decision the set feeds is deterministic.
//
// The set is flat: entries live in one vector, linked into the recency list
// by 32-bit indices, with freed entries chained through their `next` link; an
// open-addressing index (linear probing, at most half full, backward-shift
// delete) maps an LBN to its entry. Both vectors grow with the entries held,
// not with the capacity, and once grown no Touch or Erase allocates.

#ifndef FLASHTIER_POLICY_LRU_SET_H_
#define FLASHTIER_POLICY_LRU_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/flash/types.h"
#include "src/sparsemap/sparse_hash_map.h"  // for MixHash64

namespace flashtier {

class LruSet {
 public:
  // Holds at most `capacity` entries (at least one); by default as many as
  // its 32-bit links can index.
  explicit LruSet(size_t capacity = kNil) : capacity_(std::clamp<size_t>(capacity, 1, kNil)) {}

  // Makes `lbn` the most recent entry, inserting it if absent; an insert into
  // a full set first evicts the least recent entry. Returns whether `lbn` was
  // present.
  bool Touch(Lbn lbn) {
    if (const uint32_t hit = index_[FindSlot(lbn)]; hit != kNil) {
      Unlink(hit);
      PushFront(hit);
      return true;
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
    PushFront(e);
    ++size_;
    if (2 * size_ > index_.size()) {
      Rehash(2 * index_.size());  // re-places every entry, `lbn`'s included
    } else {
      index_[FindSlot(lbn)] = e;
    }
    return false;
  }

  bool Contains(Lbn lbn) const { return index_[FindSlot(lbn)] != kNil; }

  // Removes `lbn`; returns false if it was absent.
  bool Erase(Lbn lbn) {
    size_t hole = FindSlot(lbn);
    const uint32_t e = index_[hole];
    if (e == kNil) {
      return false;
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
    return true;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  // The least recent entry `pred` accepts; kInvalidLbn if none does.
  template <typename Pred>
  Lbn LruWhere(Pred&& pred) const {
    for (uint32_t e = tail_; e != kNil; e = entries_[e].prev) {
      if (pred(entries_[e].lbn)) {
        return entries_[e].lbn;
      }
    }
    return kInvalidLbn;
  }

  // Visits every entry, most recent first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t e = head_; e != kNil; e = entries_[e].next) {
      fn(entries_[e].lbn);
    }
  }

  // Bytes the entry vector and the index hold.
  size_t MemoryUsage() const {
    return entries_.capacity() * sizeof(Entry) + index_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr size_t kMinSlots = 16;

  struct Entry {
    Lbn lbn = kInvalidLbn;
    uint32_t prev = kNil;  // toward the most recent
    uint32_t next = kNil;  // toward the least recent; the free chain
  };
  static_assert(sizeof(Entry) == 16);

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
  uint32_t head_ = kNil;  // most recent
  uint32_t tail_ = kNil;  // least recent
  uint32_t free_ = kNil;  // first freed entry
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_LRU_SET_H_
