#include "src/cache/dirty_table.h"

#include <bit>

#include "src/sparsemap/sparse_hash_map.h"  // MixHash64

namespace flashtier {

DirtyTable::DirtyTable(size_t expected_entries) {
  size_t buckets = std::bit_ceil(expected_entries + expected_entries / 2 + 16);
  buckets_.assign(buckets, kNil);
}

uint32_t DirtyTable::BucketOf(Lbn lbn) const {
  return static_cast<uint32_t>(MixHash64(lbn) & (buckets_.size() - 1));
}

uint32_t DirtyTable::FindSlot(Lbn lbn) const {
  for (uint32_t slot = buckets_[BucketOf(lbn)]; slot != kNil; slot = entries_[slot].hash_next) {
    if (entries_[slot].lbn == lbn) {
      return slot;
    }
  }
  return kNil;
}

void DirtyTable::LruUnlink(uint32_t slot) {
  Entry& e = entries_[slot];
  if (e.lru_prev != kNil) {
    entries_[e.lru_prev].lru_next = e.lru_next;
  } else {
    lru_head_ = e.lru_next;
  }
  if (e.lru_next != kNil) {
    entries_[e.lru_next].lru_prev = e.lru_prev;
  } else {
    lru_tail_ = e.lru_prev;
  }
  e.lru_prev = e.lru_next = kNil;
}

void DirtyTable::LruPushFront(uint32_t slot) {
  Entry& e = entries_[slot];
  e.lru_prev = kNil;
  e.lru_next = lru_head_;
  if (lru_head_ != kNil) {
    entries_[lru_head_].lru_prev = slot;
  }
  lru_head_ = slot;
  if (lru_tail_ == kNil) {
    lru_tail_ = slot;
  }
}

void DirtyTable::Touch(Lbn lbn) {
  uint32_t slot = FindSlot(lbn);
  if (slot != kNil) {
    LruUnlink(slot);
    LruPushFront(slot);
    return;
  }
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[slot];
  e.lbn = lbn;
  const uint32_t bucket = BucketOf(lbn);
  e.hash_next = buckets_[bucket];
  buckets_[bucket] = slot;
  LruPushFront(slot);
  ++size_;
}

bool DirtyTable::Erase(Lbn lbn) {
  const uint32_t bucket = BucketOf(lbn);
  uint32_t prev = kNil;
  for (uint32_t slot = buckets_[bucket]; slot != kNil; slot = entries_[slot].hash_next) {
    if (entries_[slot].lbn == lbn) {
      if (prev == kNil) {
        buckets_[bucket] = entries_[slot].hash_next;
      } else {
        entries_[prev].hash_next = entries_[slot].hash_next;
      }
      LruUnlink(slot);
      entries_[slot] = Entry{};
      free_slots_.push_back(slot);
      --size_;
      return true;
    }
    prev = slot;
  }
  return false;
}

}  // namespace flashtier
