// Sparse hash map in the Google sparsehash layout (Section 4.1 of the paper).
//
// The table's t buckets are divided into t/M groups of M = 32 buckets. A
// group stores only its occupied buckets, packed in an exact-sized heap
// array, plus a 32-bit occupancy bitmap; bucket i of a group lives at packed
// index popcount(bitmap & ((1 << i) - 1)). This gives ~(sizeof entry + 3.5
// bits) per occupied bucket and nothing for empty ones, which is what makes
// the SSC's sparse unified address space affordable (the paper measures
// ~8.4 B/entry for 64-bit values).
//
// Collisions are resolved by linear probing across the whole table; erases
// use backward-shift deletion so memory is reclaimed immediately (the paper:
// "a remove operation ... results in reclaiming memory and the occupancy
// bitmap is updated accordingly") and no tombstones accumulate. The shift
// copies entries between occupied buckets, so an erase resizes exactly one
// group's packed array, that of the last bucket it vacates. With the 0.75
// maximum load factor, probe sequences stay in the paper's observed 4-5
// probe range.
//
// Inserts into a group reallocate its packed array (exact sizing, like
// sparsehash), which is why the paper reports inserts ~90% slower than a
// dense table — behaviour the micro-bench reproduces.

#ifndef FLASHTIER_SPARSEMAP_SPARSE_HASH_MAP_H_
#define FLASHTIER_SPARSEMAP_SPARSE_HASH_MAP_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace flashtier {

inline uint64_t MixHash64(uint64_t x) {
  // splitmix64 finalizer; good avalanche for sequential keys.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

template <typename K, typename V>
class SparseHashMap {
 public:
  static constexpr uint32_t kGroupSize = 32;   // M in the paper
  static constexpr uint32_t kGroupShift = 5;   // log2(kGroupSize)
  static constexpr uint32_t kGroupMask = kGroupSize - 1;
  static constexpr double kMaxLoadFactor = 0.75;
  static_assert(kGroupSize == (uint32_t{1} << kGroupShift),
                "group indexing relies on shift/mask arithmetic");

  struct Entry {
    K key;
    V value;
  };

  SparseHashMap() { InitTable(kMinBuckets); }

  ~SparseHashMap() { Destroy(); }

  SparseHashMap(const SparseHashMap&) = delete;
  SparseHashMap& operator=(const SparseHashMap&) = delete;

  SparseHashMap(SparseHashMap&& other) noexcept { MoveFrom(std::move(other)); }
  SparseHashMap& operator=(SparseHashMap&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bucket_count() const { return buckets_; }

  // Returns a pointer to the value for `key`, or nullptr. The pointer is
  // invalidated by any mutation of the map.
  V* Find(K key) {
    size_t probes = 0;
    const size_t b = FindBucket(key, &probes);
    if (b == kNotFound) {
      return nullptr;
    }
    return &EntryAt(b)->value;
  }
  const V* Find(K key) const { return const_cast<SparseHashMap*>(this)->Find(key); }

  bool Contains(K key) const { return Find(key) != nullptr; }

  // Inserts or overwrites. Returns true if a new entry was created.
  bool Insert(K key, const V& value) {
    if (static_cast<double>(size_ + 1) >
        kMaxLoadFactor * static_cast<double>(buckets_)) {
      Rehash(buckets_ * 2);
    }
    size_t bucket = Hash(key) & mask_;
    while (true) {
      Entry* e = EntryAt(bucket);
      if (e == nullptr) {
        InsertAt(bucket, key, value);
        ++size_;
        return true;
      }
      if (e->key == key) {
        e->value = value;
        return false;
      }
      bucket = (bucket + 1) & mask_;
      ++probe_total_;
    }
  }

  // Removes `key`. Returns false if absent.
  bool Erase(K key) {
    size_t probes = 0;
    size_t hole = FindBucket(key, &probes);
    if (hole == kNotFound) {
      return false;
    }
    // Backward-shift deletion: walk the probe chain after the hole and move
    // back any entry whose home bucket precedes (cyclically) the hole. Every
    // bucket a move fills was occupied, so moves copy between packed slots
    // and only the last bucket vacated is removed (one array resize).
    Entry* hole_entry = EntryAt(hole);
    size_t cur = (hole + 1) & mask_;
    while (Entry* e = EntryAt(cur)) {
      const size_t home = Hash(e->key) & mask_;
      // Move e into the hole iff the hole lies cyclically in [home, cur).
      if (((cur - home) & mask_) >= ((cur - hole) & mask_)) {
        *hole_entry = *e;
        hole_entry = e;
        hole = cur;
      }
      cur = (cur + 1) & mask_;
    }
    RemoveAt(hole);
    --size_;
    MaybeShrink();
    return true;
  }

  void Clear() {
    Destroy();
    InitTable(kMinBuckets);
    size_ = 0;
  }

  // Pre-sizes the table so `n` entries fit under the maximum load factor
  // without intermediate rehashes — a bulk load (checkpoint recovery) then
  // pays one table allocation instead of log2(n) rehash passes. Never
  // shrinks the table.
  void Reserve(size_t n) {
    size_t want = kMinBuckets;
    while (static_cast<double>(n) > kMaxLoadFactor * static_cast<double>(want)) {
      want *= 2;
    }
    if (want > buckets_) {
      Rehash(want);
    }
  }

  // Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Group& g : groups_) {
      const uint32_t n = static_cast<uint32_t>(std::popcount(g.bitmap));
      for (uint32_t i = 0; i < n; ++i) {
        fn(g.entries[i].key, g.entries[i].value);
      }
    }
  }

  // Heap bytes consumed: packed entry arrays + per-group headers + table
  // spine. This is the figure the Table 4 memory experiments account.
  size_t MemoryUsage() const {
    return size_ * sizeof(Entry) + groups_.capacity() * sizeof(Group);
  }

  // Diagnostics: cumulative linear probes beyond the home bucket.
  uint64_t probe_total() const { return probe_total_; }

 private:
  static constexpr size_t kMinBuckets = 2 * kGroupSize;
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  struct Group {
    uint32_t bitmap = 0;
    Entry* entries = nullptr;
  };

  static size_t Hash(K key) { return static_cast<size_t>(MixHash64(static_cast<uint64_t>(key))); }

  void InitTable(size_t buckets) {
    buckets_ = buckets;
    mask_ = buckets - 1;
    groups_.assign(buckets >> kGroupShift, Group{});
  }

  void Destroy() {
    for (Group& g : groups_) {
      delete[] reinterpret_cast<char*>(g.entries);
      g.entries = nullptr;
      g.bitmap = 0;
    }
    groups_.clear();
  }

  void MoveFrom(SparseHashMap&& other) {
    groups_ = std::move(other.groups_);
    buckets_ = other.buckets_;
    mask_ = other.mask_;
    size_ = other.size_;
    probe_total_ = other.probe_total_;
    other.groups_.clear();
    other.InitTable(kMinBuckets);
    other.size_ = 0;
  }

  // Packed pointer for bucket `b`, or nullptr if unoccupied.
  Entry* EntryAt(size_t b) {
    Group& g = groups_[b >> kGroupShift];
    const uint32_t off = static_cast<uint32_t>(b & kGroupMask);
    if (((g.bitmap >> off) & 1u) == 0) {
      return nullptr;
    }
    const uint32_t idx =
        static_cast<uint32_t>(std::popcount(g.bitmap & ((uint32_t{1} << off) - 1)));
    return &g.entries[idx];
  }

  size_t FindBucket(K key, size_t* probes) const {
    size_t bucket = Hash(key) & mask_;
    while (true) {
      const Entry* e = const_cast<SparseHashMap*>(this)->EntryAt(bucket);
      if (e == nullptr) {
        return kNotFound;
      }
      if (e->key == key) {
        return bucket;
      }
      bucket = (bucket + 1) & mask_;
      ++*probes;
    }
  }

  // Inserts into an unoccupied bucket, reallocating the group's packed array
  // to the exact new size (sparsehash behaviour).
  void InsertAt(size_t b, K key, const V& value) {
    Group& g = groups_[b >> kGroupShift];
    const uint32_t off = static_cast<uint32_t>(b & kGroupMask);
    assert(((g.bitmap >> off) & 1u) == 0);
    const uint32_t old_n = static_cast<uint32_t>(std::popcount(g.bitmap));
    const uint32_t idx =
        static_cast<uint32_t>(std::popcount(g.bitmap & ((uint32_t{1} << off) - 1)));
    Entry* grown = reinterpret_cast<Entry*>(new char[(old_n + 1) * sizeof(Entry)]);
    if (old_n != 0) {
      std::memcpy(grown, g.entries, idx * sizeof(Entry));
      std::memcpy(grown + idx + 1, g.entries + idx, (old_n - idx) * sizeof(Entry));
    }
    grown[idx].key = key;
    grown[idx].value = value;
    delete[] reinterpret_cast<char*>(g.entries);
    g.entries = grown;
    g.bitmap |= uint32_t{1} << off;
  }

  void RemoveAt(size_t b) {
    Group& g = groups_[b >> kGroupShift];
    const uint32_t off = static_cast<uint32_t>(b & kGroupMask);
    assert(((g.bitmap >> off) & 1u) != 0);
    const uint32_t old_n = static_cast<uint32_t>(std::popcount(g.bitmap));
    const uint32_t idx =
        static_cast<uint32_t>(std::popcount(g.bitmap & ((uint32_t{1} << off) - 1)));
    Entry* shrunk = nullptr;
    if (old_n > 1) {
      shrunk = reinterpret_cast<Entry*>(new char[(old_n - 1) * sizeof(Entry)]);
      std::memcpy(shrunk, g.entries, idx * sizeof(Entry));
      std::memcpy(shrunk + idx, g.entries + idx + 1, (old_n - 1 - idx) * sizeof(Entry));
    }
    delete[] reinterpret_cast<char*>(g.entries);
    g.entries = shrunk;
    g.bitmap &= ~(uint32_t{1} << off);
  }

  void Rehash(size_t new_buckets) {
    std::vector<Group> old_groups = std::move(groups_);
    InitTable(new_buckets);
    for (Group& g : old_groups) {
      const uint32_t n = static_cast<uint32_t>(std::popcount(g.bitmap));
      for (uint32_t i = 0; i < n; ++i) {
        // Re-place without the load-factor check (new table is big enough).
        size_t bucket = Hash(g.entries[i].key) & mask_;
        while (EntryAt(bucket) != nullptr) {
          bucket = (bucket + 1) & mask_;
        }
        InsertAt(bucket, g.entries[i].key, g.entries[i].value);
      }
      delete[] reinterpret_cast<char*>(g.entries);
      g.entries = nullptr;
    }
  }

  void MaybeShrink() {
    if (buckets_ > kMinBuckets &&
        static_cast<double>(size_) < 0.15 * static_cast<double>(buckets_)) {
      Rehash(buckets_ / 2);
    }
  }

  std::vector<Group> groups_;
  size_t buckets_ = 0;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t probe_total_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_SPARSEMAP_SPARSE_HASH_MAP_H_
