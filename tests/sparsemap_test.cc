// Unit and property tests for the sparse hash map (Section 4.1) and the
// dense baseline map.

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sparsemap/dense_map.h"
#include "src/sparsemap/sparse_hash_map.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

TEST(SparseHashMapTest, InsertFindErase) {
  SparseHashMap<uint64_t, uint64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.Insert(42, 100));
  EXPECT_FALSE(map.Insert(42, 200));  // overwrite
  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 200u);
  EXPECT_EQ(map.Find(43), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Erase(42));
  EXPECT_TRUE(map.empty());
}

TEST(SparseHashMapTest, SparseKeysOverHugeDomain) {
  // The whole point: keys spread over a 100+ TB address space.
  SparseHashMap<uint64_t, uint64_t> map;
  const uint64_t stride = 1ull << 34;
  for (uint64_t i = 0; i < 1000; ++i) {
    map.Insert(i * stride + 17, i);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(map.Find(i * stride + 17), nullptr);
    EXPECT_EQ(*map.Find(i * stride + 17), i);
    EXPECT_EQ(map.Find(i * stride + 18), nullptr);
  }
}

TEST(SparseHashMapTest, GrowsAndShrinksThroughRehash) {
  SparseHashMap<uint64_t, uint64_t> map;
  const size_t initial_buckets = map.bucket_count();
  for (uint64_t i = 0; i < 10'000; ++i) {
    map.Insert(i * 7919, i);
  }
  EXPECT_GT(map.bucket_count(), initial_buckets);
  for (uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_NE(map.Find(i * 7919), nullptr) << i;
  }
  for (uint64_t i = 0; i < 9'990; ++i) {
    ASSERT_TRUE(map.Erase(i * 7919));
  }
  EXPECT_EQ(map.size(), 10u);
  // Shrink happened and the survivors are still reachable.
  for (uint64_t i = 9'990; i < 10'000; ++i) {
    ASSERT_NE(map.Find(i * 7919), nullptr);
    EXPECT_EQ(*map.Find(i * 7919), i);
  }
}

TEST(SparseHashMapTest, MemoryGrowsWithEntriesNotDomain) {
  SparseHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100'000; ++i) {
    map.Insert(i * (1ull << 30), i);  // 100 PB domain
  }
  const size_t bytes = map.MemoryUsage();
  // ~16 B/entry payload + small overhead; must be far below a dense table
  // over the same domain and within ~3x of the payload.
  EXPECT_LT(bytes, 100'000u * 48u);
  EXPECT_GE(bytes, 100'000u * sizeof(SparseHashMap<uint64_t, uint64_t>::Entry));
}

TEST(SparseHashMapTest, ForEachVisitsEverythingOnce) {
  SparseHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 500; ++i) {
    map.Insert(i * 3 + 1, i);
  }
  std::unordered_map<uint64_t, uint64_t> seen;
  map.ForEach([&seen](uint64_t k, uint64_t v) { ++seen[k]; (void)v; });
  EXPECT_EQ(seen.size(), 500u);
  for (const auto& [k, count] : seen) {
    EXPECT_EQ(count, 1u) << k;
  }
}

TEST(SparseHashMapTest, MoveSemantics) {
  SparseHashMap<uint64_t, uint64_t> a;
  a.Insert(1, 10);
  a.Insert(2, 20);
  SparseHashMap<uint64_t, uint64_t> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.Find(1), 10u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset to empty
  a.Insert(3, 30);
  EXPECT_EQ(*a.Find(3), 30u);
}

TEST(SparseHashMapTest, ClearEmptiesAndRemainsUsable) {
  SparseHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100; ++i) {
    map.Insert(i, i);
  }
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  map.Insert(5, 55);
  EXPECT_EQ(*map.Find(5), 55u);
}

TEST(SparseHashMapTest, ReservePreSizesForBulkLoad) {
  SparseHashMap<uint64_t, uint64_t> map;
  map.Reserve(10'000);
  const size_t reserved_buckets = map.bucket_count();
  // 10k entries at the 0.75 max load factor need >= 13334 buckets.
  EXPECT_GE(reserved_buckets, 10'000u * 4 / 3);
  for (uint64_t i = 0; i < 10'000; ++i) {
    map.Insert(i * 7919, i);
  }
  // The bulk load fits without a single further rehash.
  EXPECT_EQ(map.bucket_count(), reserved_buckets);
  for (uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_NE(map.Find(i * 7919), nullptr);
    EXPECT_EQ(*map.Find(i * 7919), i);
  }
}

TEST(SparseHashMapTest, ReserveNeverShrinksAndPreservesEntries) {
  SparseHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 1'000; ++i) {
    map.Insert(i * 13, i);
  }
  const size_t buckets = map.bucket_count();
  map.Reserve(10);  // smaller than current size: no-op
  EXPECT_EQ(map.bucket_count(), buckets);
  map.Reserve(4'000);  // grows, existing entries rehash in place
  EXPECT_GT(map.bucket_count(), buckets);
  EXPECT_EQ(map.size(), 1'000u);
  for (uint64_t i = 0; i < 1'000; ++i) {
    ASSERT_NE(map.Find(i * 13), nullptr);
    EXPECT_EQ(*map.Find(i * 13), i);
  }
}

// Property test: random interleavings of insert/overwrite/erase/lookup match
// std::unordered_map exactly. Parameterized over seeds and key-space density
// to shake out probe-chain and backward-shift deletion bugs.
class SparseMapPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(SparseMapPropertyTest, MatchesReferenceMap) {
  const auto [seed, key_space] = GetParam();
  SparseHashMap<uint64_t, uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(seed);
  for (int step = 0; step < 30'000; ++step) {
    const uint64_t key = rng.Below(key_space) * 977;
    const uint64_t roll = rng.Below(100);
    if (roll < 45) {
      const uint64_t value = rng.Next();
      const bool fresh_map = map.Insert(key, value);
      const bool fresh_ref = ref.insert_or_assign(key, value).second;
      ASSERT_EQ(fresh_map, fresh_ref);
    } else if (roll < 70) {
      ASSERT_EQ(map.Erase(key), ref.erase(key) > 0);
    } else {
      const uint64_t* found = map.Find(key);
      const auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(found, nullptr) << "phantom key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "lost key " << key;
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full cross-check at the end.
  size_t visited = 0;
  map.ForEach([&](uint64_t k, uint64_t v) {
    ++visited;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDensities, SparseMapPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(50u, 2'000u, 1'000'000u)));

// Reference table for the layout test: a flat bucket array with the sparse
// map's hash, linear probing, backward-shift deletion, grow-before-probe at
// load 0.75, shrink below 0.15, and rehash in old bucket order. Its bucket
// order is therefore the order the sparse map's ForEach must visit.
class FlatProbeTable {
 public:
  using Slot = std::optional<std::pair<uint64_t, uint64_t>>;

  FlatProbeTable() : buckets_(kMinBuckets) {}

  void Insert(uint64_t key, uint64_t value) {
    if (static_cast<double>(size_ + 1) > 0.75 * static_cast<double>(buckets_.size())) {
      Rehash(buckets_.size() * 2);
    }
    size_t b = Home(key);
    while (buckets_[b] && buckets_[b]->first != key) {
      b = (b + 1) & Mask();
    }
    size_ += buckets_[b] ? 0 : 1;
    buckets_[b] = std::make_pair(key, value);
  }

  void Erase(uint64_t key) {
    size_t hole = Home(key);
    while (buckets_[hole] && buckets_[hole]->first != key) {
      hole = (hole + 1) & Mask();
    }
    if (!buckets_[hole]) {
      return;
    }
    buckets_[hole].reset();
    --size_;
    for (size_t cur = (hole + 1) & Mask(); buckets_[cur]; cur = (cur + 1) & Mask()) {
      const size_t home = Home(buckets_[cur]->first);
      if (((cur - home) & Mask()) >= ((cur - hole) & Mask())) {
        std::swap(buckets_[hole], buckets_[cur]);
        hole = cur;
      }
    }
    if (buckets_.size() > kMinBuckets &&
        static_cast<double>(size_) < 0.15 * static_cast<double>(buckets_.size())) {
      Rehash(buckets_.size() / 2);
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> InBucketOrder() const {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const Slot& slot : buckets_) {
      if (slot) {
        out.push_back(*slot);
      }
    }
    return out;
  }

  size_t size() const { return size_; }
  size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr size_t kMinBuckets = 64;

  size_t Mask() const { return buckets_.size() - 1; }
  size_t Home(uint64_t key) const { return static_cast<size_t>(MixHash64(key)) & Mask(); }

  void Rehash(size_t new_buckets) {
    std::vector<Slot> old = std::move(buckets_);
    buckets_.assign(new_buckets, std::nullopt);
    for (const Slot& slot : old) {
      if (slot) {
        size_t b = Home(slot->first);
        while (buckets_[b]) {
          b = (b + 1) & Mask();
        }
        buckets_[b] = slot;
      }
    }
  }

  std::vector<Slot> buckets_;
  size_t size_ = 0;
};

// Erase moves entries between packed slots instead of re-inserting them, so
// the layout — ForEach order, table size and memory — must match the flat
// reference after every step of a run that grows and then shrinks the table.
TEST(SparseHashMapTest, LayoutMatchesFlatReferenceTable) {
  using Map = SparseHashMap<uint64_t, uint64_t>;
  const Map empty;
  const size_t group_bytes = empty.MemoryUsage() / (empty.bucket_count() / Map::kGroupSize);
  Map map;
  FlatProbeTable ref;
  Rng rng(11);
  // Insert-heavy, erase-heavy, then even: the table grows from 64 to 2048
  // buckets, shrinks twice to 512 and grows again.
  for (const uint64_t insert_pct : {75u, 3u, 50u}) {
    for (int step = 0; step < 4'000; ++step) {
      const uint64_t key = rng.Below(1'500) * 7919;
      if (rng.Below(100) < insert_pct) {
        const uint64_t value = rng.Next();
        map.Insert(key, value);
        ref.Insert(key, value);
      } else {
        map.Erase(key);
        ref.Erase(key);
      }
      std::vector<std::pair<uint64_t, uint64_t>> order;
      map.ForEach([&order](uint64_t k, uint64_t v) { order.emplace_back(k, v); });
      ASSERT_EQ(order, ref.InBucketOrder()) << "step " << step;
      ASSERT_EQ(map.bucket_count(), ref.bucket_count()) << "step " << step;
      const size_t groups = ref.bucket_count() / Map::kGroupSize;
      const size_t memory = ref.size() * sizeof(Map::Entry) + groups * group_bytes;
      ASSERT_EQ(map.MemoryUsage(), memory) << "step " << step;
    }
  }
}

// ---- DenseMap ----

TEST(DenseMapTest, BasicOperations) {
  DenseMap<uint32_t> map(100, 0xffffffffu);
  EXPECT_EQ(map.slot_count(), 100u);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_TRUE(map.Insert(5, 777));
  EXPECT_FALSE(map.Insert(5, 778));  // overwrite
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), 778u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(5));
  EXPECT_FALSE(map.Erase(5));
  EXPECT_EQ(map.size(), 0u);
}

TEST(DenseMapTest, MemoryProportionalToSlots) {
  DenseMap<uint32_t> map(100'000, 0xffffffffu);
  // Dense cost: every slot pays, used or not — the SSD's problem.
  EXPECT_GE(map.MemoryUsage(), 100'000u * sizeof(uint32_t));
  map.Insert(1, 2);
  EXPECT_GE(map.MemoryUsage(), 100'000u * sizeof(uint32_t));
}

TEST(DenseMapTest, ForEachSkipsEmpty) {
  DenseMap<uint32_t> map(50, 0xffffffffu);
  map.Insert(3, 30);
  map.Insert(40, 400);
  std::vector<std::pair<size_t, uint32_t>> seen;
  map.ForEach([&seen](size_t i, uint32_t v) { seen.emplace_back(i, v); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<size_t, uint32_t>{3, 30}));
  EXPECT_EQ(seen[1], (std::pair<size_t, uint32_t>{40, 400}));
}

TEST(DenseMapTest, OutOfRangeFindIsNull) {
  DenseMap<uint32_t> map(10, 0xffffffffu);
  EXPECT_EQ(map.Find(10), nullptr);
  EXPECT_EQ(map.Find(9999), nullptr);
}

}  // namespace
}  // namespace flashtier
