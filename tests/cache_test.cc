// Tests for the cache managers: the dirty table, write-through and
// write-back FlashTier managers, and the FlashCache-style native manager.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/cache/native.h"
#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/policy/lru_set.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

// ---- DirtyTable: the write-back manager's unbounded LruSet ----

// The table's least-recently-used block; kInvalidLbn if empty.
Lbn Lru(const LruSet& table) {
  return table.LruWhere([](Lbn) { return true; });
}

TEST(DirtyTableTest, TouchInsertsAndRefreshesLru) {
  LruSet table;
  table.Touch(1);
  table.Touch(2);
  table.Touch(3);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(Lru(table), 1u);
  table.Touch(1);  // refresh: 2 becomes LRU
  EXPECT_EQ(Lru(table), 2u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(DirtyTableTest, EraseMaintainsLruChain) {
  LruSet table;
  for (Lbn i = 1; i <= 5; ++i) {
    table.Touch(i);
  }
  EXPECT_TRUE(table.Erase(1));  // erase the LRU itself
  EXPECT_EQ(Lru(table), 2u);
  EXPECT_TRUE(table.Erase(4));  // erase from the middle
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.Erase(4));
  EXPECT_FALSE(table.Contains(4));
  EXPECT_TRUE(table.Contains(5));
  table.Erase(2);
  table.Erase(3);
  table.Erase(5);
  EXPECT_EQ(Lru(table), kInvalidLbn);
}

TEST(DirtyTableTest, SlotReuseAfterErase) {
  LruSet table;
  for (Lbn i = 0; i < 100; ++i) {
    table.Touch(i);
    table.Erase(i);
  }
  EXPECT_EQ(table.size(), 0u);
  // Memory bounded by peak entries, not total inserts.
  EXPECT_LT(table.MemoryUsage(), 10'000u);
}

// ---- Shared fixtures ----

struct SscRig {
  SscRig(EvictionPolicy policy = EvictionPolicy::kSeUtil) : disk(&clock) {
    SscConfig config;
    config.capacity_pages = 2048;
    config.policy = policy;
    config.geometry.planes = 4;
    ssc = std::make_unique<SscDevice>(config, &clock);
  }
  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SscDevice> ssc;
  AdmitAllPolicy admit_all;
};

// ---- WriteThroughManager ----

TEST(WriteThroughTest, ReadMissFetchesFromDiskAndPopulates) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(50, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(50));
  EXPECT_EQ(manager.stats().read_misses, 1u);
  // Second read hits the cache, no disk access.
  const uint64_t disk_reads = rig.disk.stats().reads;
  ASSERT_EQ(manager.Read(50, &token), Status::kOk);
  EXPECT_EQ(manager.stats().read_hits, 1u);
  EXPECT_EQ(rig.disk.stats().reads, disk_reads);
}

TEST(WriteThroughTest, WritesGoToBothDiskAndCache) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(10, 0xdead), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 1u);
  uint64_t token = 0;
  ASSERT_EQ(rig.ssc->Read(10, &token), Status::kOk);  // in cache
  EXPECT_EQ(token, 0xdeadu);
  uint64_t disk_token = 0;
  ASSERT_EQ(rig.disk.Read(10, &disk_token), Status::kOk);  // and on disk
  EXPECT_EQ(disk_token, 0xdeadu);
}

TEST(WriteThroughTest, AllCachedDataIsClean) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(manager.Write(i, i), Status::kOk);
  }
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
  EXPECT_EQ(manager.HostMemoryUsage(), 0u);  // no per-block host state
}

TEST(WriteThroughTest, CacheUsableImmediatelyAfterCrash) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  for (Lbn i = 0; i < 200; ++i) {
    ASSERT_EQ(manager.Write(i, i + 1), Status::kOk);
  }
  rig.ssc->SimulateCrash();
  ASSERT_EQ(rig.ssc->Recover(), Status::kOk);
  // No manager recovery step at all; reads are correct (hit or refetch).
  for (Lbn i = 0; i < 200; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(manager.Read(i, &token), Status::kOk);
    EXPECT_EQ(token, i + 1);
  }
}

// ---- WriteBackManager ----

TEST(WriteBackTest, WritesGoOnlyToCacheUntilCleaning) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(5, 0xabc), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 0u);
  EXPECT_EQ(manager.dirty_blocks(), 1u);
  EXPECT_EQ(rig.ssc->dirty_pages(), 1u);
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 0xabcu);
}

TEST(WriteBackTest, ExceedingDirtyThresholdTriggersCleaning) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  // 20% of the 2048-page cache is 409 dirty blocks.
  for (Lbn i = 0; i < 600; ++i) {
    ASSERT_EQ(manager.Write(i * 97, i), Status::kOk);
  }
  EXPECT_GT(manager.stats().cleans, 0u);
  EXPECT_GT(rig.disk.stats().writes, 0u);
  EXPECT_LE(manager.dirty_blocks(), 410u);
  // Cleaned blocks remain readable from the cache.
  uint64_t token = 0;
  ASSERT_EQ(manager.Read(0, &token), Status::kOk);
  EXPECT_EQ(token, 0u);
}

TEST(WriteBackTest, ContiguousDirtyBlocksCleanedAsOneDiskWrite) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  // Dirty runs of 16 contiguous blocks.
  for (Lbn base = 0; base < 200 * 16; base += 16) {
    for (Lbn i = 0; i < 16; ++i) {
      ASSERT_EQ(manager.Write(base + i, base + i), Status::kOk);
    }
  }
  ASSERT_GT(manager.stats().writebacks, 0u);
  // Coalescing: far fewer disk writes than blocks written back.
  EXPECT_LT(rig.disk.stats().writes * 4, manager.stats().writebacks);
}

TEST(WriteBackTest, FlushAllWritesEverythingToDisk) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  for (Lbn i = 0; i < 50; ++i) {
    ASSERT_EQ(manager.Write(i, i + 100), Status::kOk);
  }
  ASSERT_EQ(manager.FlushAll(), Status::kOk);
  EXPECT_EQ(manager.dirty_blocks(), 0u);
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
  for (Lbn i = 0; i < 50; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.disk.Read(i, &token), Status::kOk);
    EXPECT_EQ(token, i + 100);
  }
}

TEST(WriteBackTest, RecoverDirtyTableRebuildsFromSsc) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  for (Lbn i = 0; i < 60; ++i) {
    ASSERT_EQ(manager.Write(i * 3, i), Status::kOk);
  }
  const uint64_t dirty_before = manager.dirty_blocks();
  rig.ssc->SimulateCrash();
  ASSERT_EQ(rig.ssc->Recover(), Status::kOk);
  WriteBackManager fresh(rig.ssc.get(), &rig.disk, rig.admit_all);
  fresh.RecoverDirtyTable();
  EXPECT_EQ(fresh.dirty_blocks(), dirty_before);
  // The recovered manager can clean everything.
  ASSERT_EQ(fresh.FlushAll(), Status::kOk);
  EXPECT_EQ(rig.ssc->dirty_pages(), 0u);
}

TEST(WriteBackTest, HostMemoryTracksOnlyDirtyBlocks) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  // Clean traffic (read misses) costs no manager memory growth beyond the
  // preallocated table.
  const size_t before = manager.HostMemoryUsage();
  for (Lbn i = 1000; i < 1400; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(manager.Read(i, &token), Status::kOk);
  }
  EXPECT_EQ(manager.HostMemoryUsage(), before);
  EXPECT_EQ(manager.dirty_blocks(), 0u);
}

// ---- NativeCacheManager ----

struct NativeRig {
  explicit NativeRig(NativeCacheManager::Options opts = {}, uint64_t cache_pages = 2048)
      : disk(&clock) {
    SsdFtl::Options ssd_opts;
    ssd_opts.geometry.planes = 4;
    ssd = std::make_unique<SsdFtl>(cache_pages + NativeCacheManager::kMetadataRegionPages,
                                   &clock, ssd_opts);
    manager = std::make_unique<NativeCacheManager>(ssd.get(), &disk, cache_pages, admit_all, opts);
  }
  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SsdFtl> ssd;
  AdmitAllPolicy admit_all;
  std::unique_ptr<NativeCacheManager> manager;
};

TEST(NativeManagerTest, ReadMissPopulatesAndHits) {
  NativeRig rig;
  uint64_t token = 0;
  ASSERT_EQ(rig.manager->Read(123456, &token), Status::kOk);
  EXPECT_EQ(token, DiskModel::OriginalToken(123456));
  EXPECT_EQ(rig.manager->cached_blocks(), 1u);
  const uint64_t disk_reads = rig.disk.stats().reads;
  ASSERT_EQ(rig.manager->Read(123456, &token), Status::kOk);
  EXPECT_EQ(rig.disk.stats().reads, disk_reads);  // cache hit
  EXPECT_EQ(rig.manager->stats().read_hits, 1u);
}

TEST(NativeManagerTest, WriteBackHoldsDirtyDataOffDisk) {
  NativeRig rig;
  ASSERT_EQ(rig.manager->Write(7, 0x77), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 0u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 1u);
  uint64_t token = 0;
  ASSERT_EQ(rig.manager->Read(7, &token), Status::kOk);
  EXPECT_EQ(token, 0x77u);
}

TEST(NativeManagerTest, WriteThroughWritesDiskImmediately) {
  NativeCacheManager::Options opts;
  opts.mode = NativeCacheManager::Mode::kWriteThrough;
  NativeRig rig(opts);
  ASSERT_EQ(rig.manager->Write(7, 0x77), Status::kOk);
  EXPECT_EQ(rig.disk.stats().writes, 1u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
}

TEST(NativeManagerTest, LruEvictionWritesBackDirtyVictims) {
  // A tiny cache forced into eviction.
  NativeRig rig({}, /*cache_pages=*/256);
  for (Lbn i = 0; i < 2000; ++i) {
    ASSERT_EQ(rig.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(rig.manager->stats().evicts, 0u);
  EXPECT_LE(rig.manager->cached_blocks(), 256u);
  // Every value is durable somewhere: either cached or written back.
  for (Lbn i = 0; i < 2000; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.manager->Read(i, &token), Status::kOk);
    ASSERT_EQ(token, i) << i;
  }
}

TEST(NativeManagerTest, MetadataWritesOnlyInPersistentWriteBack) {
  NativeRig with_persist;
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(with_persist.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(with_persist.manager->stats().metadata_writes, 0u);

  NativeCacheManager::Options no_persist_opts;
  no_persist_opts.persist_metadata = false;
  NativeRig without(no_persist_opts);
  for (Lbn i = 0; i < 100; ++i) {
    ASSERT_EQ(without.manager->Write(i, i), Status::kOk);
  }
  EXPECT_EQ(without.manager->stats().metadata_writes, 0u);
}

TEST(NativeManagerTest, HostMemoryIs22BytesPerSlot) {
  NativeRig rig;
  // The paper's Table 4: 22 B/block of host state for every cached block.
  // Slots are preallocated for the whole cache (set-associative table).
  EXPECT_GE(rig.manager->HostMemoryUsage(), 2048u * 22u);
  EXPECT_LE(rig.manager->HostMemoryUsage(), 2048u * 28u);  // padding allowance
}

TEST(NativeManagerTest, FlushAllCleansEverything) {
  NativeRig rig;
  for (Lbn i = 0; i < 300; ++i) {
    ASSERT_EQ(rig.manager->Write(i * 11, i), Status::kOk);
  }
  ASSERT_EQ(rig.manager->FlushAll(), Status::kOk);
  EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
  for (Lbn i = 0; i < 300; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(rig.disk.Read(i * 11, &token), Status::kOk);
    EXPECT_EQ(token, i);
  }
}

TEST(NativeManagerTest, RecoveryEstimateGrowsWithCacheUse) {
  NativeRig rig;
  const uint64_t empty = rig.manager->RecoveryEstimateUs();
  for (Lbn i = 0; i < 1500; ++i) {
    ASSERT_EQ(rig.manager->Write(i, i), Status::kOk);
  }
  EXPECT_GT(rig.manager->RecoveryEstimateUs(), empty);
}

// A cache smaller than one 256-way set is one set of its own size: it never
// holds more blocks than it has pages.
TEST(NativeManagerTest, CacheSmallerThanOneSetHoldsAtMostItsPages) {
  NativeRig rig({}, /*cache_pages=*/128);
  for (Lbn i = 0; i < 1000; ++i) {
    ASSERT_EQ(rig.manager->Write(i * 3, i), Status::kOk);
    ASSERT_LE(rig.manager->cached_blocks(), 128u) << "after write " << i;
  }
  EXPECT_GT(rig.manager->stats().evicts, 0u);
  EXPECT_LE(rig.manager->HostMemoryUsage(), 128u * 28u);
}

TEST(NativeManagerTest, MixedWorkloadNeverReturnsStaleData) {
  NativeRig rig({}, /*cache_pages=*/512);
  Rng rng(17);
  std::unordered_map<Lbn, uint64_t> oracle;
  for (uint64_t i = 0; i < 20'000; ++i) {
    const Lbn lbn = rng.Below(2000);
    if (rng.Chance(0.5)) {
      ASSERT_EQ(rig.manager->Write(lbn, i), Status::kOk);
      oracle[lbn] = i;
    } else {
      uint64_t token = 0;
      ASSERT_EQ(rig.manager->Read(lbn, &token), Status::kOk);
      const auto it = oracle.find(lbn);
      const uint64_t expected =
          it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
      ASSERT_EQ(token, expected) << "lbn " << lbn << " op " << i;
    }
  }
}

}  // namespace
}  // namespace flashtier
