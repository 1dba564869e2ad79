// Tests for the paper's extension features: the extended exists query
// (Section 4.2.1), background garbage collection and wear-leveling
// relocation (Sections 3.3/5), and the write-back manager's checksum and
// explicit-eviction options (Sections 4.2.1/4.4).

#include <gtest/gtest.h>

#include "src/cache/write_back.h"
#include "src/ssc/ssc_device.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

SscConfig SmallConfig() {
  SscConfig c;
  c.capacity_pages = 2048;
  c.geometry.planes = 4;
  c.mode = ConsistencyMode::kFull;
  return c;
}

TEST(ExistsDetailTest, ReportsPresenceDirtinessAndFrequency) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(100, 1), Status::kOk);
  ASSERT_EQ(ssc.WriteClean(101, 2), Status::kOk);
  std::vector<SscDevice::BlockInfo> info;
  ssc.ExistsDetail(100, 3, &info);
  ASSERT_EQ(info.size(), 3u);
  EXPECT_TRUE(info[0].present);
  EXPECT_TRUE(info[0].dirty);
  EXPECT_TRUE(info[1].present);
  EXPECT_FALSE(info[1].dirty);
  EXPECT_FALSE(info[2].present);
  EXPECT_EQ(info[2].access_frequency, 0u);
}

TEST(ExistsDetailTest, FrequencyGrowsWithBlockMappedReads) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Fill one full logical erase block sequentially so it becomes
  // block-mapped via merges, then read it repeatedly.
  for (uint64_t pass = 0; pass < 3; ++pass) {
    for (Lbn lbn = 0; lbn < 1024; ++lbn) {
      ASSERT_EQ(ssc.WriteClean(lbn, lbn), Status::kOk);
    }
  }
  uint64_t token = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(ssc.Read(64, &token), Status::kOk);  // offset into a block-mapped region
  }
  std::vector<SscDevice::BlockInfo> info;
  ssc.ExistsDetail(64, 1, &info);
  ASSERT_TRUE(info[0].present);
  EXPECT_GE(info[0].access_frequency, 1u);
}

TEST(BackgroundCollectTest, ReclaimsDeadSpaceWithinBudget) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Create reclaimable garbage: clean data then overwrite it all.
  for (Lbn lbn = 0; lbn < 1500; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, lbn), Status::kOk);
  }
  for (Lbn lbn = 0; lbn < 1500; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, lbn + 10'000), Status::kOk);
  }
  const uint64_t free_before = ssc.free_blocks();
  const uint64_t t0 = clock.now_us();
  const uint32_t reclaimed = ssc.BackgroundCollect(50'000);
  EXPECT_LE(clock.now_us() - t0, 60'000u);  // roughly respects the budget
  if (reclaimed > 0) {
    EXPECT_GT(ssc.free_blocks(), free_before);
  }
  // Device still serves correct data afterwards.
  for (Lbn lbn = 0; lbn < 1500; lbn += 97) {
    uint64_t token = 0;
    const Status s = ssc.Read(lbn, &token);
    if (IsOk(s)) {
      EXPECT_EQ(token, lbn + 10'000);
    }
  }
}

TEST(BackgroundCollectTest, NoWorkNoCost) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(1, 1), Status::kOk);  // nothing evictable, nothing dead
  const uint64_t t0 = clock.now_us();
  EXPECT_EQ(ssc.BackgroundCollect(100'000), 0u);
  EXPECT_LT(clock.now_us() - t0, 5'000u);
}

TEST(WearLevelTest, NarrowsTheWearSpread) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // A stable cold region plus heavy churn elsewhere builds a wear imbalance.
  for (uint64_t pass = 0; pass < 2; ++pass) {
    for (Lbn lbn = 0; lbn < 512; ++lbn) {
      ASSERT_EQ(ssc.WriteClean(lbn, lbn), Status::kOk);
    }
  }
  Rng rng(3);
  for (uint64_t i = 0; i < 40'000; ++i) {
    ASSERT_EQ(ssc.WriteClean(2048 + rng.Below(1024), i), Status::kOk);
  }
  const uint32_t spread = ssc.device().MaxWearDiff();
  int moved = 0;
  for (int i = 0; i < 20 && ssc.WearLevelOnce(2); ++i) {
    ++moved;
  }
  if (spread > 2) {
    EXPECT_GT(moved, 0);
  }
  // Data is intact after relocations.
  for (Lbn lbn = 0; lbn < 512; lbn += 37) {
    uint64_t token = 0;
    const Status s = ssc.Read(lbn, &token);
    if (IsOk(s)) {
      EXPECT_EQ(token, lbn);
    }
  }
}

TEST(WearLevelTest, NoOpWhenBalanced) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteClean(1, 1), Status::kOk);
  EXPECT_FALSE(ssc.WearLevelOnce(1000));
}

struct WbRig {
  explicit WbRig(const WriteBackManager::Options& opts)
      : disk(DiskParams{}, &clock), ssc(SmallConfig(), &clock), manager(&ssc, &disk, opts) {}
  SimClock clock;
  DiskModel disk;
  SscDevice ssc;
  WriteBackManager manager;
};

TEST(WriteBackChecksumTest, CleanVerifiesAgainstStoredChecksums) {
  WriteBackManager::Options opts;
  opts.verify_checksums = true;
  WbRig rig(opts);
  for (Lbn lbn = 0; lbn < 300; ++lbn) {
    ASSERT_EQ(rig.manager.Write(lbn, lbn * 7), Status::kOk);
  }
  ASSERT_EQ(rig.manager.FlushAll(), Status::kOk);
  EXPECT_EQ(rig.manager.checksum_failures(), 0u);
  // Checksums consume host memory only while blocks are dirty.
  EXPECT_EQ(rig.manager.dirty_blocks(), 0u);
}

TEST(WriteBackChecksumTest, HostMemoryGrowsWithChecksums) {
  WriteBackManager::Options plain;
  WbRig a(plain);
  WriteBackManager::Options checked;
  checked.verify_checksums = true;
  WbRig b(checked);
  for (Lbn lbn = 0; lbn < 200; ++lbn) {
    ASSERT_EQ(a.manager.Write(lbn, lbn), Status::kOk);
    ASSERT_EQ(b.manager.Write(lbn, lbn), Status::kOk);
  }
  EXPECT_GT(b.manager.HostMemoryUsage(), a.manager.HostMemoryUsage());
}

TEST(WriteBackChecksumTest, FlushLeavesNoChecksumBehind) {
  // A write-around (policy reject, out of space or pass-through) drops the
  // block's checksum with its dirty entry, so once FlushAll empties the
  // table the checked manager holds exactly what the plain one does.
  WriteBackManager::Options plain;
  WbRig a(plain);
  WriteBackManager::Options checked;
  checked.verify_checksums = true;
  WbRig b(checked);
  Rng rng(5);
  for (uint64_t i = 0; i < 20'000; ++i) {
    const Lbn lbn = rng.Below(4096);
    ASSERT_EQ(a.manager.Write(lbn, i), Status::kOk);
    ASSERT_EQ(b.manager.Write(lbn, i), Status::kOk);
  }
  EXPECT_GT(b.manager.stats().evicts, 0u);  // the out-of-space write-around ran
  ASSERT_EQ(a.manager.FlushAll(), Status::kOk);
  ASSERT_EQ(b.manager.FlushAll(), Status::kOk);
  EXPECT_EQ(b.manager.HostMemoryUsage(), a.manager.HostMemoryUsage());
}

TEST(ExplicitEvictionTest, WriteBackEvictsInsteadOfCleaning) {
  WriteBackManager::Options opts;
  opts.explicit_eviction = true;
  opts.dirty_threshold = 0.05;
  WbRig rig(opts);
  for (Lbn lbn = 0; lbn < 400; ++lbn) {
    ASSERT_EQ(rig.manager.Write(lbn * 3, lbn), Status::kOk);
  }
  EXPECT_GT(rig.manager.stats().evicts, 0u);
  EXPECT_EQ(rig.manager.stats().cleans, 0u);
  // Written-back blocks are gone from the cache (read-after-evict), but the
  // data is on disk, so manager reads still return the newest value.
  uint64_t token = 0;
  ASSERT_EQ(rig.manager.Read(0, &token), Status::kOk);
  EXPECT_EQ(token, 0u);
}

TEST(ExplicitEvictionTest, DataNeverLostOrStale) {
  WriteBackManager::Options opts;
  opts.explicit_eviction = true;
  opts.dirty_threshold = 0.10;
  WbRig rig(opts);
  Rng rng(9);
  std::unordered_map<Lbn, uint64_t> oracle;
  for (uint64_t i = 0; i < 15'000; ++i) {
    const Lbn lbn = rng.Below(1500);
    if (rng.Chance(0.6)) {
      ASSERT_EQ(rig.manager.Write(lbn, i), Status::kOk);
      oracle[lbn] = i;
    } else {
      uint64_t token = 0;
      ASSERT_EQ(rig.manager.Read(lbn, &token), Status::kOk);
      const auto it = oracle.find(lbn);
      const uint64_t expected =
          it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
      ASSERT_EQ(token, expected) << "lbn " << lbn << " op " << i;
    }
  }
}

}  // namespace
}  // namespace flashtier
