// Tests for the paper's extension features: the extended exists query
// (Section 4.2.1), background garbage collection and wear-leveling
// relocation (Sections 3.3/5).

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace flashtier
