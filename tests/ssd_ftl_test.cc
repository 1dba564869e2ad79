// Tests for the baseline SSD's FAST-style hybrid FTL: translation, merges,
// garbage collection, wear, and memory accounting.

#include <gtest/gtest.h>

#include <unordered_map>

#include "src/ftl/block_allocator.h"
#include "src/ssd/ssd_ftl.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

// A small device: 64 logical erase blocks (4096 pages), few-plane layout so
// GC and merges trigger quickly.
SsdFtl::Options SmallOptions() {
  SsdFtl::Options o;
  o.geometry.planes = 4;
  return o;
}
constexpr uint64_t kSmallPages = 4096;

TEST(BlockAllocatorTest, AllocatesWearMinimumAndBalancesPlanes) {
  FlashGeometry g;
  g.planes = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, &clock);
  // Pre-wear block 0 heavily.
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  ASSERT_EQ(device.EraseBlock(0), Status::kOk);
  BlockAllocator alloc(device, /*reserved_blocks=*/0);
  EXPECT_EQ(alloc.FreeCount(), 8u);
  // First allocation must avoid the worn block.
  const PhysBlock b = alloc.Allocate();
  EXPECT_NE(b, 0u);
  // Exhaust everything.
  uint32_t n = 1;
  while (alloc.Allocate() != kInvalidBlock) {
    ++n;
  }
  EXPECT_EQ(n, 8u);
  EXPECT_EQ(alloc.FreeCount(), 0u);
  alloc.Free(3);
  EXPECT_EQ(alloc.FreeCount(), 1u);
  EXPECT_EQ(alloc.Allocate(), 3u);
}

TEST(BlockAllocatorTest, ReservedBlocksExcluded) {
  FlashGeometry g;
  g.planes = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, &clock);
  BlockAllocator alloc(device, /*reserved_blocks=*/3);
  EXPECT_EQ(alloc.FreeCount(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_GE(alloc.Allocate(), 3u);
  }
}

TEST(SsdFtlTest, WriteReadRoundTrip) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  ASSERT_EQ(ssd.Write(100, 0xaaa), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(ssd.Read(100, &token), Status::kOk);
  EXPECT_EQ(token, 0xaaau);
}

TEST(SsdFtlTest, UnwrittenPageReadsNotPresent) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  uint64_t token = 0;
  EXPECT_EQ(ssd.Read(55, &token), Status::kNotPresent);
  EXPECT_EQ(ssd.Read(kSmallPages, &token), Status::kInvalidArgument);
}

TEST(SsdFtlTest, OverwriteReturnsNewestVersion) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  for (uint64_t v = 0; v < 50; ++v) {
    ASSERT_EQ(ssd.Write(7, v), Status::kOk);
  }
  uint64_t token = 0;
  ASSERT_EQ(ssd.Read(7, &token), Status::kOk);
  EXPECT_EQ(token, 49u);
}

TEST(SsdFtlTest, TrimRemovesBlock) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  ASSERT_EQ(ssd.Write(9, 1), Status::kOk);
  ASSERT_EQ(ssd.Trim(9), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(ssd.Read(9, &token), Status::kNotPresent);
}

TEST(SsdFtlTest, SequentialFillUsesSwitchMerges) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Sequential write of the whole device: log blocks fill with exactly one
  // logical block each, in order — the cheapest possible merges.
  for (uint64_t lpn = 0; lpn < kSmallPages; ++lpn) {
    ASSERT_EQ(ssd.Write(lpn, lpn), Status::kOk);
  }
  EXPECT_GT(ssd.ftl_stats().switch_merges, 0u);
  EXPECT_EQ(ssd.ftl_stats().full_merges, 0u);
  // Everything still readable.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const uint64_t lpn = rng.Below(kSmallPages);
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lpn, &token), Status::kOk);
    EXPECT_EQ(token, lpn);
  }
}

TEST(SsdFtlTest, RandomOverwritesForceFullMergesAndWriteAmplification) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Fill sequentially, then overwrite randomly: full merges must copy data.
  for (uint64_t lpn = 0; lpn < kSmallPages; ++lpn) {
    ASSERT_EQ(ssd.Write(lpn, lpn), Status::kOk);
  }
  Rng rng(11);
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (uint64_t i = 0; i < 3 * kSmallPages; ++i) {
    const uint64_t lpn = rng.Below(kSmallPages);
    const uint64_t token = i | (1ull << 40);
    ASSERT_EQ(ssd.Write(lpn, token), Status::kOk);
    oracle[lpn] = token;
  }
  EXPECT_GT(ssd.ftl_stats().full_merges, 0u);
  EXPECT_GT(ssd.flash_stats().gc_copies, 0u);
  EXPECT_GT(ssd.ExtraWritesPerBlock(), 0.0);
  EXPECT_GT(ssd.flash_stats().erases, 0u);
  for (const auto& [lpn, token] : oracle) {
    uint64_t got = 0;
    ASSERT_EQ(ssd.Read(lpn, &got), Status::kOk);
    ASSERT_EQ(got, token) << "lpn " << lpn;
  }
}

TEST(SsdFtlTest, SteadyStateRandomWorkloadStaysCorrect) {
  // Property-style: hammer a small SSD with random ops and check against a
  // reference map continuously.
  SimClock clock;
  SsdFtl::Options opts = SmallOptions();
  SsdFtl ssd(1024, &clock, opts);
  Rng rng(23);
  std::unordered_map<uint64_t, uint64_t> oracle;
  for (uint64_t i = 0; i < 30'000; ++i) {
    const uint64_t lpn = rng.Below(1024);
    const uint64_t roll = rng.Below(10);
    if (roll < 6) {
      ASSERT_EQ(ssd.Write(lpn, i), Status::kOk);
      oracle[lpn] = i;
    } else if (roll < 7) {
      ASSERT_EQ(ssd.Trim(lpn), Status::kOk);
      oracle.erase(lpn);
    } else {
      uint64_t token = 0;
      const Status s = ssd.Read(lpn, &token);
      const auto it = oracle.find(lpn);
      if (it == oracle.end()) {
        ASSERT_EQ(s, Status::kNotPresent) << "i=" << i << " lpn=" << lpn;
      } else {
        ASSERT_EQ(s, Status::kOk) << "i=" << i << " lpn=" << lpn;
        ASSERT_EQ(token, it->second) << "i=" << i << " lpn=" << lpn;
      }
    }
  }
}

TEST(SsdFtlTest, WearStaysBalanced) {
  SimClock clock;
  SsdFtl ssd(1024, &clock, SmallOptions());
  Rng rng(31);
  for (uint64_t i = 0; i < 60'000; ++i) {
    ASSERT_EQ(ssd.Write(rng.Below(1024), i), Status::kOk);
  }
  const uint64_t erases = ssd.flash_stats().erases;
  ASSERT_GT(erases, 50u);
  // Wear-aware allocation keeps the spread well below the mean erase count.
  const double mean =
      static_cast<double>(erases) / ssd.device().geometry().TotalBlocks();
  EXPECT_LT(ssd.device().MaxWearDiff(), mean);
}

TEST(SsdFtlTest, DenseMappingMemoryIsProportionalToCapacity) {
  SimClock clock;
  SsdFtl small(4096, &clock, SmallOptions());
  SsdFtl big(8 * 4096, &clock, SmallOptions());
  // Even empty, the dense table costs memory proportional to the address
  // space — the paper's core criticism of SSD caches.
  EXPECT_GT(big.DeviceMemoryUsage(), small.DeviceMemoryUsage());
  EXPECT_GT(small.DeviceMemoryUsage(), 0u);
}

TEST(SsdFtlTest, RecoveryScanScalesWithMapSize) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  const uint64_t us = ssd.RecoveryOobScanUs();
  EXPECT_GT(us, 0u);
  SsdFtl big(8 * kSmallPages, &clock, SmallOptions());
  EXPECT_GT(big.RecoveryOobScanUs(), us);
}

TEST(BlockAllocatorTest, RetirementIsIdempotentAndOrderStable) {
  FlashGeometry g;
  g.planes = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  SimClock clock;
  FlashDevice device(g, &clock);
  BlockAllocator alloc(device, /*reserved_blocks=*/0);
  // Pull every block out of the pool (retirement happens to blocks the FTL
  // holds — an erase just failed on them), retire two, free the rest.
  std::vector<PhysBlock> held;
  for (PhysBlock b = alloc.Allocate(); b != kInvalidBlock; b = alloc.Allocate()) {
    held.push_back(b);
  }
  alloc.Retire(5);
  alloc.Retire(2);
  alloc.Retire(5);  // double retirement is ignored
  for (PhysBlock b : held) {
    alloc.Free(b);  // retired blocks must bounce off, even from this path
  }
  EXPECT_EQ(alloc.FreeCount(), 6u);
  EXPECT_EQ(alloc.RetiredCount(), 2u);
  EXPECT_TRUE(alloc.IsRetired(5));
  EXPECT_TRUE(alloc.IsRetired(2));
  EXPECT_FALSE(alloc.IsRetired(3));
  // Iteration preserves retirement order — deterministic consumers (the
  // invariant checker's partition audit) rely on it.
  std::vector<PhysBlock> order;
  alloc.ForEachRetired([&order](PhysBlock b) { order.push_back(b); });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5u);
  EXPECT_EQ(order[1], 2u);
  // Retired blocks never come back out of the free pool.
  for (PhysBlock b = alloc.Allocate(); b != kInvalidBlock; b = alloc.Allocate()) {
    EXPECT_NE(b, 5u);
    EXPECT_NE(b, 2u);
  }
}

TEST(SsdFtlTest, WearLevelOnceMigratesColdBlocksOntoWornOnes) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  // Park cold data, then churn a hot window to skew per-block wear.
  for (Lbn lbn = 0; lbn < 64; ++lbn) {
    ASSERT_EQ(ssd.Write(lbn, 5000 + lbn), Status::kOk);
  }
  for (int round = 0; round < 30; ++round) {
    for (Lbn lbn = 2000; lbn < 2100; ++lbn) {
      ASSERT_EQ(ssd.Write(lbn, round * 10000 + lbn), Status::kOk);
    }
  }
  ASSERT_GT(ssd.device().MaxWearDiff(), 0u);
  EXPECT_TRUE(ssd.WearLevelOnce(/*max_wear_diff=*/0));
  EXPECT_GE(ssd.ftl_stats().wl_migrations, 1u);
  // Migration relocated data without losing any of it.
  for (Lbn lbn = 0; lbn < 64; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, 5000 + lbn);
  }
  for (Lbn lbn = 2000; lbn < 2100; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(ssd.Read(lbn, &token), Status::kOk);
    EXPECT_EQ(token, 29 * 10000 + lbn);
  }
}

TEST(SsdFtlTest, RetirementExhaustionFailsWritesCleanly) {
  SimClock clock;
  SsdFtl::Options o = SmallOptions();
  o.fault_plan.enabled = true;
  o.fault_plan.seed = 3;
  o.fault_plan.erase_fail_prob = 1.0;  // every erase retires its block
  SsdFtl ssd(kSmallPages, &clock, o);
  Status last = Status::kOk;
  Lbn written = 0;
  for (Lbn lbn = 0; lbn < 200000; ++lbn) {
    last = ssd.Write(lbn % kSmallPages, lbn + 1);
    if (last != Status::kOk) {
      break;
    }
    ++written;
  }
  // The allocator runs dry through retirement; the SSD reports it honestly.
  EXPECT_TRUE(last == Status::kNoSpace || last == Status::kIoError);
  EXPECT_GT(ssd.ftl_stats().retired_blocks, 0u);
  // Surviving translations still read back their last acknowledged token
  // (the SSD never silently evicts; a lost page must be an error, not a
  // stale success).
  uint64_t spot_checked = 0;
  for (Lbn page = 0; page < kSmallPages && page < written; ++page) {
    // The last acknowledged write to `page` was the largest lbn < written
    // congruent to it.
    const Lbn last_write = page + (written - page - 1) / kSmallPages * kSmallPages;
    uint64_t token = 0;
    const Status s = ssd.Read(page, &token);
    if (s == Status::kOk) {
      EXPECT_EQ(token, last_write + 1);
      ++spot_checked;
    }
  }
  EXPECT_GT(spot_checked, 0u);
}

TEST(SsdFtlTest, TimingChargedToSharedClock) {
  SimClock clock;
  SsdFtl ssd(kSmallPages, &clock, SmallOptions());
  const uint64_t t0 = clock.now_us();
  ASSERT_EQ(ssd.Write(1, 1), Status::kOk);
  EXPECT_GT(clock.now_us(), t0);
}

}  // namespace
}  // namespace flashtier
