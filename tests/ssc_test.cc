// Tests for the Solid-State Cache: the six-operation interface, the
// consistency guarantees G1-G3 under crash injection, silent eviction
// policies, and recovery.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "src/ssc/ssc_device.h"
#include "src/ssd/ssd_ftl.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

SscConfig SmallConfig(EvictionPolicy policy = EvictionPolicy::kSeUtil,
                      ConsistencyMode mode = ConsistencyMode::kFull) {
  SscConfig c;
  c.capacity_pages = 2048;  // 32 erase blocks
  c.policy = policy;
  c.mode = mode;
  c.geometry.planes = 4;
  c.group_commit_ops = 64;
  return c;
}

TEST(SscInterfaceTest, ReadAfterWriteDirty) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(1'000'000'000'000ull, 42), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(1'000'000'000'000ull, &token), Status::kOk);
  EXPECT_EQ(token, 42u);
  EXPECT_EQ(ssc.cached_pages(), 1u);
  EXPECT_EQ(ssc.dirty_pages(), 1u);
}

TEST(SscInterfaceTest, ReadOfAbsentBlockReturnsNotPresent) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  uint64_t token = 0;
  EXPECT_EQ(ssc.Read(5, &token), Status::kNotPresent);
  EXPECT_EQ(ssc.ftl_stats().host_read_misses, 1u);
}

TEST(SscInterfaceTest, ReadAfterEvictReturnsNotPresent) {
  // Guarantee G3.
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(7, 1), Status::kOk);
  ASSERT_EQ(ssc.Evict(7), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(ssc.Read(7, &token), Status::kNotPresent);
  EXPECT_EQ(ssc.cached_pages(), 0u);
  EXPECT_EQ(ssc.dirty_pages(), 0u);
  // Evicting an absent block is harmless.
  EXPECT_EQ(ssc.Evict(7), Status::kOk);
}

TEST(SscInterfaceTest, OverwriteReturnsNewest) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteClean(9, 1), Status::kOk);
  ASSERT_EQ(ssc.WriteDirty(9, 2), Status::kOk);
  ASSERT_EQ(ssc.WriteClean(9, 3), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(9, &token), Status::kOk);
  EXPECT_EQ(token, 3u);
  EXPECT_EQ(ssc.cached_pages(), 1u);
  EXPECT_EQ(ssc.dirty_pages(), 0u);  // newest version is clean
}

TEST(SscInterfaceTest, CleanMarksBlockEvictableWithoutTouchingData) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(11, 5), Status::kOk);
  EXPECT_EQ(ssc.dirty_pages(), 1u);
  ASSERT_EQ(ssc.Clean(11), Status::kOk);
  EXPECT_EQ(ssc.dirty_pages(), 0u);
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(11, &token), Status::kOk);  // still cached and readable
  EXPECT_EQ(token, 5u);
  EXPECT_EQ(ssc.Clean(999), Status::kNotPresent);
}

TEST(SscInterfaceTest, ExistsReportsOnlyPresentAndDirty) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  ASSERT_EQ(ssc.WriteDirty(100, 1), Status::kOk);
  ASSERT_EQ(ssc.WriteClean(101, 2), Status::kOk);
  ASSERT_EQ(ssc.WriteDirty(102, 3), Status::kOk);
  ASSERT_EQ(ssc.Clean(102), Status::kOk);
  ASSERT_EQ(ssc.WriteDirty(103, 4), Status::kOk);
  ASSERT_EQ(ssc.Evict(103), Status::kOk);
  Bitmap dirty;
  ssc.Exists(100, 8, &dirty);
  EXPECT_TRUE(dirty.Test(0));   // dirty
  EXPECT_FALSE(dirty.Test(1));  // clean
  EXPECT_FALSE(dirty.Test(2));  // cleaned
  EXPECT_FALSE(dirty.Test(3));  // evicted
  EXPECT_FALSE(dirty.Test(4));  // never written
}

TEST(SscInterfaceTest, UnifiedAddressSpaceAcceptsHugeSparseLbns) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Disk addresses scattered over ~1 PB: the unified address space must
  // accept them directly (no dense device address space to fit into).
  for (uint64_t i = 0; i < 24; ++i) {
    ASSERT_EQ(ssc.WriteClean(i * (1ull << 38) + i, i), Status::kOk);
  }
  for (uint64_t i = 0; i < 24; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(i * (1ull << 38) + i, &token), Status::kOk);
    EXPECT_EQ(token, i);
  }
}

TEST(SscInterfaceTest, ExtremelySparseCleanDataDegradesToEvictionNotFailure) {
  // Each page in its own 256 KB logical block: hybrid block mapping caches at
  // most one erase block's worth of metadata per page, so a tiny cache can
  // hold only a few such pages — the SSC must keep absorbing writes by
  // silently evicting, never erroring, and never serving stale data.
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_EQ(ssc.WriteClean(i * (1ull << 38) + i, i), Status::kOk);
  }
  uint64_t present = 0;
  for (uint64_t i = 0; i < 512; ++i) {
    uint64_t token = 0;
    const Status s = ssc.Read(i * (1ull << 38) + i, &token);
    if (IsOk(s)) {
      ++present;
      ASSERT_EQ(token, i);
    } else {
      ASSERT_EQ(s, Status::kNotPresent);
    }
  }
  EXPECT_GT(present, 0u);
  EXPECT_GT(ssc.ftl_stats().silent_evictions, 0u);
}

TEST(SscEvictionTest, CleanDataIsSilentlyEvictedUnderPressure) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Write far more clean data than capacity; the SSC must keep absorbing
  // writes by silently dropping clean blocks, never failing.
  const uint64_t n = 4 * SmallConfig().capacity_pages;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ssc.WriteClean(i, i), Status::kOk);
  }
  EXPECT_GT(ssc.ftl_stats().silent_evictions, 0u);
  EXPECT_GT(ssc.ftl_stats().silently_evicted_pages, 0u);
  EXPECT_LE(ssc.cached_pages(), SmallConfig().capacity_pages + 512);
  // Evicted blocks read as not-present, never stale; survivors read newest.
  uint64_t present = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t token = 0;
    const Status s = ssc.Read(i, &token);
    if (IsOk(s)) {
      ++present;
      ASSERT_EQ(token, i);
    } else {
      ASSERT_EQ(s, Status::kNotPresent);
    }
  }
  EXPECT_GT(present, 0u);
}

TEST(SscEvictionTest, AllDirtyCacheReportsNoSpace) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  // Dirty data may never be silently evicted; the device must refuse writes
  // rather than drop it.
  uint64_t written = 0;
  Status s = Status::kOk;
  for (uint64_t i = 0; i < 4 * SmallConfig().capacity_pages; ++i) {
    s = ssc.WriteDirty(i, i);
    if (!IsOk(s)) {
      break;
    }
    ++written;
  }
  EXPECT_EQ(s, Status::kNoSpace);
  EXPECT_GT(written, SmallConfig().capacity_pages / 2);
  // Every acknowledged write is still there.
  for (uint64_t i = 0; i < written; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(i, &token), Status::kOk) << i;
    ASSERT_EQ(token, i);
  }
  EXPECT_EQ(ssc.ftl_stats().silent_evictions, 0u);
}

TEST(SscEvictionTest, CleaningUnblocksAFullDirtyCache) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  uint64_t i = 0;
  while (IsOk(ssc.WriteDirty(i, i))) {
    ++i;
  }
  for (uint64_t j = 0; j < i; ++j) {
    ASSERT_EQ(ssc.Clean(j), Status::kOk);
  }
  // Now there are eviction candidates again.
  EXPECT_EQ(ssc.WriteDirty(i, i), Status::kOk);
}

TEST(SscEvictionTest, SeMergeGrowsLogBeyondSeUtilReserve) {
  SimClock clock_a;
  SscDevice util(SmallConfig(EvictionPolicy::kSeUtil), &clock_a);
  SimClock clock_b;
  SscDevice merge(SmallConfig(EvictionPolicy::kSeMerge), &clock_b);
  Rng rng(3);
  for (uint64_t i = 0; i < 20'000; ++i) {
    const Lbn lbn = rng.Below(1536);
    ASSERT_EQ(util.WriteClean(lbn, i), Status::kOk);
    ASSERT_EQ(merge.WriteClean(lbn, i), Status::kOk);
  }
  // SE-Util is capped at the fixed 7% reserve; SE-Merge may float to 20%.
  const uint64_t cap_blocks = SmallConfig().capacity_pages / 64;
  EXPECT_LE(util.current_log_blocks(), std::max<uint64_t>(2, cap_blocks * 7 / 100) + 1);
  EXPECT_GT(merge.current_log_blocks(), util.current_log_blocks());
}

TEST(SscEvictionTest, SscCopiesLessThanSsdOnCapacityChurn) {
  // The Figure 6 mechanism in miniature: a cache under insert pressure (the
  // working set is 2x the cache) makes space by silent eviction on the SSC
  // but by copy-based garbage collection on the SSD. Run the same
  // cache-shaped access stream against both and compare reclamation costs.
  SimClock ssc_clock;
  SscDevice ssc(SmallConfig(), &ssc_clock);
  SimClock ssd_clock;
  SsdFtl::Options ssd_opts;
  ssd_opts.geometry.planes = 4;
  SsdFtl ssd(SmallConfig().capacity_pages, &ssd_clock, ssd_opts);

  Rng rng(9);
  // SSD side: the native manager recycles SSD addresses, which we model as
  // overwrites of a dense address space; SSC side: inserts at disk addresses
  // with eviction making space.
  for (uint64_t i = 0; i < 30'000; ++i) {
    const uint64_t addr = rng.Below(4096);
    ASSERT_EQ(ssc.WriteClean(addr, i), Status::kOk);
    ASSERT_EQ(ssd.Write(addr % SmallConfig().capacity_pages, i), Status::kOk);
  }
  EXPECT_GT(ssc.ftl_stats().silent_evictions, 0u);
  // The SSC reclaims some blocks without copying; the SSD must copy for all.
  EXPECT_LT(ssc.flash_stats().gc_copies, ssd.flash_stats().gc_copies);
  // And the freed-without-copying volume is substantial.
  EXPECT_GT(ssc.ftl_stats().silently_evicted_pages, 1000u);
}

// ---- Persistence and crash recovery ----

TEST(SscCrashTest, DirtyDataSurvivesCrash) {
  // Guarantee G1: a read following a (completed) write of dirty data returns
  // that data, across a crash.
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i * 3, i + 7), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  for (uint64_t i = 0; i < 500; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(i * 3, &token), Status::kOk) << i;
    EXPECT_EQ(token, i + 7);
  }
  EXPECT_EQ(ssc.dirty_pages(), 500u);
}

TEST(SscCrashTest, CleanWritesNeverReadStaleAfterCrash) {
  // Guarantee G2 in FlashTier-D mode: clean writes may be lost (buffered),
  // but a read must return the new data or not-present — never the old data.
  SimClock clock;
  SscDevice ssc(SmallConfig(EvictionPolicy::kSeUtil, ConsistencyMode::kRelaxedClean), &clock);
  // Old versions, made durable by a dirty write + clean.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i, 1000 + i), Status::kOk);
    ASSERT_EQ(ssc.Clean(i), Status::kOk);
  }
  // Overwrites with write-clean (the case that must sync the mapping change).
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(ssc.WriteClean(i, 2000 + i), Status::kOk);
  }
  // Fresh clean inserts that may be lost.
  for (uint64_t i = 500; i < 700; ++i) {
    ASSERT_EQ(ssc.WriteClean(i, 3000 + i), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  for (uint64_t i = 0; i < 200; ++i) {
    uint64_t token = 0;
    const Status s = ssc.Read(i, &token);
    if (IsOk(s)) {
      EXPECT_EQ(token, 2000 + i) << "stale read at " << i;
    } else {
      EXPECT_EQ(s, Status::kNotPresent);
    }
  }
  for (uint64_t i = 500; i < 700; ++i) {
    uint64_t token = 0;
    const Status s = ssc.Read(i, &token);
    if (IsOk(s)) {
      EXPECT_EQ(token, 3000 + i);
    }
  }
}

TEST(SscCrashTest, EvictionsSurviveCrash) {
  // Guarantee G3 across a crash: evict is durable on return.
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i, i), Status::kOk);
  }
  for (uint64_t i = 0; i < 100; i += 2) {
    ASSERT_EQ(ssc.Evict(i), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  for (uint64_t i = 0; i < 100; ++i) {
    uint64_t token = 0;
    const Status s = ssc.Read(i, &token);
    if (i % 2 == 0) {
      EXPECT_EQ(s, Status::kNotPresent) << i;
    } else {
      ASSERT_EQ(s, Status::kOk) << i;
      EXPECT_EQ(token, i);
    }
  }
}

TEST(SscCrashTest, CleanedBlocksMayReturnToDirtyButNothingIsLost) {
  // clean is asynchronous: "after a crash cleaned blocks may return to their
  // dirty state" — the data itself must survive either way.
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i, i + 1), Status::kOk);
    ASSERT_EQ(ssc.Clean(i), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  for (uint64_t i = 0; i < 50; ++i) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(i, &token), Status::kOk);
    EXPECT_EQ(token, i + 1);
  }
}

TEST(SscCrashTest, NoConsistencyModeLosesEverything) {
  SimClock clock;
  SscDevice ssc(SmallConfig(EvictionPolicy::kSeUtil, ConsistencyMode::kNone), &clock);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(ssc.WriteClean(i, i), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  EXPECT_EQ(ssc.cached_pages(), 0u);
  uint64_t token = 0;
  EXPECT_EQ(ssc.Read(5, &token), Status::kNotPresent);
  // And the device remains usable.
  ASSERT_EQ(ssc.WriteClean(5, 50), Status::kOk);
  ASSERT_EQ(ssc.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 50u);
}

TEST(SscCrashTest, RecoveryUsesCheckpointPlusLogReplay) {
  SimClock clock;
  SscConfig config = SmallConfig();
  config.checkpoint_interval_writes = 1000;
  SscDevice ssc(config, &clock);
  for (uint64_t i = 0; i < 2500; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i * 3 % 1800, i), Status::kOk);
  }
  EXPECT_GT(ssc.persist_stats().checkpoints, 0u);
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  EXPECT_GT(ssc.persist_stats().recovered_checkpoint_entries, 0u);
  EXPECT_GT(ssc.last_recovery_us(), 0u);
  std::unordered_map<Lbn, uint64_t> newest;
  for (uint64_t i = 0; i < 2500; ++i) {
    newest[i * 3 % 1800] = i;
  }
  for (const auto& [lbn, value] : newest) {
    uint64_t token = 0;
    ASSERT_EQ(ssc.Read(lbn, &token), Status::kOk) << lbn;
    ASSERT_EQ(token, value) << lbn;
  }
}

TEST(SscCrashTest, DeviceKeepsOperatingAfterRecovery) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(ssc.WriteDirty(i, i), Status::kOk);
  }
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  // Keep writing well past capacity; GC and merges must work on recovered
  // metadata.
  for (uint64_t i = 0; i < 4000; ++i) {
    // Post-recovery only a subset of LBNs is resident; a miss is fine.
    (void)ssc.Clean(i);
    ASSERT_EQ(ssc.WriteDirty(i + 10'000'000, i), Status::kOk);
    ASSERT_EQ(ssc.Clean(i + 10'000'000), Status::kOk);
  }
  EXPECT_GT(ssc.ftl_stats().silent_evictions, 0u);
}

// Property test: random operation streams with a crash at a random point.
// After recovery, every block must read as its newest completed value or
// not-present; acknowledged dirty data must never be lost or stale.
class SscCrashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SscCrashPropertyTest, GuaranteesHoldAtArbitraryCrashPoints) {
  SimClock clock;
  SscConfig config = SmallConfig();
  config.group_commit_ops = 32;
  config.checkpoint_interval_writes = 700;
  SscDevice ssc(config, &clock);
  Rng rng(GetParam());
  std::unordered_map<Lbn, uint64_t> newest;      // newest completed write
  std::unordered_set<Lbn> dirty;                 // blocks whose newest is dirty

  const uint64_t crash_at = 2000 + rng.Below(4000);
  for (uint64_t i = 0; i < crash_at; ++i) {
    const Lbn lbn = rng.Below(3000);
    const uint64_t roll = rng.Below(100);
    if (roll < 40) {
      // A full-of-dirty cache may refuse (kNoSpace); the old value stands.
      const Status s = ssc.WriteDirty(lbn, i);
      if (IsOk(s)) {
        newest[lbn] = i;
        dirty.insert(lbn);
      } else {
        ASSERT_EQ(s, Status::kNoSpace);
      }
    } else if (roll < 75) {
      const Status s = ssc.WriteClean(lbn, i);
      if (IsOk(s)) {
        newest[lbn] = i;
        dirty.erase(lbn);
      } else {
        ASSERT_EQ(s, Status::kNoSpace);
      }
    } else if (roll < 85) {
      // Cleaning an absent block is a legal no-op in the mix.
      (void)ssc.Clean(lbn);
      dirty.erase(lbn);
    } else if (roll < 90) {
      ASSERT_EQ(ssc.Evict(lbn), Status::kOk);
      newest.erase(lbn);
      dirty.erase(lbn);
    } else {
      uint64_t token = 0;
      (void)ssc.Read(lbn, &token);  // miss or hit; the oracle checks decide
    }
  }

  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);

  for (const auto& [lbn, value] : newest) {
    uint64_t token = 0;
    const Status s = ssc.Read(lbn, &token);
    if (dirty.count(lbn)) {
      // G1: dirty data must be present and newest. (A clean command may have
      // been lost, reverting the block to dirty — but never the data.)
      ASSERT_EQ(s, Status::kOk) << "lost dirty block " << lbn;
      ASSERT_EQ(token, value) << "stale dirty block " << lbn;
    } else if (IsOk(s)) {
      // G2: clean data is either newest or gone.
      ASSERT_EQ(token, value) << "stale clean block " << lbn;
    } else {
      ASSERT_EQ(s, Status::kNotPresent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CrashSeeds, SscCrashPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---- Memory accounting ----

TEST(SscMemoryTest, SparseMapMemoryTracksCachedDataNotAddressSpace) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  const size_t empty = ssc.DeviceMemoryUsage();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(ssc.WriteClean(i * (1ull << 40), i), Status::kOk);  // petabyte-scale addresses
  }
  const size_t used = ssc.DeviceMemoryUsage();
  EXPECT_GT(used, empty);
  EXPECT_LT(used - empty, 1000u * 200u);  // grows with entries, not with range
}

TEST(SscEvictionTest, RetirementExhaustionFailsWritesCleanly) {
  SimClock clock;
  SscConfig config = SmallConfig(EvictionPolicy::kSeUtil, ConsistencyMode::kNone);
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.erase_fail_prob = 1.0;  // every erase retires its block
  SscDevice ssc(config, &clock);
  // Stream distinct clean blocks until retirement has eaten the allocator.
  Status last = Status::kOk;
  Lbn written = 0;
  for (Lbn lbn = 0; lbn < 100000; ++lbn) {
    last = ssc.WriteClean(lbn, lbn + 1);
    if (last != Status::kOk) {
      break;
    }
    ++written;
  }
  // Exhaustion surfaces as an honest error, never a crash or silent loss.
  EXPECT_TRUE(last == Status::kNoSpace || last == Status::kIoError);
  EXPECT_GT(ssc.ftl_stats().retired_blocks, 0u);
  EXPECT_LT(ssc.usable_capacity_pages(), ssc.capacity_pages());
  EXPECT_GT(ssc.retired_block_count(), 0u);
  // Whatever the worn-out cache still serves must be the acknowledged data;
  // clean blocks may have been silently evicted, never corrupted.
  for (Lbn lbn = 0; lbn < written; ++lbn) {
    uint64_t token = 0;
    const Status s = ssc.Read(lbn, &token);
    if (s == Status::kOk) {
      EXPECT_EQ(token, lbn + 1);
    } else {
      ASSERT_EQ(s, Status::kNotPresent);
    }
  }
}

TEST(SscMemoryTest, SeMergeReservesMoreThanSeUtil) {
  SimClock clock_a;
  SscDevice util(SmallConfig(EvictionPolicy::kSeUtil), &clock_a);
  SimClock clock_b;
  SscDevice merge(SmallConfig(EvictionPolicy::kSeMerge), &clock_b);
  EXPECT_GT(merge.ReservedDeviceMemoryUsage(), util.ReservedDeviceMemoryUsage());
}

}  // namespace
}  // namespace flashtier
