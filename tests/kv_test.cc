// Tests for the KV layer (DESIGN.md §5k): slab packing, eviction,
// compaction, deletes, the admission-policy interaction, and crash recovery
// of the slab directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/check/kv_check.h"
#include "src/kv/kv_cache.h"
#include "src/kv/kv_replay.h"
#include "src/trace/workload.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

KvCacheConfig SmallConfig(bool packing = true) {
  KvCacheConfig c;
  c.ssc.capacity_pages = 2048;  // 32 erase blocks
  c.ssc.geometry.planes = 4;
  c.ssc.group_commit_ops = 64;
  c.packing = packing;
  return c;
}

uint64_t MustGet(KvShard& shard, uint64_t key) {
  uint64_t token = 0;
  EXPECT_EQ(shard.Get(key, &token), Status::kOk) << "key " << key;
  return token;
}

// ---- Packing ----

TEST(KvPackingTest, SetThenGetFromOpenSlab) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(1, 101, 100, /*dirty=*/false), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(cache.Get(1, &token), Status::kOk);
  EXPECT_EQ(token, 101u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.open_slab_hits, 1u);
  EXPECT_EQ(s.slab_fills, 0u);  // nothing sealed yet
}

TEST(KvPackingTest, ManySmallObjectsShareOneSlabPage) {
  KvCache cache(SmallConfig());
  // 30 x (64 B + 24 B header, 8-aligned) = 2640 B: one 4 KB slab holds all.
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_EQ(cache.Set(k, k + 100, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.slab_fills, 1u);
  EXPECT_EQ(s.slab_page_writes, 1u);
  for (uint64_t k = 0; k < 30; ++k) {
    EXPECT_EQ(MustGet(cache.shard(0), k), k + 100);
  }
  // All 30 now served from flash, not the open slab.
  EXPECT_EQ(cache.AggregateStats().open_slab_hits, 0u);
}

TEST(KvPackingTest, NaiveModeWritesOnePagePerObject) {
  KvCache cache(SmallConfig(/*packing=*/false));
  for (uint64_t k = 0; k < 30; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.slab_fills, 30u);
  EXPECT_EQ(s.slab_page_writes, 30u);
}

TEST(KvPackingTest, PackingCutsFlashWritesAtLeastThreefold) {
  // The acceptance-criteria ratio on a kv-zipf workload, in miniature.
  KvWorkloadProfile profile;
  profile.unique_keys = 2'000;
  profile.total_ops = 20'000;
  profile.max_size = 1024;
  KvReplayEngine::Options opts;

  KvCache packed(SmallConfig(/*packing=*/true));
  KvZipfWorkload trace1(profile);
  KvReplayEngine engine1(&packed, opts);
  const KvReplayMetrics packed_m = engine1.Run(trace1);

  KvCache naive(SmallConfig(/*packing=*/false));
  KvZipfWorkload trace2(profile);
  KvReplayEngine engine2(&naive, opts);
  const KvReplayMetrics naive_m = engine2.Run(trace2);

  ASSERT_GT(packed_m.flash_writes_per_set, 0.0);
  EXPECT_GE(naive_m.flash_writes_per_set / packed_m.flash_writes_per_set, 3.0)
      << "naive " << naive_m.flash_writes_per_set << " packed " << packed_m.flash_writes_per_set;
}

TEST(KvPackingTest, OversizedAndUndersizedObjectsRejected) {
  KvCache cache(SmallConfig());
  EXPECT_EQ(cache.Set(1, 1, kKvMinObjectBytes - 1, false), Status::kInvalidArgument);
  EXPECT_EQ(cache.Set(1, 1, kKvMaxObjectBytes + 1, false), Status::kInvalidArgument);
  // A max-size object plus its header exceeds a one-page slab.
  EXPECT_EQ(cache.Set(1, 1, kKvMaxObjectBytes, false), Status::kInvalidArgument);
  KvCacheConfig wide = SmallConfig();
  wide.slab_pages = 2;
  KvCache cache2(wide);
  EXPECT_EQ(cache2.Set(1, 1, kKvMaxObjectBytes, false), Status::kOk);
}

// ---- Overwrites and deletes ----

TEST(KvDeleteTest, DeleteRemovesAndCountsMisses) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(7, 70, 128, false), Status::kOk);
  ASSERT_EQ(cache.Delete(7), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(7, &token), Status::kNotPresent);
  EXPECT_EQ(cache.Delete(7), Status::kNotPresent);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.deletes, 2u);
  EXPECT_EQ(s.delete_misses, 1u);
}

TEST(KvDeleteTest, OverwriteServesNewestVersion) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(7, 70, 128, false), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);  // old version sealed to flash
  ASSERT_EQ(cache.Set(7, 71, 256, false), Status::kOk);
  EXPECT_EQ(MustGet(cache.shard(0), 7), 71u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.overwrites, 1u);
}

TEST(KvDeleteTest, FullyDeadSealedSlabIsReclaimed) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  ASSERT_EQ(cache.shard(0).slabs().size(), 1u);
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(cache.Delete(k), Status::kOk);
  }
  EXPECT_EQ(cache.shard(0).slabs().size(), 0u);
  EXPECT_EQ(cache.AggregateStats().dead_slab_reclaims, 1u);
  EXPECT_EQ(cache.shard(0).ssc().cached_pages(), 0u);
}

TEST(KvDeleteTest, DirtySlabCleanedWhenLastDirtyObjectDies) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(1, 10, 64, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Set(2, 20, 64, /*dirty=*/false), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  EXPECT_EQ(cache.shard(0).ssc().dirty_pages(), 1u);
  ASSERT_EQ(cache.Delete(1), Status::kOk);
  // The slab's last dirty object is gone: pages handed to silent eviction.
  EXPECT_EQ(cache.AggregateStats().slab_cleans, 1u);
  EXPECT_EQ(cache.shard(0).ssc().dirty_pages(), 0u);
  EXPECT_EQ(MustGet(cache.shard(0), 2), 20u);
}

// ---- Compaction ----

TEST(KvCompactionTest, DeadSlotsAreCompactedAway) {
  KvCacheConfig config = SmallConfig();
  config.compact_min_sealed_slabs = 2;
  config.compact_dead_ratio = 0.30;
  KvCache cache(config);
  // Fill several slabs, then kill most objects so dead bytes dominate.
  for (uint64_t k = 0; k < 120; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  for (uint64_t k = 0; k < 120; ++k) {
    if (k % 4 != 0) {
      ASSERT_EQ(cache.Delete(k), Status::kOk);
    }
  }
  // Compaction triggers on the next seal; push more data through.
  for (uint64_t k = 1000; k < 1120; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, false), Status::kOk);
  }
  ASSERT_EQ(cache.Flush(), Status::kOk);
  const KvStats s = cache.AggregateStats();
  EXPECT_GT(s.compactions, 0u);
  EXPECT_GT(s.slots_reclaimed, 0u);
  // Every surviving object still readable after its slab moved.
  for (uint64_t k = 0; k < 120; k += 4) {
    EXPECT_EQ(MustGet(cache.shard(0), k), k);
  }
}

// ---- The compaction index ----

// Reaches every site that updates the compaction index — seals, overwrites
// and deletes of sealed slots, fully dead slabs, capacity evictions, lazy
// drops of silently evicted slabs, compaction moves and victim erases, crash
// and recovery — and audits the index against a directory walk after every
// operation.
class KvCompactionIndexTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KvCompactionIndexTest, MatchesDirectoryWalkAfterEveryOp) {
  KvCacheConfig config = SmallConfig();
  config.ssc.capacity_pages = 256;
  config.slab_pages = GetParam();
  config.compact_dead_ratio = 0.10;  // compact often
  config.compact_min_sealed_slabs = 2;
  KvCache cache(config);
  Rng rng(GetParam());
  // 3,000 keys of ~540 slot bytes are ~1.5x the 256-page device.
  for (uint64_t i = 0; i < 8'000; ++i) {
    const uint64_t key = rng.Below(3'000);
    const uint64_t roll = rng.Below(100);
    Status st = Status::kOk;
    if (i % 1'000 == 999) {
      cache.SimulateCrash();
      st = cache.Recover();
    } else if (roll < 50) {
      // Clean-only first quarter, so whole erase blocks are clean.
      const bool dirty = rng.Chance(0.2) && i >= 2'000;
      st = cache.Set(key, i, static_cast<uint32_t>(64 + 8 * rng.Below(120)), dirty);
    } else if (roll < 80) {
      uint64_t token = 0;
      st = cache.Get(key, &token);
    } else if (roll < 92) {
      st = cache.Delete(key);
    } else if (roll < 94) {
      // Idle-time GC silently evicts clean blocks; Gets then drop the slabs.
      cache.shard(0).ssc().BackgroundCollect(/*budget_us=*/5'000);
    } else {
      st = cache.Flush();
    }
    // A full device of dirty slabs refuses honestly; nothing else may fail.
    ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent || st == Status::kNoSpace)
        << "op " << i << ": " << StatusName(st);
    const CheckReport report = InvariantChecker::CheckKv(cache);
    ASSERT_TRUE(report.ok()) << "after op " << i << ": " << report.ToString();
  }
  const KvStats s = cache.AggregateStats();
  EXPECT_GT(s.overwrites, 0u);
  EXPECT_GT(s.dead_slab_reclaims, 0u);
  EXPECT_GT(s.slab_evictions, 0u);
  EXPECT_GT(s.lazy_slab_drops, 0u);
  EXPECT_GT(s.compactions, 0u);
  EXPECT_GT(s.slots_moved, 0u);
  EXPECT_GT(s.recoveries, 0u);
  EXPECT_GT(s.restaged_dirty_slots, 0u);
}

INSTANTIATE_TEST_SUITE_P(SlabPages, KvCompactionIndexTest, ::testing::Values(1u, 2u, 4u));

// ---- Capacity eviction and lazy drops ----

TEST(KvEvictionTest, CleanSlabsEvictUnderPressureAndGetsMiss) {
  KvCacheConfig config = SmallConfig();
  config.ssc.capacity_pages = 256;  // 4 erase blocks (+ FTL spare) per shard
  KvCache cache(config);
  // 512 B objects pack 7 to a page, so 8000 sets span ~1145 slab pages —
  // well past the device's physical block count; something must give way.
  uint64_t refused = 0;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Set(k, k, 512, false);
    if (st == Status::kNoSpace) {
      ++refused;
      continue;
    }
    ASSERT_EQ(st, Status::kOk);
  }
  // Clean data is always evictable, so the writer never sees kNoSpace.
  EXPECT_EQ(refused, 0u);
  // Evicted keys miss, surviving keys hit — never an error. Reading every
  // key also forces SSC-side silent evictions to surface as lazy drops.
  uint64_t token = 0;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Get(k, &token);
    ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
  }
  // Room was made either by explicit clean-slab eviction (writer saw the
  // device full) or by SSC silent eviction (reader saw the hole).
  const KvStats s = cache.AggregateStats();
  EXPECT_GT(s.slab_evictions + s.lazy_slab_drops, 0u);
  EXPECT_GT(s.misses, 0u);
}

TEST(KvEvictionTest, AllDirtyCacheRefusesSetsHonestly) {
  KvCacheConfig config = SmallConfig();
  config.ssc.capacity_pages = 256;
  KvCache cache(config);
  bool saw_refusal = false;
  for (uint64_t k = 0; k < 8000; ++k) {
    const Status st = cache.Set(k, k, 512, /*dirty=*/true);
    if (st == Status::kNoSpace) {
      saw_refusal = true;
      break;
    }
    ASSERT_EQ(st, Status::kOk);
  }
  EXPECT_TRUE(saw_refusal);
  EXPECT_GT(cache.AggregateStats().sets_refused_full, 0u);
}

// ---- Admission policy interaction ----

TEST(KvPolicyTest, GhostLruAdmitsOnSecondSet) {
  KvCacheConfig config = SmallConfig();
  config.admission.kind = AdmissionKind::kGhostLru;
  KvCache cache(config);
  ASSERT_EQ(cache.Set(5, 50, 128, false), Status::kOk);  // first touch: rejected
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(5, &token), Status::kNotPresent);
  ASSERT_EQ(cache.Set(5, 51, 128, false), Status::kOk);  // second touch: admitted
  EXPECT_EQ(MustGet(cache.shard(0), 5), 51u);
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.rejected_sets, 1u);
  EXPECT_EQ(cache.AggregatePolicyStats().rejects, 1u);
}

TEST(KvPolicyTest, RejectedOverwriteEvictsStaleCopy) {
  KvCacheConfig config = SmallConfig();
  config.admission.kind = AdmissionKind::kWriteRateLimiter;
  config.admission.write_rate_pages_per_sec = 1.0;  // starves quickly
  config.admission.write_burst_pages = 1.0;
  KvCache cache(config);
  ASSERT_EQ(cache.Set(9, 90, 256, false), Status::kOk);  // burst admits this
  bool rejected = false;
  for (int i = 0; i < 50 && !rejected; ++i) {
    ASSERT_EQ(cache.Set(9, 90 + 1 + i, 256, false), Status::kOk);
    rejected = cache.AggregateStats().rejected_sets > 0;
  }
  ASSERT_TRUE(rejected);
  // G2 for objects: after a rejected overwrite the stale version must not be
  // served; the key misses instead.
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(9, &token), Status::kNotPresent);
}

// ---- Crash recovery ----

TEST(KvRecoveryTest, DirtyObjectsSurviveCrash) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_EQ(cache.Set(k, k + 7, 64, /*dirty=*/true), Status::kOk);
  }
  // No flush: some slots sealed, the tail still in the open slab.
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  for (uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(MustGet(cache.shard(cache.ShardOf(k)), k), k + 7);
  }
  const KvStats s = cache.AggregateStats();
  EXPECT_EQ(s.lost_objects, 0u);
  EXPECT_GT(s.restaged_dirty_slots, 0u);  // open-slab tail came back via G1
}

TEST(KvRecoveryTest, CleanObjectsNewOrMissNeverStale) {
  KvCacheConfig config = SmallConfig();
  config.ssc.group_commit_ops = 1000;  // keep clean inserts buffered
  config.ssc.mode = ConsistencyMode::kRelaxedClean;
  KvCache cache(config);
  for (uint64_t k = 0; k < 40; ++k) {
    ASSERT_EQ(cache.Set(k, k + 1, 64, /*dirty=*/false), Status::kOk);
  }
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  for (uint64_t k = 0; k < 40; ++k) {
    uint64_t token = 0;
    const Status st = cache.shard(cache.ShardOf(k)).Get(k, &token);
    if (IsOk(st)) {
      EXPECT_EQ(token, k + 1) << "stale object after recovery";
    } else {
      EXPECT_EQ(st, Status::kNotPresent);
    }
  }
}

TEST(KvRecoveryTest, AcknowledgedDeleteStaysDeleted) {
  KvCache cache(SmallConfig());
  ASSERT_EQ(cache.Set(3, 30, 128, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  ASSERT_EQ(cache.Delete(3), Status::kOk);
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  uint64_t token = 0;
  EXPECT_EQ(cache.Get(3, &token), Status::kNotPresent);
}

TEST(KvRecoveryTest, SlabDirectorySurvivesViaCheckpoint) {
  KvCacheConfig config = SmallConfig();
  config.ssc.checkpoint_interval_writes = 64;  // checkpoint often
  KvCache cache(config);
  Rng rng(7);
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Below(300);
    if (rng.Chance(0.2)) {
      (void)cache.Delete(k);  // miss is fine; exercising churn
    } else {
      ASSERT_EQ(cache.Set(k, i, 64 + static_cast<uint32_t>(rng.Below(400)), rng.Chance(0.5)),
                Status::kOk);
    }
  }
  EXPECT_GT(cache.AggregatePersistStats().checkpoints, 0u);
  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  // Directory consistent: every mapped key readable, no stale slots.
  const KvShard& shard = cache.shard(0);
  uint64_t mapped = 0;
  shard.key_map().ForEach([&](uint64_t key, uint64_t) {
    ++mapped;
    uint64_t token = 0;
    EXPECT_EQ(cache.shard(0).Get(key, &token), Status::kOk);
  });
  EXPECT_GT(mapped, 0u);
  EXPECT_EQ(cache.AggregateStats().lost_objects, 0u);
}

TEST(KvRecoveryTest, RepeatedCrashRecoverIsIdempotent) {
  KvCache cache(SmallConfig());
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_EQ(cache.Set(k, k, 64, /*dirty=*/true), Status::kOk);
  }
  for (int round = 0; round < 3; ++round) {
    cache.SimulateCrash();
    ASSERT_EQ(cache.Recover(), Status::kOk);
  }
  for (uint64_t k = 0; k < 60; ++k) {
    EXPECT_EQ(MustGet(cache.shard(cache.ShardOf(k)), k), k);
  }
}

// ---- Sharding ----

TEST(KvShardingTest, KeysRouteToOwningShardAndStatsAggregate) {
  KvCacheConfig config = SmallConfig();
  config.shards = 4;
  config.ssc.capacity_pages = 4096;
  KvCache cache(config);
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(cache.Set(k, k, 128, false), Status::kOk);
  }
  uint64_t token = 0;
  for (uint64_t k = 0; k < 400; ++k) {
    ASSERT_EQ(cache.Get(k, &token), Status::kOk);
    EXPECT_EQ(token, k);
  }
  uint32_t nonempty = 0;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    if (cache.shard(i).stats().sets > 0) {
      ++nonempty;
    }
  }
  EXPECT_EQ(nonempty, 4u);  // the key hash spreads work across all shards
  EXPECT_EQ(cache.AggregateStats().sets, 400u);
}

// ---- The invariant audit and the flashcheck --kv harness ----

TEST(KvCheckTest, AuditCleanAfterMixedWorkloadAndRecovery) {
  KvCacheConfig config = SmallConfig();
  config.shards = 2;
  KvCache cache(config);
  Rng rng(7);
  for (uint64_t i = 0; i < 600; ++i) {
    const uint64_t key = rng.Below(128);
    switch (rng.Below(4)) {
      case 0:
        ASSERT_EQ(cache.Set(key, 1000 + i, 64 + 8 * (key % 32), rng.Chance(0.4)), Status::kOk);
        break;
      case 1: {
        uint64_t token = 0;
        const Status st = cache.Get(key, &token);
        ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
        break;
      }
      case 2: {
        const Status st = cache.Delete(key);
        ASSERT_TRUE(st == Status::kOk || st == Status::kNotPresent);
        break;
      }
      default:
        ASSERT_EQ(cache.Flush(), Status::kOk);
        break;
    }
  }
  CheckReport live = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(live.ok()) << live.ToString();
  EXPECT_GT(live.checks_run, 0u);

  cache.SimulateCrash();
  ASSERT_EQ(cache.Recover(), Status::kOk);
  CheckReport recovered = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
}

TEST(KvCheckTest, AuditCatchesPageEvictedBehindTheDirectory) {
  KvCache cache(SmallConfig());
  // Seal a slab holding a dirty object, then evict its flash page behind the
  // KV layer's back: a live dirty slot now points at an absent page, which
  // the medium-agreement audit must flag.
  ASSERT_EQ(cache.Set(1, 11, 512, /*dirty=*/true), Status::kOk);
  ASSERT_EQ(cache.Flush(), Status::kOk);
  KvShard& shard = cache.shard(cache.ShardOf(1));
  const uint64_t seq = KvShard::LocSeq(*shard.key_map().Find(1));
  ASSERT_EQ(shard.ssc().Evict(shard.SlabBaseLbn(seq)), Status::kOk);
  const CheckReport report = InvariantChecker::CheckKv(cache);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const InvariantViolation& v : report.violations) {
    found = found || v.invariant == "kv.dirty-page-missing";
  }
  EXPECT_TRUE(found) << report.ToString();
}

TEST(KvCheckTest, ExplorerSmokeRunsClean) {
  KvCheckOptions options;
  options.schedule.ops = 120;
  options.keys = 64;
  options.schedule.max_points = 120;
  options.schedule.explore_recovery_points = false;
  KvCheckHarness harness(options);
  const KvCheckReport report = harness.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.total_commit_points, 0u);
  EXPECT_GT(report.points_explored, 0u);
  EXPECT_FALSE(report.ToJson().empty());
}

TEST(KvCheckTest, SoakSmokeRunsClean) {
  KvCheckOptions options;
  options.schedule.cycles = 5;
  options.schedule.ops = 150;
  options.keys = 64;
  options.device.shards = 2;
  KvCheckHarness harness(options);
  const KvCheckReport report = harness.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.cycles_run, 5u);
  EXPECT_GT(report.ops_executed, 0u);
}

}  // namespace
}  // namespace flashtier
