// DiskGuard end-to-end tests: the cache managers over a failing disk tier.
// Covers cache-as-rescue reads, writeback parking/redrive, the cache-driven
// scrubber, disk-degraded escalation, the native manager's clean-victim
// fallback, honest write-through refusals, and the DiskGuardHarness itself.

#include <gtest/gtest.h>

#include "src/cache/native.h"
#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/check/disk_guard.h"
#include "src/check/invariant_checker.h"

namespace flashtier {
namespace {

struct SscRig {
  SscRig() : disk(&clock) {
    SscConfig config;
    config.capacity_pages = 2048;
    config.geometry.planes = 4;
    ssc = std::make_unique<SscDevice>(config, &clock);
  }

  // Arms a fault plan on the disk (without resetting already-latent sectors).
  void Arm(const DiskFaultPlan& extra) {
    DiskFaultPlan plan = extra;
    plan.enabled = true;
    disk.set_fault_plan(plan);
  }
  // Keeps the plan armed (so sticky latent sectors still fail) but stops
  // every new fault draw.
  void Heal() {
    DiskFaultPlan plan;
    plan.enabled = true;
    disk.set_fault_plan(plan);
  }

  // Makes the next disk read of `lbn` mark its sector latent.
  void MakeLatent(Lbn lbn) {
    DiskFaultPlan plan;
    plan.enabled = true;
    plan.latent_prob = 1.0;
    disk.set_fault_plan(plan);
    EXPECT_EQ(disk.Read(lbn), Status::kIoError);
    Heal();
    EXPECT_TRUE(disk.IsLatent(lbn));
  }

  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SscDevice> ssc;
  AdmitAllPolicy admit_all;
};

// ---- Cache-as-rescue reads ----

TEST(DiskGuardTest, WriteBackServesCachedBlockOverLatentSector) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(5, 77), Status::kOk);  // dirty, cached, disk untouched
  rig.MakeLatent(5);
  uint64_t token = 0;
  EXPECT_EQ(manager.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 77u);
  EXPECT_EQ(manager.stats().rescued_reads, 1u);
}

TEST(DiskGuardTest, WriteThroughServesCachedBlockOverLatentSector) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(9, 42), Status::kOk);  // lands on disk and in cache
  rig.MakeLatent(9);
  uint64_t token = 0;
  EXPECT_EQ(manager.Read(9, &token), Status::kOk);
  EXPECT_EQ(token, 42u);
  EXPECT_EQ(manager.stats().rescued_reads, 1u);
}

TEST(DiskGuardTest, UncachedLatentSectorSurfacesHonestError) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  rig.MakeLatent(33);  // never cached: no rescue source
  uint64_t token = 0;
  const Status s = manager.Read(33, &token);
  EXPECT_TRUE(s == Status::kIoError || s == Status::kTimeout) << StatusName(s);
  EXPECT_EQ(manager.stats().disk_io_errors, 1u);
  EXPECT_EQ(manager.stats().rescued_reads, 0u);
}

// ---- Cache-driven scrubber ----

TEST(DiskGuardTest, ScrubRepairsLatentSectorsFromCachedCopies) {
  SscRig rig;
  WriteBackManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(5, 77), Status::kOk);
  rig.MakeLatent(5);
  rig.MakeLatent(800);  // uncached: the scrubber has no repair source
  const uint64_t dirty_before = manager.dirty_blocks();

  EXPECT_EQ(manager.ScrubDisk(8), 1u);
  EXPECT_EQ(manager.stats().scrub_repairs, 1u);
  EXPECT_FALSE(rig.disk.IsLatent(5));
  EXPECT_TRUE(rig.disk.IsLatent(800));  // heals only when the host rewrites it
  // The repair write is a sector heal, not a writeback: the block stays dirty
  // (a later host write must still reach the disk through cleaning).
  EXPECT_EQ(manager.dirty_blocks(), dirty_before);
  uint64_t token = 0;
  EXPECT_EQ(rig.disk.Read(5, &token), Status::kOk);
  EXPECT_EQ(token, 77u);
}

TEST(DiskGuardTest, WriteThroughScrubUsesCleanCopies) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(9, 42), Status::kOk);
  rig.MakeLatent(9);
  EXPECT_EQ(manager.ScrubDisk(8), 1u);
  EXPECT_FALSE(rig.disk.IsLatent(9));
  uint64_t token = 0;
  EXPECT_EQ(rig.disk.Read(9, &token), Status::kOk);
  EXPECT_EQ(token, 42u);
}

// ---- Honest refusals ----

TEST(DiskGuardTest, WriteThroughRefusesWhenDiskRejectsTheWrite) {
  SscRig rig;
  WriteThroughManager manager(rig.ssc.get(), &rig.disk, rig.admit_all);
  ASSERT_EQ(manager.Write(3, 0xaaa), Status::kOk);
  DiskFaultPlan down;
  down.write_fail_prob = 1.0;
  rig.Arm(down);
  const Status s = manager.Write(3, 0xbbb);
  EXPECT_TRUE(s == Status::kIoError || s == Status::kTimeout) << StatusName(s);
  EXPECT_EQ(manager.stats().disk_io_errors, 1u);
  rig.Heal();
  // The refused write changed nothing: cache and disk still agree on 0xaaa.
  uint64_t token = 0;
  EXPECT_EQ(manager.Read(3, &token), Status::kOk);
  EXPECT_EQ(token, 0xaaau);
  EXPECT_EQ(rig.disk.Read(3, &token), Status::kOk);
  EXPECT_EQ(token, 0xaaau);
}

// ---- Writeback parking, redrive, disk-degraded escalation ----

struct ParkedRig : SscRig {
  ParkedRig() : manager(std::make_unique<WriteBackManager>(ssc.get(), &disk, admit_all)) {}
  std::unique_ptr<WriteBackManager> manager;
};

// Past 409 dirty blocks (20% of the 2048-page cache) the manager cleans; at
// this stride the cache holds 448 dirty blocks before it runs out of space.
constexpr Lbn kPastThreshold = 420;

TEST(DiskGuardTest, FailedWritebacksParkAndTripDiskDegraded) {
  ParkedRig rig;
  DiskFaultPlan down;
  down.write_fail_prob = 1.0;
  rig.Arm(down);
  for (Lbn lbn = 0; lbn < kPastThreshold; ++lbn) {
    ASSERT_EQ(rig.manager->Write(lbn * 7, lbn), Status::kOk);  // cache absorbs
  }
  EXPECT_GT(rig.manager->stats().parked_writebacks, 0u);
  EXPECT_GT(rig.manager->parked_blocks(), 0u);
  EXPECT_TRUE(rig.manager->disk_degraded());
  EXPECT_EQ(rig.manager->stats().lost_dirty, 0u);  // nothing dropped
  EXPECT_EQ(rig.manager->dirty_blocks(), kPastThreshold);

  // The parked queue must pass the structural audit: every parked block is
  // still dirty, and the degraded flag matches the failure count.
  const CheckReport report = InvariantChecker::Check(*rig.manager);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(DiskGuardTest, ParkedRunsRedriveAfterBackoffWhenDiskRecovers) {
  ParkedRig rig;
  DiskFaultPlan down;
  down.write_fail_prob = 1.0;
  rig.Arm(down);
  for (Lbn lbn = 0; lbn < kPastThreshold; ++lbn) {
    ASSERT_EQ(rig.manager->Write(lbn * 7, lbn), Status::kOk);
  }
  ASSERT_GT(rig.manager->parked_blocks(), 0u);

  rig.Heal();
  // One parked run redrives per host write once its backoff expires.
  for (int i = 0; i < 64 && rig.manager->parked_blocks() != 0; ++i) {
    rig.clock.Advance(2'000'000);  // beyond kParkMaxBackoffUs
    ASSERT_EQ(rig.manager->Write(9'000 + i, i), Status::kOk);
  }
  EXPECT_EQ(rig.manager->parked_blocks(), 0u);
  EXPECT_FALSE(rig.manager->disk_degraded());  // success re-engages cleaning
  EXPECT_EQ(rig.manager->stats().lost_dirty, 0u);
}

TEST(DiskGuardTest, FlushAllKeepsRefusedBlocksAndSucceedsOnceDiskReturns) {
  ParkedRig rig;
  DiskFaultPlan down;
  down.write_fail_prob = 1.0;
  rig.Arm(down);
  for (Lbn lbn = 0; lbn < kPastThreshold; ++lbn) {
    ASSERT_EQ(rig.manager->Write(lbn * 7, lbn), Status::kOk);
  }
  const Status s = rig.manager->FlushAll();
  EXPECT_TRUE(s == Status::kIoError || s == Status::kTimeout) << StatusName(s);
  EXPECT_EQ(rig.manager->dirty_blocks(), kPastThreshold);  // refused, never dropped
  EXPECT_EQ(rig.manager->stats().lost_dirty, 0u);

  rig.Heal();
  ASSERT_EQ(rig.manager->FlushAll(), Status::kOk);
  EXPECT_EQ(rig.manager->dirty_blocks(), 0u);
  EXPECT_EQ(rig.manager->parked_blocks(), 0u);
  for (Lbn lbn = 0; lbn < kPastThreshold; ++lbn) {
    uint64_t token = 0;
    ASSERT_EQ(rig.disk.Read(lbn * 7, &token), Status::kOk);
    EXPECT_EQ(token, lbn);
  }
}

// ---- Native manager: clean-victim fallback ----

// Four pages are one set of four ways, so eviction order is fully scripted.
// The disk refuses every write from the start: each dirty write's set
// cleaning defers (its writeback fails), so dirty blocks stay dirty.
struct NativeRig {
  NativeRig() : disk(&clock) {
    ssd = std::make_unique<SsdFtl>(kPages + NativeCacheManager::kMetadataRegionPages, &clock,
                                   SsdFtl::Options{});
    NativeCacheManager::Options opts;
    opts.persist_metadata = false;
    manager = std::make_unique<NativeCacheManager>(ssd.get(), &disk, kPages, admit_all, opts);
    DiskFaultPlan down;
    down.enabled = true;
    down.write_fail_prob = 1.0;
    disk.set_fault_plan(down);
  }
  static constexpr uint32_t kPages = 4;
  SimClock clock;
  DiskModel disk;
  std::unique_ptr<SsdFtl> ssd;
  AdmitAllPolicy admit_all;
  std::unique_ptr<NativeCacheManager> manager;
};

TEST(DiskGuardTest, NativeRefusesHonestlyWhenEverySlotIsDirtyAndDiskIsDown) {
  NativeRig rig;
  for (Lbn lbn = 0; lbn < 4; ++lbn) {
    ASSERT_EQ(rig.manager->Write(lbn, lbn + 100), Status::kOk);
  }
  ASSERT_EQ(rig.manager->dirty_blocks(), 4u);
  // A fifth dirty block needs an eviction; the victim's writeback fails and
  // there is no clean slot to fall back to, so the write is refused — the
  // four dirty blocks stay cached rather than being dropped.
  const Status s = rig.manager->Write(4, 104);
  EXPECT_TRUE(s == Status::kIoError || s == Status::kTimeout) << StatusName(s);
  EXPECT_GT(rig.manager->stats().disk_io_errors, 0u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 4u);
  EXPECT_EQ(rig.manager->stats().lost_dirty, 0u);
}

TEST(DiskGuardTest, NativeFallsBackToCleanVictimWhenWritebackFails) {
  NativeRig rig;
  // LRU to MRU: dirty 0, a clean read fill of 10 (disk reads still work),
  // dirty 1 and 2.
  ASSERT_EQ(rig.manager->Write(0, 100), Status::kOk);
  uint64_t token = 0;
  ASSERT_EQ(rig.manager->Read(10, &token), Status::kOk);
  ASSERT_EQ(rig.manager->Write(1, 101), Status::kOk);
  ASSERT_EQ(rig.manager->Write(2, 102), Status::kOk);
  ASSERT_EQ(rig.manager->dirty_blocks(), 3u);

  // The LRU victim is dirty and its writeback fails; the allocation walks to
  // the clean slot (block 10) and evicts that instead, so the insert succeeds
  // without dropping dirty data.
  EXPECT_EQ(rig.manager->Write(20, 120), Status::kOk);
  EXPECT_GT(rig.manager->stats().disk_io_errors, 0u);
  EXPECT_EQ(rig.manager->dirty_blocks(), 4u);
  EXPECT_EQ(rig.manager->stats().lost_dirty, 0u);
}

// ---- The DiskGuardHarness itself ----

DiskGuardOptions SmallStorm() {
  DiskGuardOptions o;
  o.schedule.cycles = 3;
  o.schedule.ops = 250;
  o.device.shards = 2;
  o.disk_faults.enabled = true;
  o.disk_faults.read_fail_prob = 0.05;
  o.disk_faults.write_fail_prob = 0.05;
  o.disk_faults.latent_prob = 0.01;
  o.disk_faults.slow_io_prob = 0.01;
  return o;
}

TEST(DiskGuardHarnessTest, WriteBackStormRunsClean) {
  DiskGuardHarness harness(SmallStorm());
  const DiskGuardReport report = harness.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.cycles_run, 3u);
  EXPECT_GT(report.ops_executed, 0u);
  EXPECT_GT(report.crashes, 0u);
  EXPECT_GT(report.disk.retries, 0u);  // the fault plan actually bit
}

TEST(DiskGuardHarnessTest, WriteThroughStormRunsClean) {
  DiskGuardOptions o = SmallStorm();
  o.write_through = true;
  DiskGuardHarness harness(o);
  const DiskGuardReport report = harness.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.ops_executed, 0u);
}

TEST(DiskGuardHarnessTest, ReportIsBitIdenticalAcrossRuns) {
  DiskGuardHarness a(SmallStorm());
  DiskGuardHarness b(SmallStorm());
  const DiskGuardReport ra = a.Run();
  const DiskGuardReport rb = b.Run();
  // Full counter dump equality: the storm is a deterministic function of the
  // seed, including every fault draw, retry, park and crash.
  EXPECT_EQ(ra.ToJson(), rb.ToJson());
}

}  // namespace
}  // namespace flashtier
