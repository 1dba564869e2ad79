// Tests for the FlashCheck library: the InvariantChecker must pass healthy
// devices, flag planted corruptions, and run from the SSC audit hook; the
// CrashExplorer must clear a real workload at every commit point and must
// detect a deliberately broken recovery path. The soak, aging and KV
// harnesses run on the same engine: each must run clean, reproduce its
// report exactly, and catch a broken recovery in every mode; the soak driver
// must audit live state that recovery would rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/write_back.h"
#include "src/check/aging.h"
#include "src/check/crash_explorer.h"
#include "src/check/engine.h"
#include "src/check/invariant_checker.h"
#include "src/check/kv_check.h"
#include "src/check/soak.h"
#include "src/disk/disk_model.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

// Friend of the audited classes: plants one specific corruption per helper so
// the tests can assert the checker attributes it to the right invariant.
class CheckTestPeer {
 public:
  // Flips the packed dirty flag of one page-map entry, leaving the matching
  // OOB record (and the dirty-page counter) behind.
  static bool FlipPageMapDirtyBit(SscDevice& ssc) {
    Lbn victim = kInvalidLbn;
    ssc.page_map_.ForEach([&victim](Lbn lbn, uint64_t) { victim = lbn; });
    if (victim == kInvalidLbn) {
      return false;
    }
    uint64_t* packed = ssc.page_map_.Find(victim);
    *packed ^= 1u;
    return true;
  }

  static void SkewCachedPagesCounter(SscDevice& ssc) { ++ssc.cached_pages_; }

  // Swaps the LSNs of the first and last durable records.
  static bool BreakLsnOrder(PersistenceManager& pm) {
    if (pm.durable_log_.size() < 2) {
      return false;
    }
    std::swap(pm.durable_log_.front().lsn, pm.durable_log_.back().lsn);
    return true;
  }

  static void InsertDirtyTableEntry(WriteBackManager& manager, Lbn lbn) {
    manager.dirty_table_.Touch(lbn);
  }

  static void EraseDirtyTableEntry(WriteBackManager& manager, Lbn lbn) {
    manager.dirty_table_.Erase(lbn);
  }
};

namespace {

SscConfig SmallConfig() {
  SscConfig config;
  config.capacity_pages = 512;
  config.group_commit_ops = 16;
  config.checkpoint_interval_writes = 300;
  return config;
}

bool HasInvariant(const CheckReport& report, const std::string& name) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&name](const InvariantViolation& v) { return v.invariant == name; });
}

// A mixed workload that exercises overwrites, cleans, evicts and enough
// pressure to run GC/merges.
void RunMixedWorkload(SscDevice& ssc, uint32_t ops) {
  for (uint32_t i = 0; i < ops; ++i) {
    const Lbn lbn = (i * 17) % 900;
    switch (i % 5) {
      case 0:
      case 1:
        ASSERT_EQ(ssc.WriteDirty(lbn, 1000 + i), Status::kOk);
        break;
      case 2:
        ASSERT_EQ(ssc.WriteClean(lbn, 1000 + i), Status::kOk);
        break;
      case 3:
        // Not-present is fine: the mix cleans blocks it never wrote.
        (void)ssc.Clean(lbn);
        break;
      default:
        ASSERT_EQ(ssc.Evict(lbn), Status::kOk);
        break;
    }
  }
}

TEST(InvariantCheckerTest, HealthyDevicePassesWithChecksRun) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  RunMixedWorkload(ssc, 800);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(InvariantCheckerTest, HealthyDevicePassesAfterCrashRecovery) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  RunMixedWorkload(ssc, 800);
  ssc.SimulateCrash();
  ASSERT_EQ(ssc.Recover(), Status::kOk);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsPageMapOobDisagreement) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (Lbn lbn = 0; lbn < 20; ++lbn) {
    ASSERT_EQ(ssc.WriteClean(lbn, 7000 + lbn), Status::kOk);
  }
  ASSERT_TRUE(CheckTestPeer::FlipPageMapDirtyBit(ssc));
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "page-map.oob-dirty")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsCachedPagesCounterSkew) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  for (Lbn lbn = 0; lbn < 20; ++lbn) {
    ASSERT_EQ(ssc.WriteDirty(lbn, 7000 + lbn), Status::kOk);
  }
  CheckTestPeer::SkewCachedPagesCounter(ssc);
  const CheckReport report = InvariantChecker::Check(ssc);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "counter.cached-pages")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsLsnOrderViolation) {
  SimClock clock;
  PersistenceManager::Options opts;
  PersistenceManager pm(opts, FlashTimings{}, &clock);
  for (int i = 0; i < 4; ++i) {
    LogRecord rec;
    rec.lsn = pm.NextLsn();
    rec.type = LogOpType::kInsertPage;
    rec.key = static_cast<Lbn>(i);
    pm.Append(rec, /*sync=*/true);
  }
  EXPECT_TRUE(InvariantChecker::CheckPersistence(pm).ok());
  ASSERT_TRUE(CheckTestPeer::BreakLsnOrder(pm));
  const CheckReport report = InvariantChecker::CheckPersistence(pm);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "persist.lsn-monotone")) << report.ToString();
}

TEST(InvariantCheckerTest, DetectsDirtyTableDisagreementBothWays) {
  SimClock clock;
  DiskModel disk(DiskParams{}, &clock);
  SscDevice ssc(SmallConfig(), &clock);
  WriteBackManager manager(&ssc, &disk);
  for (Lbn lbn = 0; lbn < 10; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, 4000 + lbn), Status::kOk);
  }
  ASSERT_TRUE(InvariantChecker::Check(manager).ok());

  // A table entry for a block the SSC does not hold dirty...
  CheckTestPeer::InsertDirtyTableEntry(manager, 5000);
  CheckReport report = InvariantChecker::Check(manager);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "dirty-table.stale")) << report.ToString();
  CheckTestPeer::EraseDirtyTableEntry(manager, 5000);

  // ...and a dirty SSC block the table does not track.
  CheckTestPeer::EraseDirtyTableEntry(manager, 3);
  report = InvariantChecker::Check(manager);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasInvariant(report, "dirty-table.untracked")) << report.ToString();
}

TEST(InvariantCheckerTest, AuditHookFiresOnGcAndPasses) {
  SimClock clock;
  SscDevice ssc(SmallConfig(), &clock);
  uint64_t audits = 0;
  ssc.set_audit_hook([&audits](const SscDevice& device) {
    ++audits;
    const CheckReport report = InvariantChecker::Check(device);
    ASSERT_TRUE(report.ok()) << report.ToString();
  });
  RunMixedWorkload(ssc, 1200);
  EXPECT_GT(ssc.ftl_stats().gc_invocations, 0u);
  EXPECT_GT(audits, 0u);
}

TEST(CrashExplorerTest, RealRecoveryClearsEveryCommitPoint) {
  CrashExplorerOptions options;
  options.schedule.ops = 400;
  CrashExplorer explorer(options);
  const CrashExplorerReport report = explorer.Explore();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(report.points_explored, 100u) << report.ToString();
}

TEST(CrashExplorerTest, DetectsRecoveryThatSkipsLogTail) {
  CrashExplorerOptions options;
  options.schedule.ops = 300;
  options.schedule.break_recovery = true;
  // Structural invariants still hold in the broken recovery (the state is
  // merely stale); the shadow model is what must catch it.
  options.schedule.run_invariant_checker = false;
  CrashExplorer explorer(options);
  const CrashExplorerReport report = explorer.Explore();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violation_count, 0u);
}

TEST(DeviceShapeTest, ShardConfigSlicesCapacityAndStridesFaultSeeds) {
  DeviceShape shape;
  shape.capacity_pages = 513;
  shape.shards = 2;
  shape.faults.enabled = true;
  shape.faults.seed = 7;
  const SscConfig first = shape.ShardConfig(0);
  const SscConfig second = shape.ShardConfig(1);
  EXPECT_EQ(first.capacity_pages, 257u);
  EXPECT_EQ(second.capacity_pages, 256u);
  EXPECT_EQ(first.fault_plan.seed, 7u);
  EXPECT_EQ(second.fault_plan.seed, 7u + 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(second.group_commit_ops, shape.group_commit_ops);
  EXPECT_EQ(second.log_region_pages, shape.log_region_pages);
}

// Aging runs on the SSC's production persistence settings unless the
// shared flags override them.
TEST(DeviceShapeTest, AgingShapeKeepsPersistenceDefaults) {
  const SscConfig defaults;
  const SscConfig aging = AgingShape().ShardConfig(0);
  EXPECT_EQ(aging.group_commit_ops, defaults.group_commit_ops);
  EXPECT_EQ(aging.checkpoint_interval_writes, defaults.checkpoint_interval_writes);
  EXPECT_EQ(aging.log_region_pages, defaults.log_region_pages);
  EXPECT_EQ(aging.checkpoint_segment_entries, defaults.checkpoint_segment_entries);
  EXPECT_GT(aging.wear_level_interval_writes, 0u);
  EXPECT_GT(aging.patrol_interval_writes, 0u);
}

SoakOptions SmallSoak() {
  SoakOptions options;
  options.schedule.cycles = 6;
  return options;
}

TEST(SoakHarnessTest, SixCyclesRunCleanThroughEveryCrashKind) {
  const SoakReport report = SoakHarness(SmallSoak()).Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.cycles_run, 6u);
  EXPECT_GT(report.mid_workload_crashes, 0u) << report.ToString();
  EXPECT_GT(report.quiescent_crashes, 0u) << report.ToString();
  EXPECT_GT(report.recovery_crashes, 0u) << report.ToString();
}

TEST(SoakHarnessTest, DetectsRecoveryThatSkipsLogTail) {
  SoakOptions options = SmallSoak();
  options.schedule.break_recovery = true;
  const SoakReport report = SoakHarness(options).Run();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violation_count, 0u);
}

// A target whose workload leaves damage only its live state shows: the power
// failure wipes it and recovery comes back clean, as KvShard::Recover rebuilds
// the compaction index. RunOps reports a mid-workload crash in the cycles
// `crashed` marks.
class LiveOnlyDamageTarget : public CrashTarget {
 public:
  explicit LiveOnlyDamageTarget(std::vector<bool> crashed) : crashed_(std::move(crashed)) {}

  std::vector<SscDevice*> Sscs() override { return {}; }
  bool RunOps(uint64_t, uint32_t, std::vector<std::string>*) override {
    damaged_ = true;
    return crashed_.at(cycle_++);
  }
  void PowerFail() override { damaged_ = false; }
  bool Recover() override { return true; }
  void PauseFaults(bool paused) override { paused_ = paused; }
  void Audit(const std::string& prefix, std::vector<std::string>* violations) override {
    if (!paused_) {
      violations->push_back(prefix + "audited with faults live");
    }
    if (damaged_) {
      violations->push_back(prefix + "damage");
    }
  }
  void Sweep(std::vector<std::string>*) override {}

 private:
  std::vector<bool> crashed_;
  size_t cycle_ = 0;
  bool damaged_ = false;
  bool paused_ = false;
};

// The post-recovery audit sees only what recovery rebuilt, so each cycle
// whose workload completed must also be audited live, before the crash. A
// cycle cut short mid-op is not: its state is mid-operation.
TEST(SoakCrashCyclesTest, AuditsCompletedWorkloadLiveBeforeCrash) {
  LiveOnlyDamageTarget target({false, true, false, false});
  CrashSchedule schedule;
  schedule.cycles = 4;
  schedule.recovery_crash_period = 0;  // no SSC to crash inside recovery
  CycleReport report;
  SoakCrashCycles(target, schedule, &report);
  EXPECT_EQ(report.cycles_run, 4u);
  EXPECT_EQ(report.mid_workload_crashes, 1u);
  EXPECT_EQ(report.quiescent_crashes, 3u);
  EXPECT_EQ(report.samples,
            (std::vector<std::string>{"[cycle 0] live-state damage", "[cycle 2] live-state damage",
                                      "[cycle 3] live-state damage"}));
}

TEST(AgingHarnessTest, TwoEpochSmokeRunsClean) {
  AgingOptions options;
  options.aging_multiple = 2;
  const AgingReport report = AgingHarness(options).Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.epochs_run, 2u);
  EXPECT_GE(report.host_pages_written, 2 * options.device.capacity_pages);
  EXPECT_GT(report.ok_writes, 0u);
}

KvCheckOptions SmallKvExplore() {
  KvCheckOptions options;
  options.schedule.ops = 120;
  options.keys = 64;
  options.schedule.max_points = 60;
  return options;
}

TEST(KvCheckEngineTest, DetectsRecoveryThatSkipsLogTail) {
  KvCheckOptions options = SmallKvExplore();
  options.schedule.break_recovery = true;
  const KvCheckReport report = KvCheckHarness(options).Run();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.violation_count, 0u);
}

// Every harness is a deterministic function of its options: two runs must
// produce byte-identical reports, violation samples included.
TEST(HarnessDeterminismTest, ReportsAreIdenticalAcrossRuns) {
  CrashExplorerOptions explore;
  explore.schedule.ops = 200;
  explore.schedule.max_points = 80;
  EXPECT_EQ(CrashExplorer(explore).Explore().ToString(),
            CrashExplorer(explore).Explore().ToString());

  const SoakReport sa = SoakHarness(SmallSoak()).Run();
  const SoakReport sb = SoakHarness(SmallSoak()).Run();
  EXPECT_EQ(sa.ToString(), sb.ToString());
  EXPECT_EQ(sa.ToJson(0), sb.ToJson(0));

  AgingOptions aging;
  aging.aging_multiple = 2;
  aging.device.faults.enabled = true;
  aging.device.faults.wear_out_erases = 6;
  const AgingReport aa = AgingHarness(aging).Run();
  const AgingReport ab = AgingHarness(aging).Run();
  EXPECT_EQ(aa.ToString(), ab.ToString());
  EXPECT_EQ(aa.ToJson(), ab.ToJson());

  for (const uint32_t cycles : {0u, 4u}) {
    KvCheckOptions kv = SmallKvExplore();
    kv.schedule.cycles = cycles;
    const KvCheckReport ka = KvCheckHarness(kv).Run();
    const KvCheckReport kb = KvCheckHarness(kv).Run();
    EXPECT_EQ(ka.ToString(), kb.ToString());
    EXPECT_EQ(ka.ToJson(), kb.ToJson());
  }
}

}  // namespace
}  // namespace flashtier
