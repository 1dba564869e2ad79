// FlashCheck crash-cycle engine: the one crash → recover → audit loop every
// flashcheck harness schedules.
//
// A harness is a *target* — the system under check together with its shadow
// of acknowledged operations — driven by a *schedule* that places the
// crashes. The engine owns everything in between:
//   * CrashInjected, thrown by the persistence hooks to simulate power
//     failure at one exact commit or recovery point;
//   * the crash-and-recover step: power fails on every shard at once, then
//     recovery re-enters from the top after each crash injected inside it
//     (the ordinal counter runs across attempts, so two ascending ordinals
//     make a double crash), within a bounded number of attempts;
//   * ExploreCrashPoints, the exhaustive driver: one trial per commit point
//     on a fresh target, then crash-during-recovery trials;
//   * SoakCrashCycles, the soak driver: one long-lived target through seeded
//     workload → live audit → crash → recover → audit/sweep cycles.
//
// Three targets implement the CrashTarget interface: BlockTarget below
// (sharded SSCs plus the block shadow model: the explorer, soak and aging
// harnesses), the KV target (KvCache plus a key shadow, kv_check.cc) and the
// host target (cache managers over a DiskModel plus a host shadow,
// disk_guard.cc). Each keeps only what is its own: its op mix, its shadow
// semantics and its audits.

#ifndef FLASHTIER_CHECK_ENGINE_H_
#define FLASHTIER_CHECK_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/check/shadow_model.h"
#include "src/policy/policy_factory.h"
#include "src/ssc/shard.h"
#include "src/ssc/ssc_device.h"

namespace flashtier {

// Thrown by the commit-point and recovery-point hooks to simulate power
// failure at that exact instant. Unwinding abandons only device-RAM state,
// which the simulated crash wipes anyway; the medium and the durable
// log/checkpoint regions keep whatever had been committed before the throw.
struct CrashInjected {};

// The device every harness checks: `capacity_pages` split across `shards`
// LBN-hash partitioned SSCs (1 = the classic monolithic device). The
// defaults are a stress configuration: a small device forces GC and merges,
// small group commits and checkpoint intervals put many commit points in
// every workload, a 4-page log region composes the forced-checkpoint and
// backpressure paths with every crash, and small checkpoint segments make a
// crash inside a checkpoint leave a torn generation.
struct DeviceShape {
  uint64_t capacity_pages = 512;
  uint32_t shards = 1;
  EvictionPolicy policy = EvictionPolicy::kSeUtil;
  ConsistencyMode mode = ConsistencyMode::kFull;
  uint32_t group_commit_ops = 16;
  uint64_t checkpoint_interval_writes = 250;
  uint64_t log_region_pages = 4;  // per shard
  uint64_t checkpoint_segment_entries = 16;

  // Endurance defenses (DESIGN.md §5l); 0 disables. Only the aging harness
  // turns them on.
  uint32_t wear_level_interval_writes = 0;
  uint32_t wear_level_max_diff = 8;
  uint32_t patrol_interval_writes = 0;
  uint32_t patrol_blocks_per_pass = 4;

  // Medium fault injection (--faults). Every trial composes the same
  // deterministic schedule with a different crash point; dirty data a fault
  // destroys is reported through the SSC's data-loss hook and excused from
  // the shadow check, everything else must still hold G1-G3.
  FaultPlan faults;
  // Admission control (--admission): one deterministic policy per shard,
  // consulted before every insertion.
  PolicyConfig admission;

  // Self-test (--break-retry): erase-failed blocks return to the free list
  // non-erased instead of being retired; the audits must notice.
  bool break_retirement = false;

  // Every SSC setting the shape carries, for the whole device.
  SscConfig DeviceConfig() const;
  // Shard `index`'s slice: an even share of the capacity (the remainder goes
  // to the low shards) and its own fault stream, seeded with the same
  // golden-ratio stride as the system facade.
  SscConfig ShardConfig(uint32_t index) const;
};

// The aging harness's device: SscConfig's persistence defaults, with wear
// leveling and patrol scrub on an aggressive cadence suited to the small
// default device.
DeviceShape AgingShape();

// How a run is seeded, where the drivers place crashes, and what they audit.
// Each harness reads the fields its schedule uses.
struct CrashSchedule {
  uint64_t seed = 42;
  uint32_t ops = 600;  // per trial, soak cycle or aging round

  // Exhaustive driver. 0 max_points means every commit point. Recovery-point
  // exploration runs three trials per recovery point: a mid-workload crash
  // plus a recovery crash, the double-crash diagonal, and a quiescent crash
  // plus a recovery crash.
  uint32_t max_points = 0;
  uint32_t stride = 1;
  bool explore_recovery_points = true;

  // Soak driver (the KV harness explores when `cycles` is 0). Every
  // `recovery_crash_period`th cycle also crashes inside the recovery that
  // follows, every second such cycle twice (0 disables).
  // `recovery_budget_us` bounds each cycle's virtual recovery time (0
  // disables); the default is the paper's 2.4 s consistent-cache claim.
  uint32_t cycles = 0;
  bool crashes = true;  // false runs the cycles crash-free
  uint32_t recovery_crash_period = 3;
  uint64_t recovery_budget_us = 2'400'000;

  // Self-test (--break-recovery): recovery drops the log tail, which must
  // surface as violations.
  bool break_recovery = false;
  bool run_invariant_checker = true;
  bool verbose = false;  // print each violation (and traces) to stderr
};

// Violations a run found: the total, plus the first kMaxSamples kept as
// "[tag] description".
struct Findings {
  uint64_t violation_count = 0;
  uint64_t trials_with_violations = 0;  // trials, cycles or epochs with any
  std::vector<std::string> samples;

  static constexpr size_t kMaxSamples = 32;

  void Record(const std::string& tag, std::vector<std::string> found, bool verbose);
  // One indented line per sample, then "..." when samples were dropped.
  void AppendSamples(std::string* out) const;
};

// The counters the two drivers fill.
struct CycleReport : Findings {
  // Exhaustive driver.
  uint64_t total_commit_points = 0;    // commit points in the crash-free run
  uint64_t total_recovery_points = 0;  // recovery points in one clean recovery
  uint64_t points_explored = 0;        // commit-point trials executed
  uint64_t recovery_trials = 0;        // crash-during-recovery trials executed

  // Soak driver.
  uint32_t cycles_run = 0;
  uint64_t mid_workload_crashes = 0;  // cycles whose crash hit inside an op
  uint64_t quiescent_crashes = 0;     // cycles that crashed between ops
  uint64_t recovery_crashes = 0;      // crashes injected inside recovery
  uint64_t budget_exceeded = 0;       // cycles whose recovery blew the budget
  uint64_t max_recovery_us = 0;       // slowest cycle (its slowest shard)
  uint64_t total_recovery_us = 0;     // sum of per-cycle recovery times

  // One-line summaries of the exhaustive and the soak driver's counters.
  std::string ExploreSummary() const;
  std::string SoakSummary(uint64_t ops) const;
};

// What the drivers need from the system under check. Targets hand `this`
// to device hooks, so they are neither copied nor moved.
class CrashTarget {
 public:
  CrashTarget() = default;
  CrashTarget(const CrashTarget&) = delete;
  CrashTarget& operator=(const CrashTarget&) = delete;
  virtual ~CrashTarget() = default;

  // Every shard's SSC in shard order; the drivers hook their persistence
  // managers.
  virtual std::vector<SscDevice*> Sscs() = 0;
  // Runs `ops` operations of the workload drawn from `seed`, moving the
  // shadow as each one is acknowledged and checking read-backs on the way.
  // Returns true when a CrashInjected cut the run short; the op it
  // interrupted stays pending until the next Sweep.
  virtual bool RunOps(uint64_t seed, uint32_t ops, std::vector<std::string>* violations) = 0;
  // Power failure on every shard at the same instant.
  virtual void PowerFail() = 0;
  // One recovery attempt over every shard. May throw CrashInjected; returns
  // false when a shard refused to come back up.
  virtual bool Recover() = 0;
  // Rebuilds host state that died with the power, after recovery completed.
  virtual void AfterRecovery() {}
  // Suspends new fault draws so checking cannot destroy state; damage
  // already done stays in force.
  virtual void PauseFaults(bool paused) = 0;
  // Structural audits; every violation is prefixed with `prefix`.
  virtual void Audit(const std::string& prefix, std::vector<std::string>* violations) = 0;
  // Reads the whole address space back and checks it against the shadow
  // (the pending op may or may not have landed), then settles the pending
  // op's entry to what was actually recovered.
  virtual void Sweep(std::vector<std::string>* violations) = 0;
};

using TargetFactory = std::function<std::unique_ptr<CrashTarget>()>;

// Exhaustive driver. A crash-free trial counts the commit and recovery
// points the workload crosses (it is deterministic, so every trial sees the
// same sequence); then one trial per (strided) commit point crashes there,
// and the crash-during-recovery trials follow. Each trial runs on a fresh
// target: workload, pause faults, live audit when the workload completed,
// crash and recover, post-recovery audit, sweep. Returns the crash-free
// trial's target for the harness's report.
std::unique_ptr<CrashTarget> ExploreCrashPoints(const TargetFactory& make,
                                                const CrashSchedule& schedule, CycleReport* report);

// Soak driver: `schedule.cycles` cycles on one long-lived target, whose
// state is never rebuilt, so corruption that survives one recovery is given
// every chance to compound. A seeded coin decides whether a cycle crashes
// mid-workload, at a commit point drawn over the last uncrashed cycle's
// point count, or at quiescence; recovery crashes follow the schedule's
// period. A cycle whose workload completed is audited live before the
// crash; after recovery each cycle audits and sweeps. Audits run with faults
// paused.
void SoakCrashCycles(CrashTarget& target, const CrashSchedule& schedule, CycleReport* report);

// The block target: sharded SSCs with one admission policy each, driven by
// the scripted workload (shadow_model.h) and checked against the block
// shadow. `SscShardTarget` is the shard set alone, shared with the host
// target.
class SscShardTarget : public CrashTarget {
 public:
  explicit SscShardTarget(const DeviceShape& shape);

  std::vector<SscDevice*> Sscs() override;
  void PowerFail() override;
  bool Recover() override;
  void PauseFaults(bool paused) override;
  // Structural invariants of every shard plus partition disjointness, then
  // each shard's admission-policy audit.
  void Audit(const std::string& prefix, std::vector<std::string>* violations) override;

  const std::vector<std::unique_ptr<SscDevice>>& sscs() const { return sscs_; }

 protected:
  SscDevice& dev(Lbn lbn) { return *sscs_[router_.ShardOf(lbn)]; }
  AdmissionPolicy& pol(Lbn lbn) { return *policies_[router_.ShardOf(lbn)]; }
  std::unique_ptr<AdmissionPolicy> MakePolicy(uint32_t shard);

  const DeviceShape shape_;
  SimClock clock_;
  const ShardRouter router_;
  std::vector<std::unique_ptr<SscDevice>> sscs_;
  std::vector<std::unique_ptr<AdmissionPolicy>> policies_;
};

class BlockTarget : public SscShardTarget {
 public:
  BlockTarget(const DeviceShape& shape, uint64_t address_blocks);

  bool RunOps(uint64_t seed, uint32_t ops, std::vector<std::string>* violations) override;
  void Sweep(std::vector<std::string>* violations) override;

  uint64_t ops_executed() const { return ops_executed_; }
  uint64_t ok_writes() const { return ok_writes_; }
  // kOk reads whose token the shadow never acknowledged.
  uint64_t undetected_corruptions() const { return undetected_corruptions_; }

 private:
  // Runs one op; false when a crash interrupted it.
  bool Step(const WorkloadOp& op, std::vector<std::string>* violations);
  Status IssueOp(WorkloadOpKind kind, const WorkloadOp& op, uint64_t* read_token);

  std::vector<ShadowEntry> shadow_;
  // Lbns whose only copy an injected medium fault destroyed.
  std::unordered_set<Lbn> lost_;
  ShadowPendingOp pending_;
  uint64_t next_token_ = 1;
  uint64_t ops_executed_ = 0;
  uint64_t ok_writes_ = 0;
  uint64_t undetected_corruptions_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_ENGINE_H_
