// FlashCheck DiskGuard harness: end-to-end verification of the cache tier
// under a failing *disk* (DESIGN.md §5i).
//
// The crash explorer and soak harness drive the SSC directly; DiskGuard
// drives a full host stack — cache managers over sharded SSCs over a shared
// DiskModel — with a deterministic disk fault plan armed (latent sector
// errors, transient failures, slow-IO spikes), optionally composed with
// flash fault injection, crash-storm cycles, sharding, admission control and
// a background scrubber.
//
// A host-level shadow records every *acknowledged* operation. The core
// property checked after every op and in a full post-recovery sweep each
// cycle: no disk fault schedule may lose acknowledged data silently. A read
// must return the last acknowledged token, unless (a) a crash or failed
// write left the block torn — either version is then accepted, and stays
// accepted until the next acknowledged write collapses the ambiguity (the
// two tiers may hold different versions of an unacknowledged write), or
// (b) the stack notified data loss for that block via the SSC's data-loss
// hook — after which any *previously* acknowledged token (or the block's
// original disk content) is accepted, but never fabricated data. Honest
// refusals (kIoError / kTimeout / kNoSpace / kBackpressure) are counted,
// not condemned. Every recovered cycle also runs the structural
// InvariantChecker (including the parked-writeback-queue audits) and the
// admission-policy audit.
//
// The harness is the engine's soak driver (src/check/engine.h) over the host
// target: the managers, the disk and the host shadow.

#ifndef FLASHTIER_CHECK_DISK_GUARD_H_
#define FLASHTIER_CHECK_DISK_GUARD_H_

#include <cstdint>
#include <string>

#include "src/cache/cache_manager.h"
#include "src/check/engine.h"
#include "src/disk/disk_fault_plan.h"
#include "src/disk/disk_model.h"
#include "src/disk/retry_policy.h"

namespace flashtier {

struct DiskGuardOptions {
  DeviceShape device;  // device.ssc.fault_plan is the --faults composition
  // Each of `schedule.cycles` cycles runs `schedule.ops` host ops and ends
  // in a crash at a seeded commit point (or at quiescence) followed by
  // recovery and a manager rebuild; `schedule.crashes = false` runs the
  // cycles crash-free (a pure disk-fault storm).
  CrashSchedule schedule;
  uint64_t address_blocks = 1536;

  // Manager under test: write-back (default) exercises the full park/
  // redrive/disk-degraded machinery; write-through exercises the honest-
  // refusal and rescue paths.
  bool write_through = false;

  // Background scrubber: every `scrub_period` ops each shard's manager
  // repairs up to `scrub_budget` latent sectors from cached copies.
  // 0 disables.
  uint32_t scrub_period = 64;
  uint32_t scrub_budget = 8;

  DiskFaultPlan disk_faults;  // the point of the harness
  RetryPolicy disk_retry;
};

struct DiskGuardReport : CycleReport {
  uint64_t ops_executed = 0;
  uint64_t write_errors = 0;  // honest write refusals surfaced to the host
  uint64_t read_errors = 0;   // honest read refusals surfaced to the host
  uint64_t loss_notifications = 0;  // distinct blocks the stack reported lost
  uint64_t crashes = 0;
  uint64_t scrub_passes = 0;
  DiskStats disk;         // final disk counters (shared across shards)
  ManagerStats manager;   // merged across the final per-shard managers

  bool ok() const { return violation_count == 0; }
  std::string ToString() const;
  std::string ToJson() const;
};

class DiskGuardHarness {
 public:
  explicit DiskGuardHarness(const DiskGuardOptions& options);

  DiskGuardReport Run();

 private:
  DiskGuardOptions options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_DISK_GUARD_H_
