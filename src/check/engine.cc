#include "src/check/engine.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "src/check/invariant_checker.h"
#include "src/util/bitmap.h"
#include "src/util/rng.h"

namespace flashtier {

namespace {

constexpr uint64_t kNoCrash = ~uint64_t{0};

// Counts the commit points every shard crosses, globally in execution order,
// and throws CrashInjected at 0-based point `crash_at`. Records each point's
// kind when `kinds` is non-null.
void ArmCommitPoints(CrashTarget& target, uint64_t crash_at, uint64_t* points,
                     std::vector<CommitPoint>* kinds, bool trace) {
  for (SscDevice* ssc : target.Sscs()) {
    ssc->persist_for_testing()->set_commit_point_hook_for_testing(
        [crash_at, points, kinds, trace](CommitPoint p) {
          if (trace) {
            std::fprintf(stderr, "flashcheck: point %llu = %s\n", (unsigned long long)*points,
                         CommitPointName(p));
          }
          if (kinds != nullptr) {
            kinds->push_back(p);
          }
          if ((*points)++ == crash_at) {
            throw CrashInjected{};
          }
        });
  }
}

void DisarmCommitPoints(CrashTarget& target) {
  for (SscDevice* ssc : target.Sscs()) {
    ssc->persist_for_testing()->set_commit_point_hook_for_testing(nullptr);
  }
}

struct RecoveryOutcome {
  bool recovered = false;
  uint64_t points = 0;   // recovery points crossed, across every attempt
  uint64_t crashes = 0;  // crashes injected inside recovery
};

// Power-fails every shard at once, then recovers, crashing again at each
// recovery-point ordinal in `crash_at` (ascending). Every recovery phase only
// reads durable state, so re-entry after a crash must converge; the attempts
// are bounded so a livelocked recovery fails the trial, not the run.
RecoveryOutcome CrashAndRecover(CrashTarget& target, const std::vector<uint64_t>& crash_at,
                                bool break_recovery, bool trace,
                                std::vector<std::string>* violations) {
  RecoveryOutcome out;
  size_t next = 0;
  for (SscDevice* ssc : target.Sscs()) {
    PersistenceManager* pm = ssc->persist_for_testing();
    if (break_recovery) {
      pm->set_skip_log_tail_replay_for_testing(true);
    }
    pm->set_recovery_point_hook_for_testing([&out, &next, &crash_at, trace](RecoveryPoint p) {
      if (trace) {
        std::fprintf(stderr, "flashcheck: recovery point %llu = %s\n",
                     (unsigned long long)out.points, RecoveryPointName(p));
      }
      const uint64_t ordinal = out.points++;
      if (next < crash_at.size() && ordinal == crash_at[next]) {
        ++next;
        throw CrashInjected{};
      }
    });
  }
  target.PowerFail();
  bool refused = false;
  for (int attempt = 0; attempt < 4 && !out.recovered && !refused; ++attempt) {
    try {
      // A refusal is not a crash to retry: the device would not come back
      // up, so surface it instead of looping.
      refused = !target.Recover();
      out.recovered = !refused;
    } catch (const CrashInjected&) {
      ++out.crashes;
      target.PowerFail();
    }
  }
  if (refused) {
    violations->emplace_back("recovery: device Recover returned an error");
  } else if (!out.recovered) {
    violations->emplace_back("recovery: did not complete within the retry bound");
  }
  for (SscDevice* ssc : target.Sscs()) {
    ssc->persist_for_testing()->set_recovery_point_hook_for_testing(nullptr);
  }
  return out;
}

// What the crash-free trial reports back to the exhaustive driver.
struct Probe {
  uint64_t commit_points = 0;
  uint64_t recovery_points = 0;
  std::vector<CommitPoint> kinds;  // in firing order
};

std::vector<std::string> Trial(CrashTarget& target, const CrashSchedule& schedule,
                               uint64_t crash_at, const std::vector<uint64_t>& recovery_crashes,
                               Probe* probe) {
  std::vector<std::string> violations;
  const bool trace = schedule.verbose && probe != nullptr;
  uint64_t points = 0;
  ArmCommitPoints(target, crash_at, &points, probe != nullptr ? &probe->kinds : nullptr, trace);
  const bool crashed = target.RunOps(schedule.seed, schedule.ops, &violations);
  DisarmCommitPoints(target);

  // The workload is over: from here on the checker observes the target.
  target.PauseFaults(true);
  // A run that completed must also be structurally sound live; this catches
  // fault-handling bugs a crash would mask (the --break-retry self-test).
  if (schedule.run_invariant_checker && !crashed) {
    target.Audit("live-state ", &violations);
  }
  const RecoveryOutcome recovery = CrashAndRecover(target, recovery_crashes,
                                                   schedule.break_recovery, trace, &violations);
  if (schedule.run_invariant_checker) {
    target.Audit("post-recovery ", &violations);
  }
  target.Sweep(&violations);
  if (probe != nullptr) {
    probe->commit_points = points;
    probe->recovery_points = recovery.points;
  }
  return violations;
}

}  // namespace

SscConfig DeviceShape::DeviceConfig() const {
  SscConfig config;
  config.capacity_pages = capacity_pages;
  config.policy = policy;
  config.mode = mode;
  config.group_commit_ops = group_commit_ops;
  config.checkpoint_interval_writes = checkpoint_interval_writes;
  config.log_region_pages = log_region_pages;
  config.checkpoint_segment_entries = checkpoint_segment_entries;
  config.wear_level_interval_writes = wear_level_interval_writes;
  config.wear_level_max_diff = wear_level_max_diff;
  config.patrol_interval_writes = patrol_interval_writes;
  config.patrol_blocks_per_pass = patrol_blocks_per_pass;
  config.fault_plan = faults;
  config.break_retirement_for_testing = break_retirement;
  return config;
}

SscConfig DeviceShape::ShardConfig(uint32_t index) const {
  const uint32_t n = std::max<uint32_t>(1, shards);
  SscConfig config = DeviceConfig();
  config.capacity_pages = capacity_pages / n + (index < capacity_pages % n ? 1 : 0);
  config.fault_plan.seed = faults.seed + 0x9e3779b97f4a7c15ull * index;
  return config;
}

DeviceShape AgingShape() {
  const SscConfig defaults;
  DeviceShape shape;
  shape.group_commit_ops = defaults.group_commit_ops;
  shape.checkpoint_interval_writes = defaults.checkpoint_interval_writes;
  shape.log_region_pages = defaults.log_region_pages;
  shape.checkpoint_segment_entries = defaults.checkpoint_segment_entries;
  shape.wear_level_interval_writes = 32;
  shape.patrol_interval_writes = 64;
  return shape;
}

void Findings::Record(const std::string& tag, std::vector<std::string> found, bool verbose) {
  if (found.empty()) {
    return;
  }
  ++trials_with_violations;
  violation_count += found.size();
  for (std::string& v : found) {
    if (verbose) {
      std::fprintf(stderr, "flashcheck: %s: %s\n", tag.c_str(), v.c_str());
    }
    if (samples.size() < kMaxSamples) {
      samples.push_back("[" + tag + "] " + std::move(v));
    }
  }
}

void Findings::AppendSamples(std::string* out) const {
  for (const std::string& s : samples) {
    *out += "\n  ";
    *out += s;
  }
  if (violation_count > samples.size()) {
    *out += "\n  ...";
  }
}

std::string CycleReport::ExploreSummary() const {
  return Fmt("explored %llu of %llu commit points + %llu recovery trials over %llu recovery "
             "points: %llu violations in %llu trials",
             (unsigned long long)points_explored, (unsigned long long)total_commit_points,
             (unsigned long long)recovery_trials, (unsigned long long)total_recovery_points,
             (unsigned long long)violation_count, (unsigned long long)trials_with_violations);
}

std::string CycleReport::SoakSummary(uint64_t ops) const {
  return Fmt("%u cycles, %llu ops, %llu mid-workload + %llu quiescent crashes, %llu recovery "
             "crashes: %llu violations, %llu budget breaches, recovery max %llu us",
             cycles_run, (unsigned long long)ops, (unsigned long long)mid_workload_crashes,
             (unsigned long long)quiescent_crashes, (unsigned long long)recovery_crashes,
             (unsigned long long)violation_count, (unsigned long long)budget_exceeded,
             (unsigned long long)max_recovery_us);
}

std::unique_ptr<CrashTarget> ExploreCrashPoints(const TargetFactory& make,
                                                const CrashSchedule& schedule,
                                                CycleReport* report) {
  // The crash-free trial still ends with a quiescent crash and recovery,
  // which must be clean.
  Probe probe;
  std::unique_ptr<CrashTarget> baseline = make();
  std::vector<std::string> found = Trial(*baseline, schedule, kNoCrash, {}, &probe);
  report->total_commit_points = probe.commit_points;
  report->total_recovery_points = probe.recovery_points;
  report->Record("crash-free", std::move(found), schedule.verbose);
  const auto trial = [&](const std::string& tag, uint64_t crash_at,
                         const std::vector<uint64_t>& recovery_crashes) {
    report->Record(tag, Trial(*make(), schedule, crash_at, recovery_crashes, nullptr),
                   schedule.verbose);
  };

  const uint32_t stride = std::max<uint32_t>(1, schedule.stride);
  for (uint64_t point = 0; point < report->total_commit_points; point += stride) {
    if (schedule.max_points != 0 && report->points_explored >= schedule.max_points) {
      break;
    }
    trial(Fmt("point %llu", (unsigned long long)point), point, {});
    ++report->points_explored;
  }

  if (schedule.explore_recovery_points) {
    // Prefer mid-checkpoint commit points for the workload crash: a torn
    // segment generation is the hardest durable state a crashed recovery can
    // be asked to re-enter.
    std::vector<uint64_t> ckpt_points;
    for (size_t i = 0; i < probe.kinds.size(); ++i) {
      const CommitPoint k = probe.kinds[i];
      if (k == CommitPoint::kCheckpointStart || k == CommitPoint::kCheckpointSegment ||
          k == CommitPoint::kCheckpointDone) {
        ckpt_points.push_back(i);
      }
    }
    for (uint64_t r = 0; r < report->total_recovery_points; ++r) {
      uint64_t c1 = kNoCrash;
      if (!ckpt_points.empty()) {
        c1 = ckpt_points[r % ckpt_points.size()];
      } else if (report->total_commit_points != 0) {
        c1 = (r * 13) % report->total_commit_points;
      }
      // Double crash: the restarted recovery crashes again a few points in.
      const uint64_t r2 = r + 1 + (r * 7919) % 3;
      const auto [c, r1, r3] = std::array<unsigned long long, 3>{c1, r, r2};
      trial(Fmt("crash %llu, recovery crash %llu", c, r1), c1, {r});
      trial(Fmt("crash %llu, double recovery crash %llu+%llu", c, r1, r3), c1, {r, r2});
      trial(Fmt("quiescent, recovery crash %llu", r1), kNoCrash, {r});
      report->recovery_trials += 3;
    }
  }
  return baseline;
}

void SoakCrashCycles(CrashTarget& target, const CrashSchedule& schedule, CycleReport* report) {
  Rng rng(schedule.seed);
  const uint64_t shard_count = target.Sscs().size();
  uint64_t observed_points = 0;  // commit points in the last uncrashed cycle
  for (uint32_t cycle = 0; cycle < schedule.cycles; ++cycle) {
    std::vector<std::string> violations;

    // A fair coin decides whether this cycle dies mid-workload or at
    // quiescence. The crash point is calibrated to the last uncrashed
    // cycle's point count (a warm device logs far fewer records per op than
    // a filling one); the first cycle, and any draw past this cycle's actual
    // point count, lands quiescent.
    uint64_t crash_at = kNoCrash;
    if (schedule.crashes && observed_points > 0 && rng.Below(2) == 0) {
      crash_at = rng.Below(observed_points);
    }
    uint64_t points = 0;
    if (schedule.crashes) {
      ArmCommitPoints(target, crash_at, &points, nullptr, false);
    }
    const bool crashed = target.RunOps(schedule.seed * 1000003 + cycle, schedule.ops, &violations);

    bool recovered = true;
    uint64_t recovery_us = 0;
    size_t recovery_crash_count = 0;
    if (schedule.crashes) {
      DisarmCommitPoints(target);
      // A workload that completed must be sound live, as in a trial: the
      // post-recovery audit sees only what recovery rebuilt.
      if (schedule.run_invariant_checker && !crashed) {
        target.PauseFaults(true);
        target.Audit("live-state ", &violations);
        target.PauseFaults(false);
      }
      ++(crashed ? report->mid_workload_crashes : report->quiescent_crashes);
      if (!crashed) {
        observed_points = std::max<uint64_t>(points, 1);
      }
      std::vector<uint64_t> recovery_crashes;
      const uint32_t period = schedule.recovery_crash_period;
      if (period != 0 && cycle % period == period - 1) {
        const uint64_t r = rng.Below(5 * shard_count);
        recovery_crashes.push_back(r);
        if (cycle % (2 * period) == 2 * period - 1) {
          recovery_crashes.push_back(r + 1 + rng.Below(3));
        }
      }
      recovery_crash_count = recovery_crashes.size();
      const RecoveryOutcome outcome = CrashAndRecover(target, recovery_crashes,
                                                      schedule.break_recovery, false, &violations);
      report->recovery_crashes += outcome.crashes;
      recovered = outcome.recovered;
      if (recovered) {
        target.AfterRecovery();
        // Shards recover in parallel in a real deployment, so a cycle is
        // charged its slowest shard.
        for (SscDevice* ssc : target.Sscs()) {
          recovery_us = std::max(recovery_us, ssc->last_recovery_us());
        }
        report->max_recovery_us = std::max(report->max_recovery_us, recovery_us);
        report->total_recovery_us += recovery_us;
        if (schedule.recovery_budget_us != 0 && recovery_us > schedule.recovery_budget_us) {
          ++report->budget_exceeded;
          violations.push_back(Fmt("recovery took %llu us (budget %llu us)",
                                   (unsigned long long)recovery_us,
                                   (unsigned long long)schedule.recovery_budget_us));
        }
      }
    }

    if (recovered) {
      target.PauseFaults(true);
      if (schedule.run_invariant_checker) {
        target.Audit("", &violations);
      }
      target.Sweep(&violations);
      target.PauseFaults(false);
    }
    if (schedule.verbose) {
      std::fprintf(stderr,
                   "flashcheck: cycle %u: %s crash, %zu recovery crash(es), recovery %llu us\n",
                   cycle, crashed ? "mid-workload" : "quiescent", recovery_crash_count,
                   (unsigned long long)recovery_us);
    }
    report->Record(Fmt("cycle %u", cycle), std::move(violations), schedule.verbose);
    ++report->cycles_run;
    if (!recovered) {
      break;  // an unrecoverable device makes further cycles meaningless
    }
  }
}

SscShardTarget::SscShardTarget(const DeviceShape& shape)
    : shape_(shape), router_{std::max<uint32_t>(1, shape.shards)} {
  sscs_.reserve(router_.shards);
  for (uint32_t i = 0; i < router_.shards; ++i) {
    sscs_.push_back(std::make_unique<SscDevice>(shape_.ShardConfig(i), &clock_));
  }
  policies_.reserve(router_.shards);
  for (uint32_t i = 0; i < router_.shards; ++i) {
    policies_.push_back(MakePolicy(i));
  }
}

std::unique_ptr<AdmissionPolicy> SscShardTarget::MakePolicy(uint32_t shard) {
  return MakeAdmissionPolicy(ShardPolicyConfig(shape_.admission, router_.shards, shard), &clock_);
}

std::vector<SscDevice*> SscShardTarget::Sscs() {
  std::vector<SscDevice*> out;
  out.reserve(sscs_.size());
  for (auto& ssc : sscs_) {
    out.push_back(ssc.get());
  }
  return out;
}

void SscShardTarget::PowerFail() {
  for (auto& ssc : sscs_) {
    ssc->SimulateCrash();
  }
}

bool SscShardTarget::Recover() {
  bool all_ok = true;
  for (auto& ssc : sscs_) {
    if (!IsOk(ssc->Recover())) {
      all_ok = false;
    }
  }
  return all_ok;
}

void SscShardTarget::PauseFaults(bool paused) {
  for (auto& ssc : sscs_) {
    ssc->device_for_testing()->set_fault_injection_paused(paused);
  }
}

void SscShardTarget::Audit(const std::string& prefix, std::vector<std::string>* violations) {
  std::vector<const SscDevice*> views;
  views.reserve(sscs_.size());
  for (auto& ssc : sscs_) {
    views.push_back(ssc.get());
  }
  const CheckReport structural = InvariantChecker::CheckSharded(views, router_);
  for (const InvariantViolation& v : structural.violations) {
    violations->push_back(prefix + "invariant [" + v.invariant + "] " + v.detail);
  }
  // Rejected-block-absent must hold live and survive every crash (an
  // acknowledged reject evicted durably, G3), and policy memory stays bound.
  for (size_t i = 0; i < sscs_.size(); ++i) {
    const CheckReport pr = InvariantChecker::CheckPolicy(*policies_[i], sscs_[i].get());
    for (const InvariantViolation& v : pr.violations) {
      violations->push_back(prefix + "policy [" + v.invariant + "] " + v.detail);
    }
  }
}

BlockTarget::BlockTarget(const DeviceShape& shape, uint64_t address_blocks)
    : SscShardTarget(shape), shadow_(address_blocks) {
  for (auto& ssc : sscs_) {
    ssc->set_data_loss_hook([this](Lbn lbn) { lost_.insert(lbn); });
  }
}

bool BlockTarget::RunOps(uint64_t seed, uint32_t ops, std::vector<std::string>* violations) {
  for (const WorkloadOp& op : BuildWorkloadScript(seed, ops, shadow_.size(), &next_token_)) {
    if (!Step(op, violations)) {
      return true;
    }
  }
  return false;
}

bool BlockTarget::Step(const WorkloadOp& op, std::vector<std::string>* violations) {
  ShadowEntry& entry = op.kind == WorkloadOpKind::kCollect ? shadow_[0] : shadow_[op.lbn];
  const bool write =
      op.kind == WorkloadOpKind::kWriteDirty || op.kind == WorkloadOpKind::kWriteClean;

  // Admission: writes consult the shard's policy first, exactly like the
  // cache managers. A reject demotes the insertion to an eviction of any
  // cached copy — the data itself would go to the backing disk, which this
  // target does not model — so the block must afterwards read not-present.
  WorkloadOpKind effective = op.kind;
  bool rejected = false;
  if (write) {
    AdmissionPolicy& p = pol(op.lbn);
    p.OnAccess(op.lbn, /*is_write=*/true);
    AdmissionContext ctx;
    ctx.resident = entry.state == ShadowState::kDirty;
    const AdmissionOp aop = op.kind == WorkloadOpKind::kWriteDirty ? AdmissionOp::kWriteDirty
                                                                   : AdmissionOp::kWriteClean;
    if (!p.ShouldAdmit(op.lbn, aop, ctx)) {
      effective = WorkloadOpKind::kEvict;
      rejected = true;
    }
  } else if (op.kind == WorkloadOpKind::kRead) {
    pol(op.lbn).OnAccess(op.lbn, /*is_write=*/false);
  }

  Status s = Status::kOk;
  uint64_t read_token = 0;
  try {
    s = IssueOp(effective, op, &read_token);
  } catch (const CrashInjected&) {
    // The sweep dispatches on the *effective* kind: a rejected write was
    // running (and may have crashed inside) its bypass eviction.
    pending_ = {ShadowPendingOp::Kind::kNone, op.lbn, op.token};
    if (effective == WorkloadOpKind::kWriteDirty || effective == WorkloadOpKind::kWriteClean) {
      pending_.kind = ShadowPendingOp::Kind::kWrite;
    } else if (effective == WorkloadOpKind::kEvict) {
      pending_.kind = ShadowPendingOp::Kind::kEvict;
    } else if (effective == WorkloadOpKind::kClean) {
      pending_.kind = ShadowPendingOp::Kind::kClean;
    }
    // An admitted write interrupted by the crash may still have landed
    // durably, while the OnAdmit that would have cleared any old reject
    // record never ran. A real host rebuilds policy state after a crash;
    // clear the record so the rejected-block-absent audit never indicts a
    // legitimately admitted block.
    if (write && !rejected) {
      pol(op.lbn).OnAdmit(op.lbn);
    }
    return false;
  }
  ++ops_executed_;
  if ((effective == WorkloadOpKind::kWriteDirty || effective == WorkloadOpKind::kWriteClean) &&
      IsOk(s)) {
    ++ok_writes_;
  }
  // Faults the device detects (kCorrupt, kIoError, a lost page reading
  // not-present) are ordinary wear; a wrong token behind kOk is silent.
  if (effective == WorkloadOpKind::kRead && s == Status::kOk &&
      (entry.state == ShadowState::kNone || entry.state == ShadowState::kEvicted ||
       read_token != entry.token)) {
    ++undetected_corruptions_;
  }

  // Policy bookkeeping, mirroring the managers: exactly one of
  // OnAdmit/OnReject once the insertion (or its bypass) completed; explicit
  // evictions are reported through OnEvict.
  if (rejected) {
    pol(op.lbn).OnReject(op.lbn);
  } else if (write && IsOk(s)) {
    pol(op.lbn).OnAdmit(op.lbn);
  } else if (op.kind == WorkloadOpKind::kEvict) {
    pol(op.lbn).OnEvict(op.lbn);
  }

  // The operation completed: it is acknowledged, so the guarantees attach.
  ApplyAcknowledged(effective, op.lbn, op.token, s, read_token, shape_.faults.enabled, lost_,
                    entry, violations);
  return true;
}

Status BlockTarget::IssueOp(WorkloadOpKind kind, const WorkloadOp& op, uint64_t* read_token) {
  SscDevice& d = dev(op.lbn);
  switch (kind) {
    case WorkloadOpKind::kWriteDirty:
    case WorkloadOpKind::kWriteClean: {
      const auto write = [&] {
        return kind == WorkloadOpKind::kWriteDirty ? d.WriteDirty(op.lbn, op.token)
                                                   : d.WriteClean(op.lbn, op.token);
      };
      Status s = write();
      if (s == Status::kBackpressure) {
        // Bounded stall, as the write-back manager would do: drain the log
        // (forcing a checkpoint) and retry once. The drain crosses commit
        // points of its own, so crashes inside the stall are explored too.
        d.DrainLog();
        s = write();
      }
      return s;
    }
    case WorkloadOpKind::kRead:
      return d.Read(op.lbn, read_token);
    case WorkloadOpKind::kClean:
      return d.Clean(op.lbn);
    case WorkloadOpKind::kEvict:
      return d.Evict(op.lbn);
    case WorkloadOpKind::kCollect:
      for (auto& ssc : sscs_) {
        ssc->BackgroundCollect(/*budget_us=*/20'000);
      }
      return Status::kOk;
  }
  return Status::kOk;
}

void BlockTarget::Sweep(std::vector<std::string>* violations) {
  VerifyAgainstShadow(
      shadow_, [this](Lbn lbn) -> SscDevice& { return dev(lbn); }, lost_, pending_, violations);
  // Both outcomes of the pending op were legal; settle its entry to what the
  // device actually recovered, so the ambiguity does not leak into the
  // expectations of the workload that resumes on this shadow.
  if (pending_.kind != ShadowPendingOp::Kind::kNone) {
    uint64_t token = 0;
    ShadowEntry& entry = shadow_[pending_.lbn];
    if (IsOk(dev(pending_.lbn).Read(pending_.lbn, &token))) {
      Bitmap dirty_map;
      dev(pending_.lbn).Exists(pending_.lbn, 1, &dirty_map);
      entry = {dirty_map.Test(0) ? ShadowState::kDirty : ShadowState::kClean, token};
    } else {
      entry = {ShadowState::kEvicted, 0};
    }
  }
  pending_ = {};
}

}  // namespace flashtier
