#include "src/check/disk_guard.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/check/invariant_checker.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace flashtier {

namespace {

// Host-level shadow of one block: what a read is allowed to return.
struct HostShadow {
  uint64_t expected = 0;   // last acknowledged token; 0 = never written
  bool ambiguous = false;  // a failed/interrupted write left two legal values
  uint64_t alt = 0;        // the other legal token while ambiguous
  std::vector<uint64_t> history;  // every token ever acknowledged
};

bool InHistory(const HostShadow& shadow, Lbn lbn, uint64_t token) {
  if (token == DiskModel::OriginalToken(lbn)) {
    return true;  // the block's pre-write disk content
  }
  return std::find(shadow.history.begin(), shadow.history.end(), token) !=
         shadow.history.end();
}

bool IsHonestRefusal(Status s) {
  return s == Status::kIoError || s == Status::kTimeout || s == Status::kNoSpace ||
         s == Status::kBackpressure;
}

// The host target: one cache manager per SSC shard over one shared disk tier
// (shards partition the cache, not the backing store), with the disk fault
// plan armed. The SSCs are long-lived; the managers and admission policies
// are host RAM, rebuilt from the SSCs after every crash.
class HostTarget : public SscShardTarget {
 public:
  HostTarget(const DiskGuardOptions& options, DiskGuardReport* report)
      : SscShardTarget(options.device),
        options_(options),
        report_(report),
        disk_(&clock_),
        shadow_(options.address_blocks) {
    disk_.set_fault_plan(options.disk_faults);
    disk_.set_retry_policy(options.disk_retry);
    BuildManagers(/*after_crash=*/false);
    for (auto& ssc : sscs_) {
      ssc->set_data_loss_hook([this](Lbn lbn) {
        if (lost_.insert(lbn).second) {
          ++report_->loss_notifications;
        }
      });
    }
    for (Lbn lbn = 0; lbn < shadow_.size(); ++lbn) {
      shadow_[lbn].expected = DiskModel::OriginalToken(lbn);
    }
  }

  bool RunOps(uint64_t seed, uint32_t ops, std::vector<std::string>* violations) override {
    Rng workload(seed);
    for (uint32_t i = 0; i < ops; ++i) {
      const Lbn lbn = workload.Below(shadow_.size());
      const bool is_write = workload.Below(100) < 45;
      const uint64_t token = is_write ? next_token_++ : 0;
      try {
        if (is_write) {
          Write(lbn, token, violations);
        } else {
          uint64_t token_out = 0;
          const Status s = mgr(lbn).Read(lbn, &token_out);
          CheckRead(lbn, s, token_out, violations);
        }
        ++report_->ops_executed;
        if (options_.scrub_period != 0 && (i + 1) % options_.scrub_period == 0) {
          for (auto& m : managers_) {
            m->ScrubDisk(options_.scrub_budget);
          }
          ++report_->scrub_passes;
        }
      } catch (const CrashInjected&) {
        if (is_write) {
          Ambiguous(lbn, token);  // the interrupted write may or may not have landed
        }
        return true;
      }
    }
    return false;
  }

  // The managers' host state died with the power; rebuild them on the
  // recovered devices (write-back re-runs its dirty-table exists scan).
  void AfterRecovery() override { BuildManagers(/*after_crash=*/true); }

  // Latent sectors stay unreadable while paused: media damage, not injection.
  void PauseFaults(bool paused) override {
    disk_.set_fault_injection_paused(paused);
    SscShardTarget::PauseFaults(paused);
  }

  // Managers first (including the parked-writeback-queue audits), then the
  // shards and their policies.
  void Audit(const std::string& prefix, std::vector<std::string>* violations) override {
    for (auto& m : managers_) {
      const CheckReport structural = InvariantChecker::Check(*m);
      for (const InvariantViolation& v : structural.violations) {
        violations->push_back(prefix + "invariant [" + v.invariant + "] " + v.detail);
      }
    }
    SscShardTarget::Audit(prefix, violations);
  }

  void Sweep(std::vector<std::string>* violations) override {
    for (Lbn lbn = 0; lbn < shadow_.size(); ++lbn) {
      uint64_t token_out = 0;
      const Status s = mgr(lbn).Read(lbn, &token_out);
      CheckRead(lbn, s, token_out, violations);
    }
  }

  // Orderly shutdown with faults paused, so the disk answers again: every
  // parked run must redrive and every dirty block write back. A residue
  // means a retry queue neither drained nor escalated.
  void Drain(std::vector<std::string>* violations) {
    if (options_.write_through) {
      return;
    }
    for (auto& m : managers_) {
      auto* wb = static_cast<WriteBackManager*>(m.get());
      const Status s = wb->FlushAll();
      if (!IsOk(s)) {
        violations->push_back(Fmt("final FlushAll failed with %s on a healthy disk",
                                  std::string(StatusName(s)).c_str()));
      }
      if (wb->parked_blocks() != 0 || wb->dirty_blocks() != 0) {
        violations->push_back(Fmt("final drain left %llu dirty / %llu parked blocks",
                                  (unsigned long long)wb->dirty_blocks(),
                                  (unsigned long long)wb->parked_blocks()));
      }
    }
  }

  // Counters of the whole storm: every retired manager generation plus the
  // live one.
  ManagerStats Stats() const {
    ManagerStats out = retired_stats_;
    for (const auto& m : managers_) {
      out.Merge(m->stats());
    }
    return out;
  }
  DiskStats disk_stats() const { return disk_.stats(); }

 private:
  CacheManager& mgr(Lbn lbn) { return *managers_[router_.ShardOf(lbn)]; }

  void BuildManagers(bool after_crash) {
    for (auto& m : managers_) {
      retired_stats_.Merge(m->stats());
    }
    managers_.clear();
    if (after_crash) {
      // The admission policies are host RAM too, and die with the power.
      // Rebuilding them matters for more than realism: a crash between a
      // durable SSC insert and the manager's OnAdmit would otherwise leave
      // the block stranded in the policy's reject ghost, and the
      // rejected-block-absent audit would flag perfectly sound state.
      for (uint32_t i = 0; i < router_.shards; ++i) {
        policies_[i] = MakePolicy(i);
      }
    }
    for (uint32_t i = 0; i < router_.shards; ++i) {
      if (options_.write_through) {
        managers_.push_back(
            std::make_unique<WriteThroughManager>(sscs_[i].get(), &disk_, *policies_[i]));
      } else {
        auto wb = std::make_unique<WriteBackManager>(sscs_[i].get(), &disk_, *policies_[i]);
        if (after_crash) {
          wb->RecoverDirtyTable();
        }
        managers_.push_back(std::move(wb));
      }
    }
  }

  void Write(Lbn lbn, uint64_t token, std::vector<std::string>* violations) {
    const Status s = mgr(lbn).Write(lbn, token);
    HostShadow& sh = shadow_[lbn];
    if (IsOk(s)) {
      sh.expected = token;
      sh.ambiguous = false;
      sh.history.push_back(token);
    } else if (IsHonestRefusal(s)) {
      // The write was refused, but parts of the stack may have seen it:
      // either the old or the new version may surface later.
      ++report_->write_errors;
      Ambiguous(lbn, token);
    } else {
      violations->push_back(Fmt("write lbn %llu: unexpected status %s", (unsigned long long)lbn,
                                std::string(StatusName(s)).c_str()));
    }
  }

  void Ambiguous(Lbn lbn, uint64_t token) {
    HostShadow& sh = shadow_[lbn];
    sh.ambiguous = true;
    sh.alt = token;
    sh.history.push_back(token);
  }

  // Checks one read outcome against the shadow; settles ambiguity and loss
  // on what the stack actually returned (both outcomes were legal).
  void CheckRead(Lbn lbn, Status s, uint64_t token, std::vector<std::string>* violations) {
    HostShadow& sh = shadow_[lbn];
    if (!IsOk(s)) {
      if (IsHonestRefusal(s)) {
        ++report_->read_errors;  // honest refusal, never silent loss
      } else {
        violations->push_back(Fmt("read lbn %llu: unexpected status %s", (unsigned long long)lbn,
                                  std::string(StatusName(s)).c_str()));
      }
      return;
    }
    if (token == sh.expected || (sh.ambiguous && token == sh.alt)) {
      // While a block is torn by an unacknowledged write, either version is
      // legal — and stays legal: the two tiers may hold different versions
      // (cache old / disk new, or vice versa), so reads can flip between
      // them as the cache fills and evicts. Only the next *acknowledged*
      // write collapses the ambiguity.
      return;
    }
    if (lost_.count(lbn) != 0 && InHistory(sh, lbn, token)) {
      // The stack notified loss for this block: any previously acknowledged
      // version (or the original disk content) is an honest rollback.
      sh.expected = token;
      sh.ambiguous = false;
      lost_.erase(lbn);
      return;
    }
    violations->push_back(Fmt("read lbn %llu returned %llx, expected %llx (no loss notified)",
                              (unsigned long long)lbn, (unsigned long long)token,
                              (unsigned long long)sh.expected));
  }

  const DiskGuardOptions& options_;
  DiskGuardReport* report_;
  DiskModel disk_;
  ManagerStats retired_stats_;
  std::vector<std::unique_ptr<CacheManager>> managers_;
  std::unordered_set<Lbn> lost_;
  std::vector<HostShadow> shadow_;
  uint64_t next_token_ = 1;
};

}  // namespace

std::string DiskGuardReport::ToString() const {
  std::string out =
      Fmt("disk-guard: %u cycles, %llu ops, %llu crashes (%llu in recovery), "
          "%llu write / %llu read refusals, %llu losses notified, "
          "%llu rescued reads, %llu parked, %llu scrubbed: %llu violations",
          cycles_run, (unsigned long long)ops_executed, (unsigned long long)crashes,
          (unsigned long long)recovery_crashes, (unsigned long long)write_errors,
          (unsigned long long)read_errors, (unsigned long long)loss_notifications,
          (unsigned long long)manager.rescued_reads, (unsigned long long)manager.parked_writebacks,
          (unsigned long long)manager.scrub_repairs, (unsigned long long)violation_count);
  AppendSamples(&out);
  return out;
}

std::string DiskGuardReport::ToJson() const {
  JsonLine line;
  line.Object("disk_guard")
      .Uint("cycles", cycles_run)
      .Uint("ops", ops_executed)
      .Uint("write_errors", write_errors)
      .Uint("read_errors", read_errors)
      .Uint("loss_notifications", loss_notifications)
      .Uint("crashes", crashes)
      .Uint("recovery_crashes", recovery_crashes)
      .Uint("scrub_passes", scrub_passes)
      .Uint("violations", violation_count)
      .End()
      .Block("disk", disk)
      .Block("manager", manager);
  return line.Finish();
}

DiskGuardHarness::DiskGuardHarness(const DiskGuardOptions& options) : options_(options) {}

DiskGuardReport DiskGuardHarness::Run() {
  DiskGuardReport report;
  HostTarget target(options_, &report);
  SoakCrashCycles(target, options_.schedule, &report);
  report.crashes = report.mid_workload_crashes + report.quiescent_crashes;

  std::vector<std::string> violations;
  target.PauseFaults(true);
  target.Drain(&violations);
  target.PauseFaults(false);
  report.Record("drain", std::move(violations), options_.schedule.verbose);

  report.disk = target.disk_stats();
  report.manager = target.Stats();
  return report;
}

}  // namespace flashtier
