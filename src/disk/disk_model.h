// Analytic timing model of the disk tier.
//
// The paper's testbed backs the cache with a disk system in the ~few-hundred
// random IOPS class (Section 2 uses "a 500 IOPS disk system" as its example).
// We model one volume, a stripe of 7200 RPM-class drives, with seek +
// rotational + transfer components and sequential-access detection;
// requests are serviced in issue order.
//
// DiskGuard extends the model with a deterministic fault plan (latent sector
// errors, transient failures, slow-IO spikes; see disk_fault_plan.h) and
// Guarded* request variants that wrap each access in the bounded virtual-
// clock retry loop of retry_policy.h — the entry points the cache managers
// use, so every disk interaction in the system shares one retry/backoff/
// deadline discipline and one set of counters.

#ifndef FLASHTIER_DISK_DISK_MODEL_H_
#define FLASHTIER_DISK_DISK_MODEL_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/disk/disk_fault_plan.h"
#include "src/disk/retry_policy.h"
#include "src/flash/timing.h"
#include "src/flash/types.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace flashtier {

struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t busy_us = 0;

  // Fault injection and retry (DiskFaultPlan / RetryPolicy; DESIGN.md §5i).
  uint64_t read_faults = 0;     // transient read failures injected
  uint64_t write_faults = 0;    // transient write failures injected
  uint64_t latent_errors = 0;   // reads rejected by a latent (sticky) sector
  uint64_t latent_sectors = 0;  // latent sectors ever created
  uint64_t sector_repairs = 0;  // latent sectors healed by a successful write
  uint64_t slow_ios = 0;        // operations that took a latency spike
  uint64_t retries = 0;         // Guarded* re-attempts after a failure
  uint64_t timeouts = 0;        // Guarded* ops that exhausted their deadline

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<DiskStats> kFields[] = {
      {"reads", &DiskStats::reads},
      {"writes", &DiskStats::writes},
      {"busy_us", &DiskStats::busy_us},
      {"read_faults", &DiskStats::read_faults},
      {"write_faults", &DiskStats::write_faults},
      {"latent_errors", &DiskStats::latent_errors},
      {"latent_sectors", &DiskStats::latent_sectors},
      {"sector_repairs", &DiskStats::sector_repairs},
      {"slow_ios", &DiskStats::slow_ios},
      {"retries", &DiskStats::retries},
      {"timeouts", &DiskStats::timeouts},
  };

  // Accumulates another disk's counters (per-shard aggregation).
  void Merge(const DiskStats& o) { MergeCounters(*this, o); }

  friend bool operator==(const DiskStats&, const DiskStats&) = default;
};
static_assert(AllCountersListed<DiskStats>(), "list every DiskStats field in kFields");

class DiskModel {
 public:
  // The volume every system runs. Public so tests can compute expected costs.
  // Each 7200 RPM-class drive:
  static constexpr uint64_t kAvgSeekUs = 4200;      // average seek
  static constexpr uint64_t kTrackSeekUs = 600;     // short seek for near-sequential access
  static constexpr uint64_t kAvgRotationUs = 4167;  // half revolution at 7200 RPM
  static constexpr uint64_t kTransferUsPer4k = 30;  // ~130 MB/s media rate
  // Accesses within this many blocks of the previous end are "sequential":
  // no seek, no rotational delay beyond settle.
  static constexpr uint64_t kSeqWindowBlocks = 64;
  // Spindles in the striped volume. The paper's traces come from multi-disk
  // enterprise volumes (file/mail servers, data-center filers); under load,
  // requests spread across spindles, dividing effective service time. 1 is
  // the single-disk "500 IOPS disk system" of Section 2.
  static constexpr uint32_t kSpindles = 8;

  explicit DiskModel(SimClock* clock) : clock_(clock) {}

  // Content a block holds before anything is written to it; lets correctness
  // oracles predict cold reads without populating the whole disk.
  static uint64_t OriginalToken(Lbn lbn) { return lbn ^ 0xd15cc0409421ull; }

  // Reads one block; `token` (optional) receives its content identity.
  Status Read(Lbn lbn, uint64_t* token = nullptr);

  // Writes one block.
  Status Write(Lbn lbn, uint64_t token);

  // Writes `tokens.size()` consecutive blocks starting at `start` as one
  // sequential access (one seek) — the write-back manager's coalesced
  // cleaning path. Fails atomically: an injected write fault changes no
  // content.
  Status WriteRun(Lbn start, const std::vector<uint64_t>& tokens);

  // Retry-wrapped variants (retry_policy.h): a failed request backs off on
  // the virtual clock and re-attempts within the policy's attempt and
  // deadline bounds; a deadline kill returns kTimeout. Latent-sector reads
  // retry like any failure (a real controller cannot tell) and typically
  // exhaust the bound. These are the cache managers' entry points.
  Status GuardedRead(Lbn lbn, uint64_t* token = nullptr);
  Status GuardedWrite(Lbn lbn, uint64_t token);
  Status GuardedWriteRun(Lbn start, const std::vector<uint64_t>& tokens);

  const DiskStats& stats() const { return stats_; }

  // The disk's virtual clock (shared with the rest of its shard); lets
  // callers schedule virtual-time deadlines without holding the clock.
  uint64_t now_us() const { return clock_->now_us(); }

  // ---- DiskGuard fault plan ----

  // Installs (and arms) a fault plan; reseeds the fault RNG from plan.seed.
  void set_fault_plan(const DiskFaultPlan& plan) {
    faults_ = plan;
    fault_rng_ = Rng(plan.seed);
  }
  const DiskFaultPlan& fault_plan() const { return faults_; }

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Pauses new fault draws so checkers can sweep the disk without mutating
  // the fault schedule; sticky latent sectors stay unreadable (they are
  // media damage, not injection).
  void set_fault_injection_paused(bool paused) { fault_injection_paused_ = paused; }

  // True while `lbn` has a latent sector error (reads fail until a write
  // heals it). Cheap: one ordered-set lookup, gated on the latent count.
  bool IsLatent(Lbn lbn) const {
    return !latent_.empty() && latent_.count(lbn) != 0;
  }
  size_t latent_count() const { return latent_.size(); }
  // Snapshot of the latent sectors in ascending LBN order — the scrubber's
  // work list (deterministic iteration; std::set keeps it sorted).
  std::vector<Lbn> LatentSectors() const {
    return std::vector<Lbn>(latent_.begin(), latent_.end());
  }

 private:
  void Charge(Lbn lbn, uint32_t blocks, bool is_write);
  // Slow-IO draw for the operation with this all-ops ordinal; charges the
  // spike when it fires.
  void MaybeSlowIo(uint64_t op_ordinal);
  // Heals latent sectors covered by a successful write of [start, start+n).
  void RepairRange(Lbn start, uint32_t n);
  // The one retry loop behind the Guarded* entry points: runs `op` under a
  // RetrySession and counts retries and deadline kills.
  template <typename Op>
  Status Guarded(Op op);

  SimClock* clock_;  // not owned
  Lbn next_sequential_ = kInvalidLbn;
  std::unordered_map<Lbn, uint64_t> contents_;
  DiskStats stats_;

  DiskFaultPlan faults_;
  RetryPolicy retry_;
  Rng fault_rng_{1};
  bool fault_injection_paused_ = false;
  uint64_t read_ordinal_ = 0;   // reads issued while injection active
  uint64_t write_ordinal_ = 0;  // writes (WriteRun counts once) while active
  uint64_t op_ordinal_ = 0;     // all operations while active (slow-IO script)
  std::set<Lbn> latent_;        // ordered: LatentSectors() must be deterministic
};

}  // namespace flashtier

#endif  // FLASHTIER_DISK_DISK_MODEL_H_
