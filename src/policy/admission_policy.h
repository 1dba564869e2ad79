// Admission control for the flash cache (DESIGN.md §5f).
//
// FlashTier's managers admit every read miss and every write into the cache,
// which maximizes hit rate but also maximizes flash writes — the resource the
// wear results (Table 5) show is the scarce one. An AdmissionPolicy sits in
// front of every cache insertion and may demote it to disk-only
// pass-through: the request still completes (the data lands on disk and any
// stale cached copy is evicted), the flash page write simply never happens.
//
// Determinism contract: a policy instance is owned by exactly one shard and
// is only driven from that shard's sequential operation stream, so — like
// every other per-shard structure — its decisions and counters are
// bit-identical no matter how many replay threads drive the system. Policies
// must not consult wall-clock time or unseeded randomness; the
// WriteRateLimiter reads its shard's *virtual* clock.
//
// Memory contract: all policy state lives in structures with a fixed
// configured ceiling (GhostTable capacity, sketch width). MemoryUsage() must
// never exceed MemoryBound(); InvariantChecker::CheckPolicy audits this, and
// also that every LBN in the recent-rejects window is absent from the SSC.

#ifndef FLASHTIER_POLICY_ADMISSION_POLICY_H_
#define FLASHTIER_POLICY_ADMISSION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/flash/types.h"
#include "src/policy/ghost_table.h"
#include "src/util/counters.h"

namespace flashtier {

// The kind of cache insertion a manager is asking about.
enum class AdmissionOp : uint8_t {
  kReadFill,    // populate on a read miss (clean fill of disk data)
  kWriteClean,  // write-through insertion of host data
  kWriteDirty,  // write-back allocation of host data
};

struct AdmissionContext {
  // Best-effort "the manager believes this block is already cached": the
  // write-back manager knows its dirty-resident blocks, the native manager
  // its table hits; the write-through manager keeps no host state and always
  // reports false. Overwrites of resident data are usually worth admitting —
  // rejecting one forces an eviction of the cached copy.
  bool resident = false;
};

struct PolicyStats {
  uint64_t admits = 0;        // insertions the policy let into flash
  uint64_t rejects = 0;       // insertions demoted to disk-only pass-through
  uint64_t ghost_hits = 0;    // admissions earned by ghost/sketch history
  // Read misses on recently rejected blocks — each one is a hit the policy
  // traded away ("regret"); the window is the bounded recent-rejects table.
  uint64_t rejected_then_remissed = 0;
  uint64_t flash_writes_saved = 0;  // page writes the rejects avoided

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<PolicyStats> kFields[] = {
      {"admits", &PolicyStats::admits},
      {"rejects", &PolicyStats::rejects},
      {"ghost_hits", &PolicyStats::ghost_hits},
      {"rejected_then_remissed", &PolicyStats::rejected_then_remissed},
      {"flash_writes_saved", &PolicyStats::flash_writes_saved},
  };

  void Merge(const PolicyStats& o) { MergeCounters(*this, o); }

  friend bool operator==(const PolicyStats&, const PolicyStats&) = default;
};
static_assert(AllCountersListed<PolicyStats>(), "list every PolicyStats field in kFields");

// Recently rejected LBNs a one-shard system's policy remembers, for the
// regret counter and the rejected-block-absent audit (MakeAdmissionPolicy
// splits the window across shards).
inline constexpr uint32_t kRejectGhostEntries = 4096;

class AdmissionPolicy {
 public:
  explicit AdmissionPolicy(size_t reject_ghost_entries)
      : reject_ghost_(reject_ghost_entries) {}
  virtual ~AdmissionPolicy() = default;

  // The decision. Detects regret (a read miss on a recently rejected block
  // would have been a hit had the block been admitted) before delegating to
  // the policy's Decide().
  bool ShouldAdmit(Lbn lbn, AdmissionOp op, const AdmissionContext& ctx) {
    if (op == AdmissionOp::kReadFill && reject_ghost_.Contains(lbn)) {
      ++stats_.rejected_then_remissed;
    }
    return Decide(lbn, op, ctx);
  }

  // Managers call this at the top of every application read/write — hit or
  // miss — so frequency-tracking policies see the full reference stream.
  virtual void OnAccess(Lbn lbn, bool is_write) {
    (void)lbn;
    (void)is_write;
  }

  // Managers call this when they evict a block (explicit eviction or LRU
  // replacement). Silent evictions inside the SSC are not visible here.
  virtual void OnEvict(Lbn lbn) { (void)lbn; }

  // Managers call exactly one of these after acting on a ShouldAdmit answer:
  // OnAdmit once the insertion completed, OnReject once the bypass did.
  void OnAdmit(Lbn lbn) {
    ++stats_.admits;
    reject_ghost_.Erase(lbn);
  }
  void OnReject(Lbn lbn) {
    ++stats_.rejects;
    ++stats_.flash_writes_saved;
    reject_ghost_.Touch(lbn);
  }

  virtual std::string_view name() const = 0;

  // Actual bytes of policy state vs. the configured ceiling (audited).
  virtual size_t MemoryUsage() const { return reject_ghost_.MemoryUsage(); }
  virtual size_t MemoryBound() const { return reject_ghost_.MemoryBound(); }

  const PolicyStats& stats() const { return stats_; }
  // Recently rejected LBNs: the regret window, and the set the
  // rejected-block-absent audit checks against the SSC.
  const GhostTable& recent_rejects() const { return reject_ghost_; }

 protected:
  virtual bool Decide(Lbn lbn, AdmissionOp op, const AdmissionContext& ctx) = 0;

  PolicyStats stats_;
  GhostTable reject_ghost_;
};

// The default: admit everything. The decision touches no device state and
// charges no time.
class AdmitAllPolicy final : public AdmissionPolicy {
 public:
  explicit AdmitAllPolicy(size_t reject_ghost_entries = kRejectGhostEntries)
      : AdmissionPolicy(reject_ghost_entries) {}

  std::string_view name() const override { return "admit-all"; }

 protected:
  bool Decide(Lbn, AdmissionOp, const AdmissionContext&) override { return true; }
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_ADMISSION_POLICY_H_
