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
// Memory: all policy state lives in structures with a fixed configured
// ceiling (an LruSet window's capacity, the sketch width), so MemoryUsage()
// cannot grow past it. InvariantChecker::CheckPolicy audits that every LBN in
// the recent-rejects window is absent from the SSC.

#ifndef FLASHTIER_POLICY_ADMISSION_POLICY_H_
#define FLASHTIER_POLICY_ADMISSION_POLICY_H_

#include <cstddef>
#include <cstdint>

#include "src/flash/types.h"
#include "src/policy/lru_set.h"
#include "src/util/counters.h"

namespace flashtier {

// The kind of cache insertion a manager is asking about. Only a read fill
// can count as regret; the decision itself does not tell the two apart.
enum class AdmissionOp : uint8_t {
  kReadFill,  // populate on a read miss (clean fill of disk data)
  kWrite,     // insertion of host data, clean or dirty
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

// Modeled bytes per window entry, charged for every LBN a policy's LruSet
// holds. A fixed charge, so a window's usage is entries x 44 B whatever the
// allocator does. It covers the set's own cost per entry, a 16-B entry plus
// two to four 4-B index slots, with room to spare.
inline constexpr size_t kWindowEntryBytes = 44;

class AdmissionPolicy {
 public:
  explicit AdmissionPolicy(size_t reject_ghost_entries)
      : reject_ghost_(reject_ghost_entries) {}
  virtual ~AdmissionPolicy() = default;

  // The decision. Detects regret (a read miss on a recently rejected block
  // would have been a hit had the block been admitted) before delegating to
  // the policy's Decide(). `resident` is the caller's best-effort "this block
  // is already cached" (the write-back manager's dirty table, the KV key map,
  // the check target's dirty shadow; false elsewhere). Each policy decides
  // what it means: ghost-lru and freq-sketch admit a resident write outright,
  // write-limit spends a token on it all the same.
  bool ShouldAdmit(Lbn lbn, AdmissionOp op, bool resident) {
    if (op == AdmissionOp::kReadFill && reject_ghost_.Contains(lbn)) {
      ++stats_.rejected_then_remissed;
    }
    return Decide(lbn, resident);
  }

  // Managers call this at the top of every application read/write — hit or
  // miss — so frequency-tracking policies see the full reference stream.
  virtual void OnAccess(Lbn) {}

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

  // Bytes of policy state, a window's at kWindowEntryBytes an entry.
  virtual size_t MemoryUsage() const { return reject_ghost_.size() * kWindowEntryBytes; }

  const PolicyStats& stats() const { return stats_; }
  // Recently rejected LBNs: the regret window, and the set the
  // rejected-block-absent audit checks against the SSC.
  const LruSet& recent_rejects() const { return reject_ghost_; }

 protected:
  virtual bool Decide(Lbn lbn, bool resident) = 0;

  PolicyStats stats_;
  LruSet reject_ghost_;
};

// The default: admit everything. The decision touches no device state and
// charges no time.
class AdmitAllPolicy final : public AdmissionPolicy {
 public:
  explicit AdmitAllPolicy(size_t reject_ghost_entries = kRejectGhostEntries)
      : AdmissionPolicy(reject_ghost_entries) {}

 protected:
  bool Decide(Lbn, bool) override { return true; }
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_ADMISSION_POLICY_H_
