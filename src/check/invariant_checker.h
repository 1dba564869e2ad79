// FlashCheck invariant checker: on-demand audits of the cross-structure
// invariants FlashTier's consistency guarantees rest on.
//
// The SSC keeps the same information in several places at once — forward
// sparse maps, OOB reverse maps, per-block validity counters, the allocator's
// free lists, and the durable log/checkpoint — and guarantees G1-G3 only hold
// while those views agree. The checker walks all of them and reports every
// disagreement as a structured violation instead of asserting, so tests can
// distinguish "which invariant broke" and tools can print actionable reports.
//
// Checked invariant families (see DESIGN.md "Consistency invariants"):
//   * forward map <-> OOB reverse-map agreement (page- and block-level),
//   * presence/dirty bitmaps <-> block allocator and medium state,
//   * every erase block in exactly one of {free, log, data, dead},
//   * cached/dirty page counters match the maps,
//   * LSN monotonicity and checkpoint coverage in the PersistenceManager,
//   * dirty-table <-> SSC dirty-bit agreement for the write-back manager.
//
// All checks are read-only and run at quiescent points: between host
// operations, or from the SSC's audit hook (which fires at the end of any
// operation that ran a GC pass or wrote a checkpoint).

#ifndef FLASHTIER_CHECK_INVARIANT_CHECKER_H_
#define FLASHTIER_CHECK_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace flashtier {

class AdmissionPolicy;
class CacheManager;
class KvCache;
class KvShard;
class PersistenceManager;
class SscDevice;
class WriteBackManager;
struct ShardRouter;

// printf-style formatting into an exactly sized std::string, for violation
// details and report lines.
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

struct InvariantViolation {
  std::string invariant;  // stable identifier, e.g. "page-map.oob-lbn"
  std::string detail;     // human-readable specifics for this instance
};

struct CheckReport {
  // Individual assertions evaluated (not structures visited); a healthy
  // device still reports how much auditing happened.
  uint64_t checks_run = 0;
  // Total violations found. Only the first kMaxRecorded carry details in
  // `violations`, so a badly corrupted structure cannot OOM the report.
  uint64_t violation_count = 0;
  std::vector<InvariantViolation> violations;

  static constexpr size_t kMaxRecorded = 64;

  bool ok() const { return violation_count == 0; }
  void Add(std::string invariant, std::string detail);
  void Merge(CheckReport other);
  std::string ToString() const;
};

class InvariantChecker {
 public:
  // Audits the SSC's internal structures against each other and against the
  // flash medium, including its persistence manager.
  static CheckReport Check(const SscDevice& ssc);

  // Audits the write-back manager's dirty table against the SSC's dirty
  // bits (both directions), then audits the SSC itself.
  static CheckReport Check(const WriteBackManager& manager);

  // Generic entry point for any cache manager: dispatches to the write-back
  // audit when the manager keeps host-side dirty state; other managers have
  // no host structures to cross-check and report zero checks.
  static CheckReport Check(const CacheManager& manager);

  // Audits only the durability machinery: LSN monotonicity of the durable
  // log and the buffer, and checkpoint coverage.
  static CheckReport CheckPersistence(const PersistenceManager& pm);

  // Audits a sharded SSC: every shard individually, plus the cross-shard
  // partition invariant — each shard's maps may only hold LBNs the router
  // assigns to it, so the shards' address-space slices are provably
  // disjoint (no LBN can be cached, or go stale, in two places at once).
  static CheckReport CheckSharded(const std::vector<const SscDevice*>& shards,
                                  const ShardRouter& router);

  // Audits an admission policy (DESIGN.md §5f): its state must stay within
  // the configured memory bound, and — when the policy guards an SSC — every
  // LBN in its recent-rejects window must be absent from the SSC's maps (a
  // reject path either evicted the stale copy or found nothing cached, and
  // evicts are durable, so presence would mean the bypass leaked).
  static CheckReport CheckPolicy(const AdmissionPolicy& policy, const SscDevice* ssc);

  // Audits one KV shard (DESIGN.md §5k): key-map <-> live-slot bijection,
  // per-slab occupancy counters and slot geometry recomputed from the slots,
  // at most one open (unsealed) slab, sealed-dirty slabs' pages present and
  // dirty on the medium (clean slabs are exempt — SE-GC may silently drop
  // them; `faults_possible` additionally excuses pages an injected medium
  // fault destroyed), the compaction index (sealed-slab totals and victim)
  // against a full directory walk, the shard's admission-policy bounds and
  // rejected-key absence, and the underlying SscDevice's own structural
  // invariants.
  static CheckReport CheckKv(const KvShard& shard, bool faults_possible = false);

  // Audits every shard of a KvCache plus the cross-shard partition
  // invariant: a shard's key map may only hold keys the router assigns to it.
  static CheckReport CheckKv(const KvCache& cache, bool faults_possible = false);

 private:
  static CheckReport CheckSscOnly(const SscDevice& ssc);
  static bool SscHolds(const SscDevice& ssc, uint64_t lbn);
  // Medium view of one slab page for the KV audit: whether `lbn` is present
  // in the SSC's maps and its dirty bit.
  static void SscPageState(const SscDevice& ssc, uint64_t lbn, bool* present, bool* dirty);
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_INVARIANT_CHECKER_H_
