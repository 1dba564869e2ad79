// Counters for the tiny-object KV layer (DESIGN.md §5k).
//
// Determinism contract: every field is driven from a shard's sequential
// operation stream, Merge() is a plain field-wise sum, and merges happen in
// shard-index order — so the aggregated stats are bit-identical no matter
// how many replay threads drive the shards (replay_parallel asserts this
// with operator==).

#ifndef FLASHTIER_KV_KV_STATS_H_
#define FLASHTIER_KV_KV_STATS_H_

#include <cstdint>

#include "src/util/counters.h"

namespace flashtier {

struct KvStats {
  // ---- Host operations ----
  uint64_t gets = 0;
  uint64_t hits = 0;            // gets served (open slab or flash)
  uint64_t open_slab_hits = 0;  // subset of hits served from the open slab
  uint64_t misses = 0;
  uint64_t sets = 0;
  uint64_t set_bytes = 0;    // object bytes of admitted sets
  uint64_t overwrites = 0;   // sets that replaced a cached version
  uint64_t rejected_sets = 0;  // admission policy demoted the set to disk-only
  uint64_t sets_refused_full = 0;  // kNoSpace: nothing clean left to evict
  uint64_t deletes = 0;
  uint64_t delete_misses = 0;

  // ---- Slab machinery ----
  uint64_t slab_fills = 0;        // open slabs sealed to flash
  uint64_t slab_page_writes = 0;  // flash page writes those seals issued
  uint64_t compactions = 0;       // victim slabs compacted away
  uint64_t compaction_aborts = 0;  // compactions stopped early (no room)
  uint64_t slots_moved = 0;        // live slots relocated by compaction
  uint64_t slots_reclaimed = 0;    // dead slots whose space compaction freed
  uint64_t slab_evictions = 0;     // clean sealed slabs evicted for capacity
  uint64_t evicted_slots = 0;      // live slots those evictions dropped
  uint64_t dead_slab_reclaims = 0;  // fully-dead sealed slabs reclaimed
  uint64_t lazy_slab_drops = 0;  // silent eviction discovered on a Get miss
  uint64_t dropped_slots = 0;    // live slots those drops retired
  uint64_t slab_cleans = 0;      // dirty slabs handed back to silent eviction
  uint64_t backpressure_stalls = 0;  // bounded log-drain retries on the Set path
  uint64_t read_errors = 0;   // slab page reads that failed with a medium error
  uint64_t lost_objects = 0;  // dirty objects lost to medium errors (must be 0
                              // without fault injection)

  // ---- Crash recovery ----
  uint64_t recoveries = 0;
  uint64_t recovered_slots = 0;       // live slots whose slab page survived
  uint64_t restaged_dirty_slots = 0;  // dirty slots rebuilt from the log (G1)
  uint64_t dropped_clean_slots = 0;   // clean slots silently forgotten (G2)

  // Each field once, in declaration order (src/util/counters.h).
  static constexpr CounterField<KvStats> kFields[] = {
      {"gets", &KvStats::gets},
      {"hits", &KvStats::hits},
      {"open_slab_hits", &KvStats::open_slab_hits},
      {"misses", &KvStats::misses},
      {"sets", &KvStats::sets},
      {"set_bytes", &KvStats::set_bytes},
      {"overwrites", &KvStats::overwrites},
      {"rejected_sets", &KvStats::rejected_sets},
      {"sets_refused_full", &KvStats::sets_refused_full},
      {"deletes", &KvStats::deletes},
      {"delete_misses", &KvStats::delete_misses},
      {"slab_fills", &KvStats::slab_fills},
      {"slab_page_writes", &KvStats::slab_page_writes},
      {"compactions", &KvStats::compactions},
      {"compaction_aborts", &KvStats::compaction_aborts},
      {"slots_moved", &KvStats::slots_moved},
      {"slots_reclaimed", &KvStats::slots_reclaimed},
      {"slab_evictions", &KvStats::slab_evictions},
      {"evicted_slots", &KvStats::evicted_slots},
      {"dead_slab_reclaims", &KvStats::dead_slab_reclaims},
      {"lazy_slab_drops", &KvStats::lazy_slab_drops},
      {"dropped_slots", &KvStats::dropped_slots},
      {"slab_cleans", &KvStats::slab_cleans},
      {"backpressure_stalls", &KvStats::backpressure_stalls},
      {"read_errors", &KvStats::read_errors},
      {"lost_objects", &KvStats::lost_objects},
      {"recoveries", &KvStats::recoveries},
      {"recovered_slots", &KvStats::recovered_slots},
      {"restaged_dirty_slots", &KvStats::restaged_dirty_slots},
      {"dropped_clean_slots", &KvStats::dropped_clean_slots},
  };

  // Accumulates another shard's counters; callers merge in shard order.
  void Merge(const KvStats& o) { MergeCounters(*this, o); }

  double HitRate() const {
    return gets == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(gets);
  }

  friend bool operator==(const KvStats&, const KvStats&) = default;
};
static_assert(AllCountersListed<KvStats>(), "list every KvStats field in kFields");

}  // namespace flashtier

#endif  // FLASHTIER_KV_KV_STATS_H_
