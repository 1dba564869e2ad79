// FlashCheck for the KV layer (flashcheck --kv).
//
// The KvCache extends the SSC's consistency contract from 4 KB blocks to
// packed tiny objects (DESIGN.md §5k): a dirty Set is durable when it
// returns (G1), a clean Set reads back new-or-miss — never stale (G2), and
// an acknowledged Delete stays deleted (G3). This harness turns those
// sentences into checked properties the same way the block-layer explorer
// does: a deterministic mixed object workload (dirty/clean sets over skewed
// keys, gets, deletes, flushes) runs once to count every durability commit
// point it crosses, then once per point with a simulated power failure
// injected there. After each crash every shard recovers and the cache is
// verified against a shadow model of all *acknowledged* operations, swept
// key by key, plus the structural InvariantChecker::CheckKv audit (key-map
// bijection, slab occupancy, medium agreement) and crash-during-recovery
// trials at every RecoveryPoint boundary.
//
// With soak cycles requested the harness switches to a crash-storm soak: one
// long-lived KvCache survives N seeded crash → recover → verify → resume
// cycles with the shadow model carried across cycles, so corruption that
// survives one recovery is given every chance to compound. Both modes are
// the engine's drivers (src/check/engine.h) over the KV target.
//
// Both modes compose with the rest of the flashcheck matrix: --faults
// (deterministic medium faults; objects whose slab pages a fault destroyed
// may be missing but must never read stale), --shards=N (object-key-hash
// partitioned shards, power fails all at once), and --admission (per-shard
// policies; a rejected Set's bypass eviction must keep G2, and no recently
// rejected key may resurface from recovery).

#ifndef FLASHTIER_CHECK_KV_CHECK_H_
#define FLASHTIER_CHECK_KV_CHECK_H_

#include <cstdint>
#include <string>

#include "src/check/engine.h"
#include "src/kv/kv_stats.h"

namespace flashtier {

struct KvCheckOptions {
  // `device.capacity_pages` is the total across shards, exactly like
  // KvCacheConfig; small capacity forces seals, evictions and compaction.
  DeviceShape device;
  bool packing = true;
  uint32_t slab_pages = 1;
  // The scripted workload runs `schedule.ops` operations over `keys` object
  // keys, half the traffic on a hot eighth so overwrite/delete paths are
  // exercised. `schedule.cycles` > 0 switches from per-point exploration to
  // that many soak cycles on one long-lived cache.
  CrashSchedule schedule;
  uint64_t keys = 512;
};

struct KvCheckReport : CycleReport {
  bool soak = false;  // which mode produced this report
  uint64_t ops_executed = 0;

  // KV aggregate and faults merged across shards, after the baseline trial
  // (explorer) or the last cycle (soak), snapshotted before the verification
  // sweep pollutes the get and read-corruption counters.
  KvStats kv;
  FaultStats faults;

  bool ok() const { return violation_count == 0 && budget_exceeded == 0; }
  std::string ToString() const;
  std::string ToJson() const;
};

class KvCheckHarness {
 public:
  explicit KvCheckHarness(const KvCheckOptions& options);

  // Dispatches on schedule.cycles: 0 = commit-point exploration, else soak.
  KvCheckReport Run();

 private:
  KvCheckOptions options_;
};

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_KV_CHECK_H_
