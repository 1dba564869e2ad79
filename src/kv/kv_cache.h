// KvCache: a tiny-object key-value cache layered over the SSC
// (DESIGN.md §5k).
//
// Memcached-style objects are 64 B to 4 KB — far below the SSC's 4 KB page —
// so caching one object per flash page wastes most of every program. The KV
// layer packs objects into slabs instead: each shard keeps one *open slab* (a
// device-RAM staging buffer of `slab_pages` pages) that Sets append into;
// when the next object no longer fits, the slab is *sealed* — its pages are
// written to the shard's SscDevice in one pass (write-dirty if any packed
// object is dirty, write-clean otherwise) — and a fresh open slab starts.
// Slab sequence numbers are monotonic and never reused, and a slab's pages
// occupy the contiguous LBN range [seq * slab_pages, (seq+1) * slab_pages),
// so the slab address space is sparse exactly the way the SSC expects.
//
// The object directory is a single-level hash map: key -> (slab seq, slot).
// Per-slab metadata tracks each slot's offset, size, dirtiness and liveness.
// Deletes and overwrites mark slots dead; when a sealed slab's dead-byte
// fraction crosses the compaction threshold, its live slots are moved to the
// open slab (each move an atomic delete-old + insert-new record pair) and the
// slab's pages are evicted — the reclaimed space feeds the SSC's normal
// allocator. Clean sealed slabs are also silently evictable by the SSC's
// SE-GC; the KV layer discovers that lazily when a Get's page read returns
// not-present and retires the whole slab (a legal G2 miss).
//
// Durability rides the shard's existing persistence log: every slot insert or
// delete appends a kKvInsertSlot/kKvDeleteSlot record carrying the packed
// slot metadata (and, for an insert, the object's value token), and device
// checkpoints hold the kKvInsertSlot record of every live slot, after the
// SSC's own map records. The orderings mirror the
// SSC's own (RAM update inside an atomic batch, then the log append; dirty
// and overwrite records sync) so G1-G3 extend to objects:
//   G1: an acknowledged dirty Set survives a crash — its record is durable
//       before the ack, and recovery re-stages dirty objects whose slab never
//       reached flash into a fresh open slab.
//   G2: a clean Set is new-data-or-miss — never stale. A rejected or crash-
//       lost clean object becomes a miss, and a rejected Set of a resident
//       key evicts the stale cached copy.
//   G3: an acknowledged Delete stays deleted — its record commits
//       synchronously before the ack.

#ifndef FLASHTIER_KV_KV_CACHE_H_
#define FLASHTIER_KV_KV_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/kv/kv_stats.h"
#include "src/policy/admission_policy.h"
#include "src/policy/policy_factory.h"
#include "src/sparsemap/sparse_hash_map.h"
#include "src/ssc/shard.h"
#include "src/ssc/ssc_device.h"
#include "src/trace/kv_trace.h"
#include "src/util/status.h"

namespace flashtier {

inline constexpr uint32_t kKvPageBytes = 4096;
// Modeled per-slot on-flash overhead: key + size + slot CRC. Charged against
// slab capacity so the packing arithmetic is honest about metadata.
inline constexpr uint32_t kKvSlotHeaderBytes = 24;

// Bytes a slot of `size` object bytes occupies in a slab (8-byte aligned).
constexpr uint32_t KvSlotBytes(uint32_t size) {
  return kKvSlotHeaderBytes + ((size + 7u) & ~7u);
}

struct KvCacheConfig {
  uint32_t shards = 1;
  // Device template for every shard; `ssc.capacity_pages` is the *total*
  // across shards, sliced by ShardSscConfig as FlashTierSystem slices it, so
  // shard counts don't change the cache size.
  SscConfig ssc;
  // Admission control, consulted per object Set; split across shards by
  // MakeAdmissionPolicy so total policy memory matches the 1-shard config.
  PolicyConfig admission;
  // Slab packing on (the design) or off (the naive one-object-per-slab
  // baseline bench_ablation_kv compares against — every Set seals its own
  // slab, costing a full page program per object).
  bool packing = true;
  // Slab span in flash pages. Must divide the 64-page logical erase block so
  // a slab can never straddle the SSC's block-mapping / SE-GC grain.
  uint32_t slab_pages = 1;
};

// One object's slot inside a slab.
struct KvSlot {
  uint64_t key = 0;
  uint64_t token = 0;   // value identity, verified by tests / flashcheck
  uint32_t size = 0;    // object bytes
  uint32_t offset = 0;  // byte offset of the slot within the slab
  bool dirty = false;
  bool live = false;
};

// One slab: the append-ordered slots plus occupancy bookkeeping.
struct KvSlab {
  std::vector<KvSlot> slots;
  uint32_t used_bytes = 0;  // append frontier (dead slots included)
  uint32_t live_bytes = 0;
  uint32_t live_count = 0;
  uint32_t dirty_live = 0;
  bool sealed = false;
  bool dirty_written = false;  // sealed via write-dirty
  uint32_t pages_spanned = 0;  // pages actually written at seal time

  uint32_t dead_bytes() const { return used_bytes - live_bytes; }
};

// Sums over the sealed slabs of one shard: what the compaction trigger reads.
struct KvSealedTotals {
  uint64_t slabs = 0;
  uint64_t used_bytes = 0;
  uint64_t dead_bytes = 0;

  bool operator==(const KvSealedTotals&) const = default;
};

// One shard: a complete vertical KV slice — its own virtual clock, SscDevice,
// admission policy, open slab, slab directory and key map. Shards share no
// mutable state, so a shard's operation stream is a deterministic sequential
// computation no matter which replay thread drives it.
class KvShard {
 public:
  KvShard(const KvCacheConfig& config, uint32_t shard_index);

  // ---- The KV interface ----

  // Cache `key` -> `token` (`size` object bytes). Clean sets may be demoted
  // to disk-only by the admission policy (still kOk — the write went around
  // the cache); dirty sets of resident keys are always re-admitted.
  Status Set(uint64_t key, uint64_t token, uint32_t size, bool dirty);

  // Fetch a cached object, else kNotPresent. A page read that discovers a
  // silently evicted slab retires the slab's remaining slots (lazy drop).
  Status Get(uint64_t key, uint64_t* token_out);

  // Drop a cached object; the delete commits synchronously before returning
  // (the object analog of G3). kNotPresent if the key is not cached.
  Status Delete(uint64_t key);

  // Seals the open slab (if any) so every cached object is on flash; benches
  // call this before comparing flash-write counts.
  Status Flush();

  // ---- Crash simulation / recovery ----

  void SimulateCrash();
  Status Recover();

  // ---- Introspection ----

  const KvStats& stats() const { return stats_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  SscDevice& ssc() { return *ssc_; }
  const SscDevice& ssc() const { return *ssc_; }
  AdmissionPolicy& policy() { return *policy_; }
  const AdmissionPolicy& policy() const { return *policy_; }

  const std::map<uint64_t, KvSlab>& slabs() const { return slabs_; }
  const SparseHashMap<uint64_t, uint64_t>& key_map() const { return key_map_; }
  bool has_open_slab() const { return open_seq_ != kNoSlab; }
  uint64_t open_slab_seq() const { return open_seq_; }
  uint64_t next_slab_seq() const { return next_slab_seq_; }
  uint32_t slab_pages() const { return config_.slab_pages; }
  uint32_t slab_capacity_bytes() const { return slab_capacity_bytes_; }

  // The compaction index (kept incrementally; the invariant checker
  // recomputes both from the directory). The victim is the sealed slab with
  // the most dead bytes, ties to the lowest seq; kNoSlab if none has any.
  // PeekCompactionVictim finds the victim the heap holds by a scan that
  // leaves it untouched: the best current entry, which is where
  // CompactionVictim's popping stops.
  const KvSealedTotals& sealed_totals() const { return sealed_; }
  uint64_t PeekCompactionVictim() const;

  // ---- Location packing (shared with the invariant checker) ----

  static constexpr uint64_t kNoSlab = ~uint64_t{0};

  static uint64_t PackLoc(uint64_t seq, uint32_t slot) { return (seq << 16) | slot; }
  static uint64_t LocSeq(uint64_t packed) { return packed >> 16; }
  static uint32_t LocSlot(uint64_t packed) { return static_cast<uint32_t>(packed & 0xffff); }

  // Slot metadata as carried in the present_bits of KV slot records: slot
  // index, object size, slab byte offset, dirty flag.
  static uint64_t PackSlotMeta(uint32_t slot, uint32_t size, uint32_t offset, bool dirty) {
    return static_cast<uint64_t>(slot) | (static_cast<uint64_t>(size) << 16) |
           (static_cast<uint64_t>(offset) << 32) | (dirty ? uint64_t{1} << 63 : 0);
  }
  static uint32_t MetaSlot(uint64_t meta) { return static_cast<uint32_t>(meta & 0xffff); }
  static uint32_t MetaSize(uint64_t meta) { return static_cast<uint32_t>((meta >> 16) & 0xffff); }
  static uint32_t MetaOffset(uint64_t meta) {
    return static_cast<uint32_t>((meta >> 32) & 0xffff);
  }
  static bool MetaDirty(uint64_t meta) { return (meta >> 63) != 0; }

  Lbn SlabBaseLbn(uint64_t seq) const { return seq * config_.slab_pages; }

 private:
  // Content-independent token for a slab's page `page` — slab pages carry
  // packed objects, not a single block's data, so their identity is derived
  // from the (never reused) sequence number.
  static uint64_t SlabPageToken(uint64_t seq, uint32_t page) {
    return MixHash64((seq << 8) ^ page ^ 0x6b76736c6162ull);  // "kvslab"
  }

  // Bounded log-region admission: drain-and-retry before giving up with
  // kBackpressure (no state change on refusal).
  Status AdmitWithDrain();
  // Guarantees an open slab with room for `charge` bytes, sealing the
  // current one if needed. On failure no open slab state has changed.
  Status EnsureRoomFor(uint32_t charge);
  void CreateOpenSlab();
  // Writes the open slab's pages to the SSC. On terminal failure the slab
  // stays open (objects remain readable from RAM, dirty ones durable in the
  // log) and any partially written pages are evicted.
  Status SealOpenSlab();
  // Evicts the oldest clean sealed slab to make device room. False if every
  // sealed slab still holds dirty objects.
  bool EvictCleanSlab();
  // Retires every live slot of slab `seq` (key map and logged deletes in one
  // atomic batch), evicts its pages and erases the directory entry.
  // `slot_counter` accumulates the live slots retired.
  void DropSlab(uint64_t seq, uint64_t* slot_counter);
  void EvictSlabPages(uint64_t seq, uint32_t pages);
  // Marks `key`'s slot dead, unmaps it and appends the delete record.
  // Returns the slab seq the slot lived in (for quiescence handling).
  uint64_t InvalidateKey(uint64_t key, bool sync);
  // A sealed slab just lost live or dirty slots: reclaim it when fully dead,
  // or hand it to silent eviction when its last dirty object went away.
  void HandleSlabQuiescence(uint64_t seq);
  // Compacts when at least kCompactMinSealedSlabs slabs are sealed and their
  // dead bytes reach kCompactDeadRatio of their used bytes.
  static constexpr double kCompactDeadRatio = 0.50;
  static constexpr uint32_t kCompactMinSealedSlabs = 8;
  void MaybeCompact();
  Status CompactSlab(uint64_t victim_seq);

  // Compaction index upkeep. A sealed slab enters the totals when sealed
  // (IndexSealed), grows its dead bytes (IndexDeadGrew; a no-op for the open
  // slab) and leaves before its directory entry is erased (IndexErased).
  void IndexSealed(uint64_t seq, const KvSlab& slab);
  void IndexDeadGrew(uint64_t seq, const KvSlab& slab, uint32_t bytes);
  void IndexErased(const KvSlab& slab);
  void PushVictimCandidate(uint64_t seq, const KvSlab& slab);
  void RebuildVictimHeap();
  void RebuildCompactionIndex();
  // Pops stale heap tops and returns the victim (MaybeCompact only).
  uint64_t CompactionVictim();

  // The log record of slot `slot_idx` of slab `seq`: an insert carries the
  // value token, a delete none. Every slot record, logged or checkpointed,
  // is built here.
  static LogRecord SlotRecord(LogOpType type, uint64_t seq, uint32_t slot_idx,
                              const KvSlot& slot);

  // Appends the live slot directory's insert records to a checkpoint
  // (installed on the SSC).
  void SnapshotSlots(std::vector<LogRecord>* out) const;
  void ApplyRecoveredInsert(uint64_t key, uint64_t seq, uint64_t meta, uint64_t token);
  void ApplyRecoveredDelete(uint64_t key);

  KvCacheConfig config_;  // per-shard: ssc already sliced
  SimClock clock_;
  std::unique_ptr<SscDevice> ssc_;
  std::unique_ptr<AdmissionPolicy> policy_;

  // Slab directory. std::map: deterministic iteration order for checkpoint
  // snapshots, eviction scans and recovery reconciliation.
  std::map<uint64_t, KvSlab> slabs_;
  SparseHashMap<uint64_t, uint64_t> key_map_;  // key -> PackLoc(seq, slot)

  uint64_t next_slab_seq_ = 0;
  uint64_t open_seq_ = kNoSlab;
  uint32_t slab_capacity_bytes_ = kKvPageBytes;
  bool in_compaction_ = false;
  uint64_t compacting_seq_ = kNoSlab;  // shielded from capacity eviction

  // Compaction index. A sealed slab's live bytes never grow, so its dead
  // bytes only rise: a heap entry is current exactly while its slab is
  // sealed with that many dead bytes, and stale entries are discarded when
  // they surface. Slabs with no dead bytes have no entry (never a victim).
  struct VictimCandidate {
    uint32_t dead_bytes;
    uint64_t seq;
    // Heap order: most dead bytes on top, ties to the lowest seq.
    bool operator<(const VictimCandidate& o) const {
      return dead_bytes != o.dead_bytes ? dead_bytes < o.dead_bytes : seq > o.seq;
    }
  };
  bool IsCurrent(const VictimCandidate& c) const;
  KvSealedTotals sealed_;
  std::vector<VictimCandidate> victim_heap_;  // std:: heap algorithms, max on top

  KvStats stats_;
};

// The facade: routes each key to its shard (a pure function of the key) and
// aggregates per-shard metrics in shard order.
class KvCache {
 public:
  explicit KvCache(const KvCacheConfig& config);

  uint32_t ShardOf(uint64_t key) const { return router_.ShardOfKey(key); }

  Status Set(uint64_t key, uint64_t token, uint32_t size, bool dirty) {
    return shards_[ShardOf(key)]->Set(key, token, size, dirty);
  }
  Status Get(uint64_t key, uint64_t* token_out) {
    return shards_[ShardOf(key)]->Get(key, token_out);
  }
  Status Delete(uint64_t key) { return shards_[ShardOf(key)]->Delete(key); }

  // Seals every shard's open slab; returns the first error.
  Status Flush();

  void SimulateCrash();
  Status Recover();

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  KvShard& shard(uint32_t i) { return *shards_[i]; }
  const KvShard& shard(uint32_t i) const { return *shards_[i]; }

  // Cross-shard aggregates, merged in shard-index order.
  KvStats AggregateStats() const;
  PolicyStats AggregatePolicyStats() const;
  PersistStats AggregatePersistStats() const;
  FlashStats AggregateFlashStats() const;

  // Flash data-page writes per admitted set: the packing payoff metric
  // (EXPERIMENTS.md). Counts medium programs (seals, GC copies), not log
  // appends — those are accounted in PersistStats.
  double FlashWritesPerSet() const;

  const KvCacheConfig& config() const { return config_; }

 private:
  KvCacheConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<KvShard>> shards_;
};

}  // namespace flashtier

#endif  // FLASHTIER_KV_KV_CACHE_H_
