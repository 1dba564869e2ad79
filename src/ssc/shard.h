// Shard routing for the multi-channel SSC.
//
// Real flash packages expose parallelism per channel/plane that a single
// monolithic FTL cannot: independent dies program, erase and serve reads
// concurrently. We model that by partitioning the unified sparse address
// space into N independent shards — each shard owns its own sparse hash
// maps, block allocator, log region, group-commit state and silent-eviction
// GC (it is simply a complete SscDevice), the way a channel owns its dies.
//
// Routing is a pure function of the LBN so per-LBN request order is trivially
// preserved no matter how many replay threads drive the shards. The grain is
// one 256 KB logical erase block (64 × 4 KB pages): all pages of a logical
// block land on the same shard, so block-level mapping, switch merges and the
// write-back manager's contiguous-clean runs keep working within a shard.
// Hashing the block number (rather than striding it) spreads hot regions
// evenly — synthetic and real traces alike concentrate traffic in a few
// regions, which round-robin striping would pile onto adjacent shards.

#ifndef FLASHTIER_SSC_SHARD_H_
#define FLASHTIER_SSC_SHARD_H_

#include <cstdint>

#include "src/flash/types.h"
#include "src/sparsemap/sparse_hash_map.h"

namespace flashtier {

struct ShardRouter {
  // Pages per routing grain: one logical erase block, so a block-map entry
  // can never straddle shards.
  static constexpr uint32_t kGrainPages = 64;

  uint32_t shards = 1;

  uint32_t ShardOf(Lbn lbn) const {
    if (shards <= 1) {
      return 0;
    }
    return static_cast<uint32_t>(MixHash64(lbn / kGrainPages) % shards);
  }

  // Object-key routing for the KV layer (DESIGN.md §5k). Keys are opaque
  // identifiers with no spatial locality to preserve, so they hash at unit
  // grain; like ShardOf, the result is a pure function of the key, so
  // per-key order survives any thread count.
  uint32_t ShardOfKey(uint64_t key) const {
    if (shards <= 1) {
      return 0;
    }
    return static_cast<uint32_t>(MixHash64(key) % shards);
  }
};

}  // namespace flashtier

#endif  // FLASHTIER_SSC_SHARD_H_
