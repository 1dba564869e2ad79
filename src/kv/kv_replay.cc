#include "src/kv/kv_replay.h"

namespace flashtier {

namespace {

// Value identity for the `seq`-th trace record's Set: a pure function of
// (key, seq), so tokens do not depend on sharding or thread count.
uint64_t SetToken(uint64_t key, uint64_t seq) {
  return MixHash64(key ^ (seq * 0x9e3779b97f4a7c15ull) ^ 0x6b76746f6bull);  // "kvtok"
}

bool IsFailure(Status st) {
  return !IsOk(st) && st != Status::kNotPresent;
}

// KvReplayEngine's side of the shard loop (src/core/shard_replay.h).
struct KvServer {
  KvCache* cache;
  bool dirty_sets;

  uint32_t shard_count() const { return cache->shard_count(); }
  uint32_t ShardOf(const KvTraceRecord& record) const { return cache->ShardOf(record.key); }
  SimClock& Clock(uint32_t i) { return cache->shard(i).clock(); }

  bool Serve(uint32_t i, const KvTraceRecord& record, uint64_t seq, bool, KvReplayMetrics&) {
    KvShard& shard = cache->shard(i);
    Status st = Status::kOk;
    switch (record.op) {
      case KvOp::kGet: {
        uint64_t token = 0;
        st = shard.Get(record.key, &token);
        break;
      }
      case KvOp::kSet:
        st = shard.Set(record.key, SetToken(record.key, seq), record.size, dirty_sets);
        break;
      case KvOp::kDelete:
        st = shard.Delete(record.key);
        break;
    }
    return !IsFailure(st);
  }

  void Finish(KvReplayMetrics& metrics) {
    if (IsFailure(cache->Flush())) {
      ++metrics.failed_requests;
    }
    metrics.kv = cache->AggregateStats();
    metrics.policy = cache->AggregatePolicyStats();
    metrics.persist = cache->AggregatePersistStats();
    metrics.flash = cache->AggregateFlashStats();
    metrics.flash_writes_per_set = cache->FlashWritesPerSet();
  }
};

}  // namespace

KvReplayMetrics KvReplayEngine::Run(KvTraceSource& source) {
  KvServer server{cache_, options_.dirty_sets};
  return ReplayOnShards<KvReplayMetrics>(source, server, options_.threads, options_.queue_depth);
}

}  // namespace flashtier
