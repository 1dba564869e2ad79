// The per-shard replay loop both engines run (ReplayEngine, KvReplayEngine).
//
// A block replay and a KV replay differ only in their record type and in the
// step that serves one request. Everything around that step is here, once:
//   * routing and the shard schedule (src/core/shard_scheduler.h);
//   * the request bracket on the shard's virtual clock (OpenLoopQueue): a
//     request is submitted when one of the `queue_depth` slots frees, its
//     latency is submit to completion, so percentiles include queueing delay,
//     and the measured phase lasts from the first measured submit to the last
//     completion. At depth 1 each request is submitted when the previous one
//     completes, so its latency is the virtual time charged while serving it.
//     Records before the warmup cut are served but not measured;
//   * the merge in shard-index order: counters and histograms sum, and the
//     per-shard clocks merge by max-epoch (the channels ran in parallel, so
//     the measured phase lasts as long as its slowest shard). Every
//     virtual-time metric is therefore bit-identical at any thread count;
//   * the host fields: wall-clock time, workers, shards and depth.
//
// An engine hands the loop a server with
//   uint32_t shard_count() const;
//   uint32_t ShardOf(const Record&) const;  a pure function of the record
//   SimClock& Clock(uint32_t shard);
//   bool Serve(uint32_t shard, const Record&, uint64_t seq, bool measured,
//              Metrics& shard_metrics);     false when the request failed
//   void Finish(Metrics& merged);           after the merge, on the caller's
//                                           thread, inside the wall clock
// `seq` is the record's global trace position, so it does not depend on the
// partitioning. Serve touches nothing but its shard and `shard_metrics`, so
// a shard's replay is the same computation on any worker.

#ifndef FLASHTIER_CORE_SHARD_REPLAY_H_
#define FLASHTIER_CORE_SHARD_REPLAY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/open_loop.h"
#include "src/core/shard_scheduler.h"
#include "src/flash/timing.h"
#include "src/trace/trace.h"
#include "src/util/stats.h"

namespace flashtier {

// What the loop measures; both engines' metrics extend it.
struct RequestMetrics {
  uint64_t requests = 0;         // measured
  uint64_t warmup_requests = 0;  // replayed before measurement began
  uint64_t failed_requests = 0;  // the serve step reported an error
  uint64_t elapsed_us = 0;       // virtual time spent in the measured phase
                                 // (sharded: max-epoch across shard clocks)
  LatencyHistogram response_us;

  // Host-side wall clock for the whole replay (warmup included) and the
  // shape that produced it. Unlike every field above, wall_clock_us is real
  // time: it varies run to run and across thread counts — it is the number
  // the parallel engine exists to shrink.
  uint64_t wall_clock_us = 0;
  uint32_t threads = 1;
  uint32_t shards = 1;
  uint32_t queue_depth = 1;  // host requests in flight per shard

  double Iops() const {
    return elapsed_us == 0 ? 0.0
                           : static_cast<double>(requests) * 1e6 /
                                 static_cast<double>(elapsed_us);
  }
  double MeanResponseUs() const { return response_us.mean(); }
  // Replayed requests (measured + warmup) per wall-clock second.
  double ReplayOpsPerSec() const {
    return wall_clock_us == 0 ? 0.0
                              : static_cast<double>(requests + warmup_requests) * 1e6 /
                                    static_cast<double>(wall_clock_us);
  }

  // Accumulates one shard's virtual-time metrics.
  void Merge(const RequestMetrics& shard) {
    requests += shard.requests;
    warmup_requests += shard.warmup_requests;
    failed_requests += shard.failed_requests;
    elapsed_us = std::max(elapsed_us, shard.elapsed_us);
    response_us.Merge(shard.response_us);
  }
};

// Replays shard `i`'s requests through `server`, bracketing each on the
// shard's clock, into `m`.
template <typename Metrics, typename Record, typename Server>
void ReplayShard(Server& server, const ShardQueues<Record>& queues, uint32_t i,
                 uint32_t queue_depth, uint64_t warmup, Metrics& m) {
  OpenLoopQueue loop(&server.Clock(i), queue_depth);
  OpenLoopSpan span;
  queues.ForEach(i, [&](const Record& record, uint64_t seq) {
    const bool measured = seq >= warmup;
    const uint64_t start_us = loop.Begin();
    if (!server.Serve(i, record, seq, measured, m)) {
      ++m.failed_requests;
    }
    const uint64_t latency_us = loop.End(start_us);
    if (!measured) {
      ++m.warmup_requests;
      return;
    }
    ++m.requests;
    m.response_us.Add(latency_us);
    span.Add(start_us, latency_us);
  });
  loop.Drain();
  m.elapsed_us = span.ElapsedUs();
}

// Replays `source` through `server` on `threads` workers at `queue_depth`
// requests in flight per shard, the first `warmup` of them unmeasured;
// returns the merged metrics and leaves the source rewound.
template <typename Metrics, typename Record, typename Server>
Metrics ReplayOnShards(RecordSource<Record>& source, Server& server, uint32_t threads,
                       uint32_t queue_depth, uint64_t warmup = 0) {
  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_start = std::chrono::steady_clock::now();
  const uint32_t shards = server.shard_count();
  const auto shard_of = [&server](const Record& record) { return server.ShardOf(record); };
  const ShardQueues<Record> queues(source, shards, threads, shard_of);
  std::vector<Metrics> runs(shards);
  ForEachShardOnWorkers(queues.Sizes(), threads, [&](uint32_t i) {
    ReplayShard(server, queues, i, queue_depth, warmup, runs[i]);
  });
  Metrics merged;
  for (const Metrics& run : runs) {
    merged.Merge(run);
  }
  server.Finish(merged);
  // flashlint: allow(wall-clock): host-side throughput measurement
  const auto wall_end = std::chrono::steady_clock::now();
  merged.wall_clock_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start).count());
  merged.threads = WorkerCount(shards, threads);
  merged.shards = shards;
  merged.queue_depth = std::max<uint32_t>(1, queue_depth);
  source.Rewind();
  return merged;
}

}  // namespace flashtier

#endif  // FLASHTIER_CORE_SHARD_REPLAY_H_
