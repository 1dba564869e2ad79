// Tests for the sharded system + parallel replay engine: virtual-time
// metrics must be bit-identical no matter how many worker threads replay a
// sharded system, the stale-read oracle must stay clean, and the recovered
// shard partition must pass the structural invariant audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/core/flashtier.h"
#include "src/core/replay.h"
#include "src/core/shard_scheduler.h"
#include "src/kv/kv_cache.h"
#include "src/kv/kv_replay.h"
#include "src/trace/workload.h"
#include "src/util/json.h"

namespace flashtier {

// A failed whole-struct comparison prints each side as its JSON block.
template <typename Stats, typename = decltype(Stats::kFields)>
std::ostream& operator<<(std::ostream& os, const Stats& stats) {
  return os << JsonLine().Counters(stats).Finish();
}

namespace {

WorkloadProfile TestProfile() {
  WorkloadProfile p;
  p.name = "parallel-test";
  p.range_blocks = 400'000;
  p.unique_blocks = 12'000;
  p.full_unique_blocks = 12'000;
  p.total_ops = 30'000;
  p.write_fraction = 0.6;
  p.seed = 11;
  return p;
}

// Reads all of `source` into memory and rewinds it.
template <typename Record, typename Source>
std::vector<Record> ReadAll(Source& source) {
  std::vector<Record> records;
  Record record;
  while (source.Next(&record)) {
    records.push_back(record);
  }
  source.Rewind();
  return records;
}

struct ShardedRun {
  ReplayMetrics metrics;
  ManagerStats manager;
  FtlStats ftl;
  FlashStats flash;
  PolicyStats policy;
  DiskStats disk;
  PersistStats persist;
  FaultStats faults;
};

// Fresh system + fresh workload per run: only `threads` varies. When
// `detach_policies` is set, every shard's manager has its admission policy
// unwired after construction — that is exactly the pre-policy code path, so
// comparing it against a default admit-all run proves the default is
// bit-identical to the seed system. `source` replaces the test workload's
// generator.
ShardedRun RunWith(uint32_t shards, uint32_t threads, SystemType type,
                   const PolicyConfig& admission = PolicyConfig{},
                   bool detach_policies = false, uint32_t queue_depth = 1,
                   TraceSource* source = nullptr) {
  SystemConfig config;
  config.type = type;
  config.cache_pages = 8192;
  config.shards = shards;
  config.admission = admission;
  FlashTierSystem system(config);
  if (detach_policies) {
    for (uint32_t i = 0; i < system.shard_count(); ++i) {
      system.shard(i).manager->set_admission_policy(nullptr);
    }
  }
  SyntheticWorkload workload(TestProfile());
  ReplayEngine::Options opts;
  opts.warmup_fraction = 0.15;
  opts.verify = true;
  opts.threads = threads;
  opts.queue_depth = queue_depth;
  ReplayEngine engine(&system, opts);
  ShardedRun run;
  run.metrics = engine.Run(source != nullptr ? *source : workload);
  run.manager = system.AggregateManagerStats();
  run.ftl = system.AggregateFtlStats();
  run.flash = system.AggregateFlashStats();
  run.policy = system.AggregatePolicyStats();
  run.disk = system.AggregateDiskStats();
  run.persist = system.AggregatePersistStats();
  run.faults = system.AggregateFaultStats();
  return run;
}

void ExpectVirtualTimeEqual(const ShardedRun& a, const ShardedRun& b) {
  EXPECT_EQ(a.metrics.requests, b.metrics.requests);
  EXPECT_EQ(a.metrics.warmup_requests, b.metrics.warmup_requests);
  EXPECT_EQ(a.metrics.reads, b.metrics.reads);
  EXPECT_EQ(a.metrics.writes, b.metrics.writes);
  EXPECT_EQ(a.metrics.elapsed_us, b.metrics.elapsed_us);
  EXPECT_EQ(a.metrics.stale_reads, b.metrics.stale_reads);
  EXPECT_EQ(a.metrics.failed_requests, b.metrics.failed_requests);
  EXPECT_EQ(a.metrics.read_errors, b.metrics.read_errors);
  EXPECT_TRUE(a.metrics.response_us == b.metrics.response_us);
  EXPECT_EQ(a.metrics.Iops(), b.metrics.Iops());
  EXPECT_EQ(a.metrics.MeanResponseUs(), b.metrics.MeanResponseUs());
  // Device-side work must match too, not just the request-level view: every
  // counter of every layer.
  EXPECT_EQ(a.manager, b.manager);
  EXPECT_EQ(a.ftl, b.ftl);
  EXPECT_EQ(a.flash, b.flash);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.disk, b.disk);
  EXPECT_EQ(a.persist, b.persist);
  EXPECT_EQ(a.faults, b.faults);
}

TEST(ParallelReplayTest, VirtualMetricsIdenticalAcrossThreadCounts) {
  const ShardedRun t1 = RunWith(8, 1, SystemType::kSscWriteBack);
  const ShardedRun t4 = RunWith(8, 4, SystemType::kSscWriteBack);
  const ShardedRun t8 = RunWith(8, 8, SystemType::kSscWriteBack);
  ASSERT_EQ(t1.metrics.stale_reads, 0u);
  ASSERT_GT(t1.metrics.requests, 0u);
  EXPECT_EQ(t1.metrics.threads, 1u);
  EXPECT_EQ(t4.metrics.threads, 4u);
  EXPECT_EQ(t8.metrics.threads, 8u);
  EXPECT_EQ(t8.metrics.shards, 8u);
  ExpectVirtualTimeEqual(t1, t4);
  ExpectVirtualTimeEqual(t1, t8);
}

// flashbench replays traces it holds in memory, which the scheduler routes in
// place; a generator is read into an owned copy first. Both must replay
// identically at every thread count.
TEST(ParallelReplayTest, InMemoryTraceReplaysLikeStreamedOne) {
  SyntheticWorkload generator(TestProfile());
  VectorTrace trace(ReadAll<TraceRecord>(generator));
  for (const uint32_t threads : {1u, 4u, 8u}) {
    const ShardedRun streamed = RunWith(8, threads, SystemType::kSscWriteBack);
    const ShardedRun in_memory =
        RunWith(8, threads, SystemType::kSscWriteBack, PolicyConfig{}, false, 1, &trace);
    ASSERT_EQ(streamed.metrics.stale_reads, 0u);
    ASSERT_GT(streamed.metrics.warmup_requests, 0u);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectVirtualTimeEqual(streamed, in_memory);
  }
}

// Open-loop queue-depth-8 replay: the virtual-time metrics — including the
// new latency percentiles — are still a pure function of the shard streams,
// so 1, 4 and 8 worker threads must agree bit for bit.
TEST(ParallelReplayTest, OpenLoopMetricsIdenticalAcrossThreadCounts) {
  const PolicyConfig admission;
  const ShardedRun t1 =
      RunWith(8, 1, SystemType::kSscWriteBack, admission, false, /*queue_depth=*/8);
  const ShardedRun t4 =
      RunWith(8, 4, SystemType::kSscWriteBack, admission, false, /*queue_depth=*/8);
  const ShardedRun t8 =
      RunWith(8, 8, SystemType::kSscWriteBack, admission, false, /*queue_depth=*/8);
  ASSERT_EQ(t1.metrics.stale_reads, 0u);
  ASSERT_GT(t1.metrics.requests, 0u);
  EXPECT_EQ(t1.metrics.queue_depth, 8u);
  ExpectVirtualTimeEqual(t1, t4);
  ExpectVirtualTimeEqual(t1, t8);
  for (const double p : {50.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(t1.metrics.response_us.PercentileUs(p), t4.metrics.response_us.PercentileUs(p));
    EXPECT_EQ(t1.metrics.response_us.PercentileUs(p), t8.metrics.response_us.PercentileUs(p));
  }
}

// Queue depth changes request *timing*, never request *semantics*: the FTL
// state machines execute in issue order either way, so every request and
// device counter matches the depth-1 run exactly, while overlap shrinks the
// measured elapsed time.
TEST(ParallelReplayTest, OpenLoopPreservesStateAndShrinksElapsed) {
  const PolicyConfig admission;
  const ShardedRun d1 = RunWith(8, 4, SystemType::kSscWriteBack);
  const ShardedRun d8 =
      RunWith(8, 4, SystemType::kSscWriteBack, admission, false, /*queue_depth=*/8);
  EXPECT_EQ(d1.metrics.requests, d8.metrics.requests);
  EXPECT_EQ(d1.metrics.reads, d8.metrics.reads);
  EXPECT_EQ(d1.metrics.writes, d8.metrics.writes);
  EXPECT_EQ(d1.metrics.stale_reads, d8.metrics.stale_reads);
  EXPECT_EQ(d1.metrics.failed_requests, d8.metrics.failed_requests);
  EXPECT_EQ(d1.manager.read_hits, d8.manager.read_hits);
  EXPECT_EQ(d1.manager.read_misses, d8.manager.read_misses);
  EXPECT_EQ(d1.manager.writebacks, d8.manager.writebacks);
  EXPECT_EQ(d1.ftl.gc_invocations, d8.ftl.gc_invocations);
  EXPECT_EQ(d1.flash.page_writes, d8.flash.page_writes);
  EXPECT_EQ(d1.flash.erases, d8.flash.erases);
  EXPECT_EQ(d1.metrics.queue_depth, 1u);
  EXPECT_EQ(d8.metrics.queue_depth, 8u);
  ASSERT_GT(d1.metrics.elapsed_us, 0u);
  EXPECT_LT(d8.metrics.elapsed_us, d1.metrics.elapsed_us);
  EXPECT_GT(d8.metrics.Iops(), d1.metrics.Iops());
}

TEST(ParallelReplayTest, WriteThroughAlsoDeterministic) {
  const ShardedRun t1 = RunWith(4, 1, SystemType::kSscRWriteThrough);
  const ShardedRun t4 = RunWith(4, 4, SystemType::kSscRWriteThrough);
  ASSERT_EQ(t1.metrics.stale_reads, 0u);
  ExpectVirtualTimeEqual(t1, t4);
}

// Disk-fault injection must honor the same determinism contract: each
// shard's disk draws faults from its own seeded stream, keyed only by that
// shard's operation order, so every fault/retry/timeout counter — and the
// virtual time the retries burn — is bit-identical at any thread count.
TEST(ParallelReplayTest, DiskFaultCountersIdenticalAcrossThreadCounts) {
  auto run_with_faults = [](uint32_t threads) {
    SystemConfig config;
    config.type = SystemType::kSscWriteBack;
    config.cache_pages = 8192;
    config.shards = 8;
    config.disk_faults.enabled = true;
    config.disk_faults.read_fail_prob = 0.01;
    config.disk_faults.write_fail_prob = 0.02;
    config.disk_faults.latent_prob = 0.002;
    config.disk_faults.slow_io_prob = 0.01;
    FlashTierSystem system(config);
    SyntheticWorkload workload(TestProfile());
    ReplayEngine::Options opts;
    opts.warmup_fraction = 0.15;
    opts.verify = true;
    opts.threads = threads;
    ReplayEngine engine(&system, opts);
    const ReplayMetrics metrics = engine.Run(workload);
    return std::make_tuple(metrics.elapsed_us, metrics.stale_reads, metrics.failed_requests,
                           system.AggregateDiskStats(), system.AggregateManagerStats());
  };
  const auto t1 = run_with_faults(1);
  const auto t4 = run_with_faults(4);
  const auto t8 = run_with_faults(8);
  EXPECT_EQ(std::get<1>(t1), 0u);  // faults refuse honestly, never corrupt
  const DiskStats& d1 = std::get<3>(t1);
  EXPECT_GT(d1.read_faults + d1.write_faults + d1.latent_errors, 0u);
  EXPECT_GT(d1.retries, 0u);
  for (const auto* other : {&t4, &t8}) {
    EXPECT_EQ(std::get<0>(t1), std::get<0>(*other));
    EXPECT_EQ(std::get<1>(t1), std::get<1>(*other));
    EXPECT_EQ(std::get<2>(t1), std::get<2>(*other));
    EXPECT_EQ(d1, std::get<3>(*other));
    EXPECT_EQ(std::get<4>(t1), std::get<4>(*other));
  }
}

// Every admission policy must honor the determinism contract: per-shard
// instances driven only by their shard's sequential op stream (and virtual
// clock), so all counters — including the policy's own — are bit-identical
// at 1, 4, and 8 replay threads. The write-rate limiter is the acid test:
// it reads the shard's *virtual* clock, which a wall-clock dependence would
// break immediately.
TEST(ParallelReplayTest, PoliciesDeterministicAcrossThreadCounts) {
  const AdmissionKind kinds[] = {AdmissionKind::kGhostLru, AdmissionKind::kFrequencySketch,
                                 AdmissionKind::kWriteRateLimiter};
  for (AdmissionKind kind : kinds) {
    SCOPED_TRACE(AdmissionKindName(kind));
    PolicyConfig admission;
    admission.kind = kind;
    // Small capacities so the selective policies actually reject in a
    // 30k-op run.
    admission.ghost_entries = 2048;
    admission.sketch_width = 4096;
    admission.write_rate_pages_per_sec = 500.0;
    admission.write_burst_pages = 64.0;
    const ShardedRun t1 = RunWith(8, 1, SystemType::kSscWriteThrough, admission);
    const ShardedRun t4 = RunWith(8, 4, SystemType::kSscWriteThrough, admission);
    const ShardedRun t8 = RunWith(8, 8, SystemType::kSscWriteThrough, admission);
    ASSERT_EQ(t1.metrics.stale_reads, 0u);
    EXPECT_GT(t1.policy.rejects, 0u);  // the policy must actually bite
    ExpectVirtualTimeEqual(t1, t4);
    ExpectVirtualTimeEqual(t1, t8);
  }
}

// The default admit-all system must be bit-identical to the pre-policy code
// path (managers with no policy wired), at every shard and thread count:
// same virtual time, same device work, same flash writes.
TEST(ParallelReplayTest, AdmitAllMatchesDetachedPolicyExactly) {
  for (const uint32_t shards : {1u, 8u}) {
    SCOPED_TRACE(shards);
    const ShardedRun with_policy =
        RunWith(shards, shards, SystemType::kSscWriteBack, PolicyConfig{});
    const ShardedRun detached = RunWith(shards, shards, SystemType::kSscWriteBack,
                                        PolicyConfig{}, /*detach_policies=*/true);
    ASSERT_EQ(with_policy.metrics.stale_reads, 0u);
    EXPECT_EQ(with_policy.policy.rejects, 0u);
    EXPECT_GT(with_policy.policy.admits, 0u);  // admit-all still counts admits
    EXPECT_EQ(detached.policy.admits, 0u);     // detached managers report none
    // Everything observable about the runs matches, bar the admit counters.
    EXPECT_EQ(with_policy.metrics.elapsed_us, detached.metrics.elapsed_us);
    EXPECT_TRUE(with_policy.metrics.response_us == detached.metrics.response_us);
    EXPECT_EQ(with_policy.manager.read_hits, detached.manager.read_hits);
    EXPECT_EQ(with_policy.manager.read_misses, detached.manager.read_misses);
    EXPECT_EQ(with_policy.manager.writebacks, detached.manager.writebacks);
    EXPECT_EQ(with_policy.manager.evicts, detached.manager.evicts);
    EXPECT_EQ(with_policy.flash.page_writes, detached.flash.page_writes);
    EXPECT_EQ(with_policy.flash.erases, detached.flash.erases);
    EXPECT_EQ(with_policy.ftl.gc_invocations, detached.ftl.gc_invocations);
  }
}

// Selective admission must also hold the partition audit and the new policy
// invariants (memory bound, rejected-block-absent) after a threaded replay.
TEST(ParallelReplayTest, SelectivePolicyPassesPolicyAudit) {
  PolicyConfig admission;
  admission.kind = AdmissionKind::kGhostLru;
  admission.ghost_entries = 2048;
  SystemConfig config;
  config.type = SystemType::kSscWriteThrough;
  config.cache_pages = 8192;
  config.shards = 4;
  config.admission = admission;
  FlashTierSystem system(config);
  SyntheticWorkload workload(TestProfile());
  ReplayEngine::Options opts;
  opts.warmup_fraction = 0.15;
  opts.verify = true;
  opts.threads = 4;
  ReplayEngine engine(&system, opts);
  const ReplayMetrics m = engine.Run(workload);
  ASSERT_EQ(m.stale_reads, 0u);
  ASSERT_GT(system.AggregatePolicyStats().rejects, 0u);
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    const CheckReport report =
        InvariantChecker::CheckPolicy(*system.shard(i).policy, system.shard(i).ssc.get());
    EXPECT_TRUE(report.ok()) << "shard " << i << ": " << report.ToString();
    EXPECT_GT(report.checks_run, 0u);
  }
}

TEST(ParallelReplayTest, ThreadsClampedToShardCount) {
  // A single-shard system with 8 requested threads is a sequential replay.
  const ShardedRun run = RunWith(1, 8, SystemType::kSscWriteBack);
  EXPECT_EQ(run.metrics.threads, 1u);
  EXPECT_EQ(run.metrics.shards, 1u);
  EXPECT_EQ(run.metrics.stale_reads, 0u);
  EXPECT_GT(run.metrics.wall_clock_us, 0u);
  EXPECT_GT(run.metrics.ReplayOpsPerSec(), 0.0);
}

// Shards whose commit-point hook throws, each with its own message.
using ShardFaults = std::vector<std::pair<uint32_t, std::string>>;

// Two failing shards of four: every thread count must report shard 1's error.
ShardFaults Shards1And2() { return {{1, "fault on shard 1"}, {2, "fault on shard 2"}}; }

void InjectFault(PersistenceManager* persist, const std::string& message) {
  persist->set_commit_point_hook_for_testing(
      [message](CommitPoint) { throw std::runtime_error(message); });
}

// Replays the test workload on a 4-shard write-back system with `faults`
// injected; returns what Run() threw.
std::string BlockReplayError(uint32_t threads, const ShardFaults& faults) {
  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = 8192;
  config.shards = 4;
  FlashTierSystem system(config);
  for (const auto& [shard, message] : faults) {
    InjectFault(system.shard(shard).ssc->persist_for_testing(), message);
  }
  SyntheticWorkload workload(TestProfile());
  ReplayEngine::Options opts;
  opts.threads = threads;
  ReplayEngine engine(&system, opts);
  try {
    (void)engine.Run(workload);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "worker exception was swallowed";
}

// An exception escaping a std::thread body is std::terminate, so a device
// fault thrown inside a replay worker used to kill the whole process. The
// engine must rethrow it on the coordinating thread after all workers have
// joined, and when several shards fail it must report the lowest-index one
// at every thread count: the error a one-thread run meets first.
TEST(ParallelReplayTest, WorkerExceptionPropagatesToCaller) {
  ShardFaults every_shard;
  for (uint32_t i = 0; i < 4; ++i) {
    every_shard.emplace_back(i, "injected device fault");
  }
  const std::string what = BlockReplayError(4, every_shard);
  EXPECT_NE(what.find("replay worker failed"), std::string::npos) << what;
  EXPECT_NE(what.find("injected device fault"), std::string::npos) << what;

  for (const uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(BlockReplayError(threads, Shards1And2()), "replay worker failed: fault on shard 1")
        << threads << " threads";
  }
}

TEST(ParallelReplayTest, ShardedSystemPassesPartitionAudit) {
  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = 8192;
  config.shards = 4;
  FlashTierSystem system(config);
  SyntheticWorkload workload(TestProfile());
  ReplayEngine::Options opts;
  opts.warmup_fraction = 0.15;
  opts.verify = true;
  opts.threads = 4;
  ReplayEngine engine(&system, opts);
  const ReplayMetrics m = engine.Run(workload);
  ASSERT_EQ(m.stale_reads, 0u);
  std::vector<const SscDevice*> shard_views;
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    ASSERT_NE(system.shard(i).ssc.get(), nullptr);
    shard_views.push_back(system.shard(i).ssc.get());
  }
  const CheckReport report = InvariantChecker::CheckSharded(shard_views, system.router());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

TEST(ParallelReplayTest, RouterPartitionsAtErasBlockGrain) {
  ShardRouter router;
  router.shards = 8;
  // Every page of one 64-page logical block lands on the same shard, so a
  // block-map entry can never straddle shards.
  for (Lbn base = 0; base < 64 * 100; base += 64) {
    const uint32_t s = router.ShardOf(base);
    for (uint32_t off = 1; off < 64; ++off) {
      ASSERT_EQ(router.ShardOf(base + off), s) << "lbn " << base + off;
    }
  }
  // And the hash actually spreads blocks across shards.
  std::vector<uint32_t> hits(8, 0);
  for (Lbn base = 0; base < 64 * 1000; base += 64) {
    ++hits[router.ShardOf(base)];
  }
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never used";
  }
}

TEST(ParallelReplayTest, ShardedAggregatesSumAcrossShards) {
  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = 4096;
  config.shards = 4;
  FlashTierSystem system(config);
  EXPECT_EQ(system.shard_count(), 4u);
  for (Lbn lbn = 0; lbn < 4000; ++lbn) {
    ASSERT_EQ(system.Write(lbn, lbn + 1), Status::kOk);
  }
  uint64_t reads = 0;
  for (Lbn lbn = 0; lbn < 4000; ++lbn) {
    uint64_t token = 0;
    if (system.Read(lbn, &token) == Status::kOk) {
      ASSERT_EQ(token, lbn + 1);
      ++reads;
    }
  }
  EXPECT_GT(reads, 0u);
  const ManagerStats m = system.AggregateManagerStats();
  // Each per-shard manager only saw its partition; the aggregate sees all.
  uint64_t shard_hits = 0;
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    shard_hits += system.shard(i).manager->stats().read_hits;
  }
  EXPECT_EQ(m.read_hits, shard_hits);
  EXPECT_GT(system.DeviceMemoryUsage(), 0u);
}

// ---------------------------------------------------------------------------
// Tiny-object KV replay (DESIGN.md §5k): the same determinism contract as the
// block engine — records route to shards by key hash, each shard replays as a
// sequential computation, metrics merge in shard order — so the full KvStats
// block must be bit-identical at any thread count and queue depth.
// ---------------------------------------------------------------------------

KvWorkloadProfile KvTestProfile() {
  KvWorkloadProfile p;
  p.unique_keys = 3'000;
  p.total_ops = 20'000;
  p.seed = 17;
  return p;
}

// Fresh cache + fresh workload per run: only the host-side replay shape
// (threads, queue depth) varies. `source` replaces the test workload's
// generator.
KvReplayMetrics RunKv(uint32_t shards, uint32_t threads, uint32_t queue_depth,
                      bool dirty_sets = false, const PolicyConfig& admission = PolicyConfig{},
                      KvTraceSource* source = nullptr) {
  KvCacheConfig config;
  config.shards = shards;
  config.admission = admission;
  config.ssc.capacity_pages = 2048;
  KvCache cache(config);
  KvZipfWorkload workload(KvTestProfile());
  KvReplayEngine::Options opts;
  opts.threads = threads;
  opts.queue_depth = queue_depth;
  opts.dirty_sets = dirty_sets;
  KvReplayEngine engine(&cache, opts);
  return engine.Run(source != nullptr ? *source : workload);
}

void ExpectKvVirtualTimeEqual(const KvReplayMetrics& a, const KvReplayMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_TRUE(a.response_us == b.response_us);
  // Whole counter structs: any drifting counter fails here.
  EXPECT_EQ(a.kv, b.kv);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.persist, b.persist);
  EXPECT_EQ(a.flash, b.flash);
  EXPECT_EQ(a.flash_writes_per_set, b.flash_writes_per_set);
  EXPECT_EQ(a.Iops(), b.Iops());
  EXPECT_EQ(a.MeanResponseUs(), b.MeanResponseUs());
}

TEST(KvParallelReplayTest, KvStatsIdenticalAcrossThreadCounts) {
  const KvReplayMetrics t1 = RunKv(8, 1, 1);
  const KvReplayMetrics t4 = RunKv(8, 4, 1);
  const KvReplayMetrics t8 = RunKv(8, 8, 1);
  ASSERT_GT(t1.requests, 0u);
  ASSERT_GT(t1.kv.hits, 0u);
  ASSERT_GT(t1.kv.slab_fills, 0u);
  EXPECT_EQ(t1.threads, 1u);
  EXPECT_EQ(t4.threads, 4u);
  EXPECT_EQ(t8.threads, 8u);
  EXPECT_EQ(t8.shards, 8u);
  ExpectKvVirtualTimeEqual(t1, t4);
  ExpectKvVirtualTimeEqual(t1, t8);
}

// The KV engine's in-memory path, as flashbench drives it, against the
// generator it was read from.
TEST(KvParallelReplayTest, KvInMemoryTraceReplaysLikeStreamedOne) {
  KvZipfWorkload generator(KvTestProfile());
  KvVectorTrace trace(ReadAll<KvTraceRecord>(generator));
  for (const uint32_t threads : {1u, 4u, 8u}) {
    const KvReplayMetrics streamed = RunKv(8, threads, 1);
    const KvReplayMetrics in_memory = RunKv(8, threads, 1, false, PolicyConfig{}, &trace);
    ASSERT_GT(streamed.kv.hits, 0u);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectKvVirtualTimeEqual(streamed, in_memory);
  }
}

TEST(KvParallelReplayTest, KvOpenLoopIdenticalAcrossThreadCounts) {
  const KvReplayMetrics t1 = RunKv(8, 1, /*queue_depth=*/8);
  const KvReplayMetrics t4 = RunKv(8, 4, /*queue_depth=*/8);
  const KvReplayMetrics t8 = RunKv(8, 8, /*queue_depth=*/8);
  ASSERT_GT(t1.requests, 0u);
  EXPECT_EQ(t1.queue_depth, 8u);
  ExpectKvVirtualTimeEqual(t1, t4);
  ExpectKvVirtualTimeEqual(t1, t8);
  for (const double p : {50.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(t1.response_us.PercentileUs(p), t4.response_us.PercentileUs(p));
    EXPECT_EQ(t1.response_us.PercentileUs(p), t8.response_us.PercentileUs(p));
  }
}

// Queue depth changes request *timing*, never request *semantics*: the cache
// executes the same per-shard operation sequence either way, so the KvStats
// block matches the depth-1 run exactly while overlap shrinks elapsed time.
TEST(KvParallelReplayTest, KvOpenLoopPreservesStateAndShrinksElapsed) {
  const KvReplayMetrics d1 = RunKv(8, 4, 1);
  const KvReplayMetrics d8 = RunKv(8, 4, /*queue_depth=*/8);
  EXPECT_EQ(d1.requests, d8.requests);
  EXPECT_TRUE(d1.kv == d8.kv);
  EXPECT_EQ(d1.flash.page_writes, d8.flash.page_writes);
  EXPECT_EQ(d1.flash_writes_per_set, d8.flash_writes_per_set);
  ASSERT_GT(d1.elapsed_us, 0u);
  EXPECT_LT(d8.elapsed_us, d1.elapsed_us);
}

// Dirty (write-back) sets exercise the persistence log on every Set; the
// log/checkpoint counters must stay a pure function of the shard streams.
TEST(KvParallelReplayTest, KvDirtySetsDeterministicAcrossThreadCounts) {
  const KvReplayMetrics t1 = RunKv(8, 1, 1, /*dirty_sets=*/true);
  const KvReplayMetrics t8 = RunKv(8, 8, 1, /*dirty_sets=*/true);
  ASSERT_GT(t1.persist.records_logged, 0u);
  ExpectKvVirtualTimeEqual(t1, t8);
}

// Selective admission composes per object under threaded replay: the policy
// counters are deterministic and the threaded cache passes the structural KV
// audit (key-map bijection, slab occupancy, shard partition).
TEST(KvParallelReplayTest, KvAdmissionDeterministicAndAuditClean) {
  PolicyConfig admission;
  admission.kind = AdmissionKind::kGhostLru;
  admission.ghost_entries = 2048;
  KvCacheConfig config;
  config.shards = 4;
  config.admission = admission;
  config.ssc.capacity_pages = 2048;
  KvCache cache(config);
  KvZipfWorkload workload(KvTestProfile());
  KvReplayEngine::Options opts;
  opts.threads = 4;
  KvReplayEngine engine(&cache, opts);
  const KvReplayMetrics threaded = engine.Run(workload);
  ASSERT_GT(threaded.kv.rejected_sets, 0u);  // the policy must actually bite

  const KvReplayMetrics solo = RunKv(4, 1, 1, false, admission);
  EXPECT_TRUE(threaded.kv == solo.kv);
  EXPECT_EQ(threaded.policy.rejects, solo.policy.rejects);
  EXPECT_EQ(threaded.policy.ghost_hits, solo.policy.ghost_hits);

  const CheckReport report = InvariantChecker::CheckKv(cache);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks_run, 0u);
}

// Replays the KV test workload on a 4-shard cache with `faults` injected;
// returns what Run() threw.
std::string KvReplayError(uint32_t threads, const ShardFaults& faults) {
  KvCacheConfig config;
  config.shards = 4;
  config.ssc.capacity_pages = 2048;
  KvCache cache(config);
  for (const auto& [shard, message] : faults) {
    InjectFault(cache.shard(shard).ssc().persist_for_testing(), message);
  }
  KvZipfWorkload workload(KvTestProfile());
  KvReplayEngine::Options opts;
  opts.threads = threads;
  KvReplayEngine engine(&cache, opts);
  try {
    (void)engine.Run(workload);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "worker exception was swallowed";
}

// The KV engine runs on the same scheduler: the lowest-index failing shard's
// error, wrapped once, at every thread count.
TEST(KvParallelReplayTest, KvWorkerExceptionPropagatesToCaller) {
  for (const uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(KvReplayError(threads, Shards1And2()), "replay worker failed: fault on shard 1")
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// The shard scheduler itself (src/core/shard_scheduler.h), with the test
// workload's trace and a stand-in per-shard body.
// ---------------------------------------------------------------------------

// Every request below the limit reaches exactly one shard, the one the router
// names, and each shard sees its requests in increasing trace order, whether
// the trace is routed in place or read from a generator first, and at thread
// counts that do not divide the shard count.
TEST(ShardSchedulerTest, RoutesEachRequestOnceInTraceOrder) {
  SyntheticWorkload generator(TestProfile());
  VectorTrace in_memory(ReadAll<TraceRecord>(generator));
  const std::vector<TraceRecord>& trace = in_memory.records();
  const uint64_t limit = trace.size() - 777;
  for (TraceSource* source : std::vector<TraceSource*>{&in_memory, &generator}) {
    for (const uint32_t shards : {2u, 3u, 8u}) {
      for (const uint32_t threads : {1u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::string(source == &in_memory ? "in memory" : "streamed") + ", " +
                     std::to_string(shards) + " shards, " + std::to_string(threads) + " threads");
        ShardRouter router;
        router.shards = shards;
        const auto shard_of = [&](const TraceRecord& record) { return router.ShardOf(record.lbn); };
        const ShardQueues<TraceSource, TraceRecord> queues(*source, shards, threads, limit,
                                                           shard_of);
        const std::vector<uint64_t> sizes = queues.Sizes();
        ASSERT_EQ(sizes.size(), shards);
        std::vector<uint32_t> seen(limit, 0);
        for (uint32_t s = 0; s < shards; ++s) {
          uint64_t count = 0;
          uint64_t next_seq = 0;  // the lowest seq shard s may yield next
          queues.ForEach(s, [&](const TraceRecord& record, uint64_t seq) {
            ASSERT_LT(seq, limit);
            EXPECT_GE(seq, next_seq);
            EXPECT_EQ(record, trace[seq]);
            EXPECT_EQ(shard_of(record), s);
            next_seq = seq + 1;
            ++seen[seq];
            ++count;
          });
          EXPECT_GT(count, 0u) << "shard " << s;
          EXPECT_EQ(count, sizes[s]) << "shard " << s;
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1u), static_cast<std::ptrdiff_t>(limit));
        source->Rewind();
      }
    }
  }
}

// Shards are claimed largest first, ties to the lower index, and every shard
// runs exactly once at any thread count.
TEST(ShardSchedulerTest, RunsEveryShardOnceLargestFirst) {
  const std::vector<uint64_t> sizes = {5, 9, 2, 9, 0, 7};
  std::vector<uint32_t> order;
  ForEachShardOnWorkers(sizes, 1, [&](uint32_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 3, 5, 0, 2, 4}));
  for (const uint32_t threads : {2u, 3u, 4u, 8u}) {
    std::vector<std::atomic<int>> calls(sizes.size());
    ForEachShardOnWorkers(sizes, threads, [&](uint32_t i) { ++calls[i]; });
    for (size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "shard " << i << ", " << threads << " threads";
    }
  }
}

// With shards 1 and 2 failing, every shard still runs, and shard 1's error is
// the one reported at every thread count, also when shard 2 is the largest and
// so is claimed first.
TEST(ShardSchedulerTest, ReportsLowestFailingShardAfterRunningAll) {
  for (const std::vector<uint64_t>& sizes : {std::vector<uint64_t>{4, 4, 4, 4},
                                             std::vector<uint64_t>{4, 4, 9, 4}}) {
    for (const uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
      std::vector<std::atomic<int>> calls(sizes.size());
      std::string what = "no error";
      try {
        ForEachShardOnWorkers(sizes, threads, [&](uint32_t i) {
          ++calls[i];
          if (i == 1 || i == 2) {
            throw std::runtime_error("fault on shard " + std::to_string(i));
          }
        });
      } catch (const std::runtime_error& e) {
        what = e.what();
      }
      EXPECT_EQ(what, "replay worker failed: fault on shard 1")
          << threads << " threads, shard 2 size " << sizes[2];
      for (size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].load(), 1) << "shard " << i << ", " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace flashtier
