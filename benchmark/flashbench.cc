// flashbench: one measured run of one benchmark workload (see README.md).
//
// The seed expands into kVolumes independently seeded volumes of the
// workload. A round replays every volume in turn: generate its trace, build a
// fresh system, replay through the engines' own Run() (ReplayEngine or
// KvReplayEngine) with the stale-read oracle on, read every counter, then
// crash and recover the cache and probe it for lost or stale data. The
// round's metrics pool its volumes as if they had been replayed back to back,
// which averages out how much one seed's layout favours a shard. Rounds
// repeat until --seconds are used up (at least --min-rounds).
//
// With --traced=1 each round is followed by a traced round that replays the
// same volumes through this file's copy of the engines' schedule, with host
// spans around each call into the cache. Its model counters must equal the
// untraced round's; its spans give the per-layer host-time metrics and the
// --spans file.
//
// Prints one JSON object: every metric with its unit, its clock ("virtual":
// the modelled system, exact and repeatable; "host": the simulator's own time
// and memory) and one value per round, plus the correctness verdict. Exits 1
// if any correctness check failed.
//
//   flashbench --workload=homes-wb|usr-wt-ghost|mail-native|kv-zipf
//              [--seed=42] [--scale=1] [--threads=4] [--seconds=0]
//              [--min-rounds=1] [--traced=0|1] [--spans=FILE]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/flashtier.h"
#include "src/core/open_loop.h"
#include "src/core/replay.h"
#include "src/kv/kv_cache.h"
#include "src/kv/kv_replay.h"
#include "src/sparsemap/sparse_hash_map.h"
#include "src/trace/kv_trace.h"
#include "src/trace/trace.h"
#include "src/trace/workload.h"
#include "src/util/args.h"

namespace flashtier::flashbench {
namespace {

constexpr uint32_t kShards = 8;
constexpr uint32_t kVolumes = 16;
constexpr uint64_t kSampleEvery = 4096;  // requests per recorded span tree
constexpr double kPageBytes = 4096.0;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Measurements and metrics
// ---------------------------------------------------------------------------

// What replaying volumes measured, in a form that sums across volumes.
// Sizes and recovery times are summed too and reported per volume.
struct Totals {
  uint32_t volumes = 0;
  uint32_t threads = 1;
  // Model counters, read before the end-of-run crash.
  ManagerStats manager;
  PolicyStats policy;
  FtlStats ssc;
  FtlStats ssd;
  PersistStats persist;
  FlashStats flash;
  DiskStats disk;
  KvStats kv;
  LatencyHistogram response_us;
  uint64_t requests = 0;  // measured phase
  uint64_t replayed = 0;  // warmup included
  uint64_t elapsed_us = 0;
  uint64_t failed = 0;
  uint64_t host_write_bytes = 0;
  uint64_t read_lookups = 0;
  uint64_t read_misses = 0;
  uint64_t map_bytes = 0;
  uint64_t policy_memory_bytes = 0;
  uint64_t sparse_map_bytes = 0;
  uint64_t sparse_map_entries = 0;
  // Virtual time to make the cache usable after the crash.
  uint64_t recovery_us = 0;
  uint64_t checkpoint_load_us = 0;
  uint64_t log_replay_us = 0;
  uint64_t rebuild_us = 0;
  uint64_t recover_table_us = 0;
  uint64_t oob_scan_us = 0;
  // Host time.
  double setup_s = 0.0;
  double replay_wall_s = 0.0;  // Run() or its traced copy, routing included
  double replay_cpu_s = 0.0;

  void Merge(const Totals& o) {
    volumes += o.volumes;
    threads = o.threads;
    manager.Merge(o.manager);
    policy.Merge(o.policy);
    ssc.Merge(o.ssc);
    ssd.Merge(o.ssd);
    persist.Merge(o.persist);
    flash.Merge(o.flash);
    disk.Merge(o.disk);
    kv.Merge(o.kv);
    response_us.Merge(o.response_us);
    requests += o.requests;
    replayed += o.replayed;
    elapsed_us += o.elapsed_us;
    failed += o.failed;
    host_write_bytes += o.host_write_bytes;
    read_lookups += o.read_lookups;
    read_misses += o.read_misses;
    map_bytes += o.map_bytes;
    policy_memory_bytes += o.policy_memory_bytes;
    sparse_map_bytes += o.sparse_map_bytes;
    sparse_map_entries += o.sparse_map_entries;
    recovery_us += o.recovery_us;
    checkpoint_load_us += o.checkpoint_load_us;
    log_replay_us += o.log_replay_us;
    rebuild_us += o.rebuild_us;
    recover_table_us += o.recover_table_us;
    oob_scan_us += o.oob_scan_us;
    setup_s += o.setup_s;
    replay_wall_s += o.replay_wall_s;
    replay_cpu_s += o.replay_cpu_s;
  }
};

// One measured value. Virtual metrics describe the modelled system and must
// repeat bit for bit; host metrics measure the simulator itself.
struct Metric {
  std::string name;
  std::string unit;
  bool host = false;
  double value = 0.0;
};

class MetricSet {
 public:
  void Virtual(std::string name, std::string unit, double value) {
    items_.push_back({std::move(name), std::move(unit), false, value});
  }
  void Host(std::string name, std::string unit, double value) {
    items_.push_back({std::move(name), std::move(unit), true, value});
  }
  void Count(std::string name, uint64_t value) {
    Virtual(std::move(name), "count", static_cast<double>(value));
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// Every virtual metric. A layer the workload does not have reports its
// default (all-zero) counters.
void AddModelMetrics(const Totals& t, MetricSet* out) {
  const auto per_volume = [&t](uint64_t sum) {
    return static_cast<double>(sum) / static_cast<double>(t.volumes);
  };
  const auto ratio = [](uint64_t num, uint64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double host_bytes = static_cast<double>(t.host_write_bytes);
  // PersistenceManager charges every checkpoint page to log_page_writes as
  // well as to checkpoint_page_writes, so log_page_writes alone covers both.
  const double flash_pages = static_cast<double>(t.flash.page_writes + t.flash.gc_copies +
                                                 t.persist.log_page_writes);

  out->Virtual("iops", "1/s", 1e6 * ratio(t.requests, t.elapsed_us));
  out->Virtual("p50_us", "us", t.response_us.PercentileUs(50));
  out->Virtual("p99_us", "us", t.response_us.PercentileUs(99));
  out->Virtual("p9999_us", "us", t.response_us.PercentileUs(99.99));
  out->Count("requests", t.requests);
  out->Virtual("read_miss_pct", "%", 100.0 * ratio(t.read_misses, t.read_lookups));
  out->Virtual("write_amp", "ratio", Ratio(flash_pages * kPageBytes, host_bytes));
  out->Virtual("erases_per_gib", "1/GiB",
               Ratio(static_cast<double>(t.flash.erases), host_bytes / kGiB));
  out->Virtual("map_memory_mib", "MiB", per_volume(t.map_bytes) / kMiB);
  out->Virtual("recovery_ms", "ms", per_volume(t.recovery_us) / 1e3);
  out->Virtual("failed_pct", "%", 100.0 * ratio(t.failed, t.replayed));

  out->Count("cache.read_hits", t.manager.read_hits);
  out->Count("cache.read_misses", t.manager.read_misses);
  out->Count("cache.writebacks", t.manager.writebacks);
  out->Count("cache.cleans", t.manager.cleans);
  out->Count("cache.evicts", t.manager.evicts);
  out->Count("cache.metadata_writes", t.manager.metadata_writes);
  out->Count("cache.pass_through_writes", t.manager.pass_through_writes);
  out->Virtual("cache.recover_table_us", "us", per_volume(t.recover_table_us));

  out->Count("policy.admits", t.policy.admits);
  out->Count("policy.rejects", t.policy.rejects);
  out->Count("policy.ghost_hits", t.policy.ghost_hits);
  out->Count("policy.flash_writes_saved", t.policy.flash_writes_saved);
  out->Virtual("policy.admit_ratio", "ratio",
               ratio(t.policy.admits, t.policy.admits + t.policy.rejects));
  out->Virtual("policy.regret_ratio", "ratio",
               ratio(t.policy.rejected_then_remissed, t.policy.rejects));
  out->Virtual("policy.memory_bytes", "bytes", per_volume(t.policy_memory_bytes));

  out->Count("ssc.gc_invocations", t.ssc.gc_invocations);
  out->Count("ssc.silent_evictions", t.ssc.silent_evictions);
  out->Count("ssc.silently_evicted_pages", t.ssc.silently_evicted_pages);
  out->Count("ssc.switch_merges", t.ssc.switch_merges);
  out->Count("ssc.partial_merges", t.ssc.partial_merges);
  out->Count("ssc.full_merges", t.ssc.full_merges);
  out->Count("ssc.wl_migrations", t.ssc.wl_migrations);
  out->Count("ssc.patrol_repairs", t.ssc.patrol_repairs);

  out->Count("persist.sync_commits", t.persist.sync_commits);
  out->Count("persist.group_commits", t.persist.group_commits);
  out->Count("persist.log_page_writes", t.persist.log_page_writes);
  out->Count("persist.checkpoints", t.persist.checkpoints);
  out->Count("persist.checkpoint_page_writes", t.persist.checkpoint_page_writes);
  out->Count("persist.forced_checkpoints", t.persist.forced_checkpoints);
  out->Count("persist.backpressure_stalls", t.persist.backpressure_stalls);
  out->Virtual("persist.checkpoint_load_us", "us", per_volume(t.checkpoint_load_us));
  out->Virtual("persist.log_replay_us", "us", per_volume(t.log_replay_us));
  out->Virtual("persist.rebuild_us", "us", per_volume(t.rebuild_us));

  out->Virtual("sparsemap.device_map_bytes", "bytes", per_volume(t.sparse_map_bytes));
  out->Virtual("sparsemap.bytes_per_entry", "bytes",
               ratio(t.sparse_map_bytes, t.sparse_map_entries));

  out->Count("ssd.gc_invocations", t.ssd.gc_invocations);
  out->Count("ssd.full_merges", t.ssd.full_merges);
  out->Count("ssd.partial_merges", t.ssd.partial_merges);
  out->Count("ssd.switch_merges", t.ssd.switch_merges);
  out->Virtual("ssd.oob_scan_us", "us", per_volume(t.oob_scan_us));

  out->Count("ftl.program_retries", t.ssc.program_retries + t.ssd.program_retries);
  out->Count("ftl.retired_blocks", t.ssc.retired_blocks + t.ssd.retired_blocks);

  out->Count("flash.page_reads", t.flash.page_reads);
  out->Count("flash.page_writes", t.flash.page_writes);
  out->Count("flash.gc_copies", t.flash.gc_copies);
  out->Count("flash.erases", t.flash.erases);
  out->Count("flash.oob_reads", t.flash.oob_reads);
  out->Virtual("flash.busy_us_per_req", "us", ratio(t.flash.busy_us, t.replayed));
  out->Virtual("flash.gc_copy_ratio", "ratio", ratio(t.flash.gc_copies, t.flash.page_writes));

  out->Count("disk.reads", t.disk.reads);
  out->Count("disk.writes", t.disk.writes);
  out->Count("disk.retries", t.disk.retries);
  out->Count("disk.timeouts", t.disk.timeouts);
  out->Virtual("disk.busy_us_per_req", "us", ratio(t.disk.busy_us, t.replayed));

  out->Count("kv.hits", t.kv.hits);
  out->Count("kv.misses", t.kv.misses);
  out->Count("kv.open_slab_hits", t.kv.open_slab_hits);
  out->Count("kv.slab_fills", t.kv.slab_fills);
  out->Count("kv.slab_page_writes", t.kv.slab_page_writes);
  out->Count("kv.compactions", t.kv.compactions);
  out->Count("kv.compaction_aborts", t.kv.compaction_aborts);
  out->Count("kv.slots_moved", t.kv.slots_moved);
  out->Count("kv.slab_evictions", t.kv.slab_evictions);
  out->Count("kv.lazy_slab_drops", t.kv.lazy_slab_drops);
  out->Count("kv.sets_refused_full", t.kv.sets_refused_full);
  out->Virtual("kv.compaction_yield", "ratio",
               ratio(t.kv.slots_reclaimed, t.kv.slots_moved + t.kv.slots_reclaimed));
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own calls into the layers
// ---------------------------------------------------------------------------

enum SpanName : uint8_t {
  kRequestSpan,
  kCacheRead,
  kCacheWrite,
  kKvGet,
  kKvSet,
  kKvDelete,
  kVerifySpan,
  kSpanCount,
};
constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "core.request", "cache.read", "cache.write", "kv.get", "kv.set", "kv.delete", "core.verify"};

// Power-of-two buckets: bucket i >= 1 holds [2^(i-1), 2^i). Like
// LatencyHistogram, but the spans file needs the bucket counts, which
// LatencyHistogram keeps private.
class Log2Histogram {
 public:
  void Add(uint64_t v) {
    ++buckets_[v == 0 ? 0 : 64 - std::countl_zero(v)];
    ++count_;
  }
  void Merge(const Log2Histogram& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    count_ += o.count_;
  }
  // The p-th percentile, interpolated linearly inside its bucket (the rule
  // LatencyHistogram::PercentileUs uses).
  double Percentile(double p) const {
    const double rank = p / 100.0 * static_cast<double>(count_);
    uint64_t before = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) {
        continue;
      }
      if (static_cast<double>(before + buckets_[i]) >= rank) {
        const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
        const double hi = std::ldexp(1.0, static_cast<int>(i));
        const double frac = (rank - static_cast<double>(before)) / static_cast<double>(buckets_[i]);
        return lo + (hi - lo) * std::max(frac, 0.0);
      }
      before += buckets_[i];
    }
    return 0.0;
  }
  const std::array<uint64_t, 65>& buckets() const { return buckets_; }

 private:
  std::array<uint64_t, 65> buckets_{};
  uint64_t count_ = 0;
};

struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // duration minus the time child spans cover
  Log2Histogram hist_ns;

  void Add(uint64_t duration_ns, uint64_t self) {
    ++count;
    total_ns += duration_ns;
    self_ns += self;
    hist_ns.Add(duration_ns);
  }
  void Merge(const SpanStats& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    hist_ns.Merge(o.hist_ns);
  }
  double PerOpNs() const { return Ratio(static_cast<double>(total_ns), static_cast<double>(count)); }
};

struct SampledSpan {
  uint32_t volume = 0;
  uint64_t request = 0;  // trace sequence number within the volume
  SpanName name = kRequestSpan;
  int parent = -1;  // SpanName of the enclosing span, -1 for the root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Spans of one shard index, across the round's volumes. Only the worker
// replaying the shard writes it, so recording takes no lock.
struct ShardTrace {
  std::array<SpanStats, kSpanCount> spans;
  std::vector<SampledSpan> samples;
  uint64_t busy_ns = 0;
  uint32_t volume = 0;

  // One request: root [t0, t4) holding the layer call [t1, t2) and the oracle
  // check [t2, t3).
  void Request(uint64_t id, SpanName call, uint64_t t0, uint64_t t1, uint64_t t2, uint64_t t3,
               uint64_t t4) {
    spans[kRequestSpan].Add(t4 - t0, (t4 - t0) - (t3 - t1));
    spans[call].Add(t2 - t1, t2 - t1);
    spans[kVerifySpan].Add(t3 - t2, t3 - t2);
    if (id % kSampleEvery == 0) {
      samples.push_back({volume, id, kRequestSpan, -1, t0, t4});
      samples.push_back({volume, id, call, kRequestSpan, t1, t2});
      samples.push_back({volume, id, kVerifySpan, kRequestSpan, t2, t3});
    }
  }
};

// Phases of a volume outside the per-request loop (trace generation, build,
// routing, recovery, ...), timed on the coordinating thread.
struct Phase {
  uint32_t volume;
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

class Tracer {
 public:
  Tracer() : shards_(kShards) {}

  void SetVolume(uint32_t volume) {
    volume_ = volume;
    for (ShardTrace& s : shards_) {
      s.volume = volume;
    }
  }
  ShardTrace& shard(uint32_t i) { return shards_[i]; }

  void AddPhase(const char* name, uint64_t start_ns, uint64_t end_ns) {
    phases_.push_back({volume_, name, start_ns, end_ns});
  }
  uint64_t PhaseNs(const std::string& name) const {
    uint64_t ns = 0;
    for (const Phase& p : phases_) {
      ns += name == p.name ? p.end_ns - p.start_ns : 0;
    }
    return ns;
  }
  SpanStats Merged(SpanName name) const {
    SpanStats out;
    for (const ShardTrace& s : shards_) {
      out.Merge(s.spans[name]);
    }
    return out;
  }
  // Busiest shard's host busy time over the mean across shards.
  double BusyImbalance() const {
    uint64_t max = 0;
    uint64_t sum = 0;
    for (const ShardTrace& s : shards_) {
      max = std::max(max, s.busy_ns);
      sum += s.busy_ns;
    }
    return Ratio(static_cast<double>(max) * static_cast<double>(shards_.size()),
                 static_cast<double>(sum));
  }

  std::string ToJson(const std::string& workload, uint64_t seed) const;

 private:
  std::vector<ShardTrace> shards_;
  std::vector<Phase> phases_;
  uint32_t volume_ = 0;
};

// Per-layer host metrics of one traced round, per volume or per call.
void AddTracedLayerMetrics(const Tracer& tracer, uint32_t volumes, uint64_t records, bool kv,
                           MetricSet* out) {
  const auto per_volume_s = [&](const char* phase) {
    return Seconds(tracer.PhaseNs(phase)) / static_cast<double>(volumes);
  };
  const auto per_record_ns = [&](const char* phase) {
    return Ratio(static_cast<double>(tracer.PhaseNs(phase)), static_cast<double>(records));
  };
  out->Host("trace.gen_s", "s", per_volume_s("trace.gen"));
  out->Host("trace.gen_ns_per_record", "ns", per_record_ns("trace.gen"));
  out->Host("core.build_s", "s", per_volume_s("core.build"));
  out->Host("core.route_serial_s", "s", per_volume_s("core.route"));
  out->Host("core.route_ns_per_op", "ns", per_record_ns("core.route"));
  out->Host("core.verify_ns_per_op", "ns", tracer.Merged(kVerifySpan).PerOpNs());
  out->Host("core.shard_busy_imbalance", "ratio", tracer.BusyImbalance());
  out->Host("core.recover_host_ms", "ms", per_volume_s("core.recover") * 1e3);
  // cache.* times the cache front end: the block manager, or the KV cache.
  const SpanStats read = tracer.Merged(kv ? kKvGet : kCacheRead);
  const SpanStats write = tracer.Merged(kv ? kKvSet : kCacheWrite);
  out->Host("cache.read_ns_p50", "ns", read.hist_ns.Percentile(50));
  out->Host("cache.read_ns_p99", "ns", read.hist_ns.Percentile(99));
  out->Host("cache.read_ns_per_op", "ns", read.PerOpNs());
  out->Host("cache.write_ns_p50", "ns", write.hist_ns.Percentile(50));
  out->Host("cache.write_ns_p99", "ns", write.hist_ns.Percentile(99));
  out->Host("cache.write_ns_per_op", "ns", write.PerOpNs());
  if (kv) {
    out->Host("kv.delete_ns_per_op", "ns", tracer.Merged(kKvDelete).PerOpNs());
  }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Num(uint64_t v) { return std::to_string(v); }

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// "[a,b,c]" (or "{a,b,c}" for members) from already-serialized items.
std::string JsonList(const std::vector<std::string>& items, char open = '[', char close = ']') {
  std::string out(1, open);
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += items[i];
  }
  return out + close;
}

std::string LayersJson(const std::array<SpanStats, kSpanCount>& spans) {
  std::vector<std::string> items;
  for (int n = 0; n < kSpanCount; ++n) {
    const SpanStats& s = spans[n];
    if (s.count == 0) {
      continue;
    }
    std::vector<std::string> buckets;
    for (const uint64_t b : s.hist_ns.buckets()) {
      buckets.push_back(Num(b));
    }
    items.push_back("{\"name\":" + Quote(kSpanNames[n]) + ",\"count\":" + Num(s.count) +
                    ",\"total_ns\":" + Num(s.total_ns) + ",\"self_ns\":" + Num(s.self_ns) +
                    ",\"log2_ns_buckets\":" + JsonList(buckets) + "}");
  }
  return JsonList(items);
}

std::string Tracer::ToJson(const std::string& workload, uint64_t seed) const {
  uint64_t origin = ~uint64_t{0};
  for (const Phase& p : phases_) {
    origin = std::min(origin, p.start_ns);
  }
  std::vector<std::string> phases;
  for (const Phase& p : phases_) {
    phases.push_back("{\"volume\":" + Num(uint64_t{p.volume}) + ",\"name\":" + Quote(p.name) +
                     ",\"start_ns\":" + Num(p.start_ns - origin) +
                     ",\"end_ns\":" + Num(p.end_ns - origin) + "}");
  }
  std::array<SpanStats, kSpanCount> merged;
  for (int n = 0; n < kSpanCount; ++n) {
    merged[n] = Merged(static_cast<SpanName>(n));
  }
  std::vector<std::string> shards;
  std::vector<std::string> spans;
  for (uint64_t i = 0; i < shards_.size(); ++i) {
    shards.push_back("{\"shard\":" + Num(i) + ",\"busy_ns\":" + Num(shards_[i].busy_ns) +
                     ",\"layers\":" + LayersJson(shards_[i].spans) + "}");
    for (const SampledSpan& s : shards_[i].samples) {
      spans.push_back("{\"volume\":" + Num(uint64_t{s.volume}) + ",\"request\":" +
                      Num(s.request) + ",\"shard\":" + Num(i) +
                      ",\"name\":" + Quote(kSpanNames[s.name]) + ",\"parent\":" +
                      (s.parent < 0 ? std::string("null") : Quote(kSpanNames[s.parent])) +
                      ",\"start_ns\":" + Num(s.start_ns - origin) +
                      ",\"end_ns\":" + Num(s.end_ns - origin) + "}");
    }
  }
  return "{\"workload\":" + Quote(workload) + ",\"seed\":" + Num(seed) +
         ",\"clock\":\"host steady_clock, ns since the traced round began\"" +
         ",\"sample_every\":" + Num(kSampleEvery) + ",\"phases\":" + JsonList(phases) +
         ",\"layers\":" + LayersJson(merged) + ",\"shards\":" + JsonList(shards) +
         ",\"spans\":" + JsonList(spans) + "}\n";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct BlockSetup {
  WorkloadProfile profile;
  SystemConfig config;
  uint32_t depth = 1;    // host requests in flight per shard
  double warmup = 0.15;  // fraction of the trace replayed unmeasured
};

struct KvSetup {
  KvWorkloadProfile profile;
  KvCacheConfig config;
};

// One workload: kVolumes block volumes or kVolumes KV volumes.
struct WorkloadSetup {
  std::vector<uint64_t> volume_seeds;
  std::vector<BlockSetup> block;
  std::vector<KvSetup> kv;
};

uint64_t Scaled(uint64_t v, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(v) * scale));
}

// The paper sizes each cache at 25% of the full trace's unique blocks.
uint64_t CachePages(const WorkloadProfile& p) {
  const uint64_t base = p.full_unique_blocks != 0 ? p.full_unique_blocks : p.unique_blocks;
  return std::max<uint64_t>(1024, base / 4);
}

// Volumes are small paper-trace scalings (their working set still 4x, or a
// fraction of, the cache as at full size) so that two 16-volume rounds fit in
// a 20-second run on a 4-core host.
std::optional<WorkloadSetup> MakeSetup(const std::string& name, double scale, uint64_t seed) {
  WorkloadSetup w;
  for (uint32_t v = 0; v < kVolumes; ++v) {
    const uint64_t volume_seed = MixHash64(seed * kVolumes + v);
    w.volume_seeds.push_back(volume_seed);
    if (name == "kv-zipf") {
      KvSetup kv;
      kv.profile.total_ops = Scaled(1'500'000, scale);
      kv.profile.unique_keys = Scaled(125'000, scale);
      kv.profile.seed = volume_seed;
      kv.config.shards = kShards;
      kv.config.ssc.capacity_pages = Scaled(5'120, scale);
      w.kv.push_back(kv);
      continue;
    }
    BlockSetup b;
    b.config.shards = kShards;
    if (name == "homes-wb") {
      b.profile = HomesProfile(0.05 * scale);
      b.config.type = SystemType::kSscRWriteBack;
      b.config.wear_level_interval_writes = 32;
      b.config.patrol_interval_writes = 64;
    } else if (name == "usr-wt-ghost") {
      b.profile = UsrProfile(0.0125 * scale);
      b.config.type = SystemType::kSscWriteThrough;
      b.config.admission.kind = AdmissionKind::kGhostLru;
      b.depth = 16;
    } else if (name == "mail-native") {
      b.profile = MailProfile(0.05 * scale);
      b.config.type = SystemType::kNativeWriteBack;
    } else {
      return std::nullopt;
    }
    b.profile.seed = volume_seed;
    b.config.cache_pages = CachePages(b.profile);
    w.block.push_back(b);
  }
  return w;
}

// Replays shard i on worker i % threads, the static assignment both engines
// use. The first worker exception is rethrown after every worker has joined.
void ForEachShardOnWorkers(uint32_t shards, uint32_t threads,
                           const std::function<void(uint32_t)>& replay_shard) {
  threads = std::min(std::max(1u, threads), shards);
  if (threads <= 1) {
    for (uint32_t i = 0; i < shards; ++i) {
      replay_shard(i);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      try {
        for (uint32_t i = w; i < shards; i += threads) {
          replay_shard(i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

// ---------------------------------------------------------------------------
// Block volumes
// ---------------------------------------------------------------------------

struct BlockRequest {
  TraceRecord record;
  uint64_t seq = 0;
};

struct BlockShardRun {
  ReplayMetrics metrics;
  std::unordered_map<Lbn, uint64_t> oracle;
  std::unordered_set<Lbn> lost_blocks;
};

uint64_t ExpectedToken(const std::unordered_map<Lbn, uint64_t>& oracle, Lbn lbn) {
  const auto it = oracle.find(lbn);
  return it != oracle.end() ? it->second : DiskModel::OriginalToken(lbn);
}

// One shard of TracedBlockReplay: ReplayEngine's per-record processing
// (src/core/replay.cc, ProcessRecord) with spans around the manager call and
// the oracle check.
void TracedBlockShard(FlashTierSystem::Shard& shard, const std::vector<BlockRequest>& queue,
                      uint64_t warmup, uint32_t depth, BlockShardRun* run, ShardTrace* trace) {
  CacheManager& manager = *shard.manager;
  ReplayMetrics& m = run->metrics;
  const bool open_loop = depth > 1;
  OpenLoopQueue loop(&shard.clock, depth);
  uint64_t first_submit = ~uint64_t{0};
  uint64_t last_done = 0;
  bool any_measured = false;
  const uint64_t busy_start = NowNs();
  uint64_t t0 = busy_start;
  for (const BlockRequest& req : queue) {
    const Lbn lbn = req.record.lbn;
    const bool measured = req.seq >= warmup;
    const uint64_t start_us = open_loop ? loop.Begin() : shard.clock.now_us();
    SpanName call = kCacheRead;
    uint64_t t1 = 0;
    uint64_t t2 = 0;
    if (req.record.op == TraceOp::kWrite) {
      call = kCacheWrite;
      const uint64_t token = (lbn << 20) ^ req.seq;
      t1 = NowNs();
      const Status st = manager.Write(lbn, token);
      t2 = NowNs();
      if (!IsOk(st)) {
        ++m.failed_requests;
      } else {
        run->oracle[lbn] = token;
        run->lost_blocks.erase(lbn);
      }
    } else {
      uint64_t token = 0;
      t1 = NowNs();
      const Status st = manager.Read(lbn, &token);
      t2 = NowNs();
      if (!IsOk(st)) {
        ++m.failed_requests;
        ++m.read_errors;
        run->oracle.erase(lbn);
        run->lost_blocks.insert(lbn);
      } else if (run->lost_blocks.count(lbn) == 0 && token != ExpectedToken(run->oracle, lbn)) {
        ++m.stale_reads;
      }
    }
    const uint64_t t3 = NowNs();
    if (measured) {
      ++(call == kCacheWrite ? m.writes : m.reads);
    }
    if (open_loop) {
      const uint64_t latency_us = loop.End(start_us);
      if (measured) {
        ++m.requests;
        m.response_us.Add(latency_us);
        any_measured = true;
        first_submit = std::min(first_submit, start_us);
        last_done = std::max(last_done, start_us + latency_us);
      } else {
        ++m.warmup_requests;
      }
    } else if (measured) {
      ++m.requests;
      m.elapsed_us += shard.clock.now_us() - start_us;
      m.response_us.Add(shard.clock.now_us() - start_us);
    } else {
      ++m.warmup_requests;
    }
    const uint64_t t4 = NowNs();
    trace->Request(req.seq, call, t0, t1, t2, t3, t4);
    t0 = t4;
  }
  if (open_loop) {
    loop.Drain();
    m.elapsed_us = any_measured ? last_done - first_submit : 0;
  }
  trace->busy_ns += NowNs() - busy_start;
}

// ReplayEngine::Run on a sharded system, step for step: route the whole trace
// into per-shard queues, replay shard i on worker i % threads, merge in shard
// order.
ReplayMetrics TracedBlockReplay(FlashTierSystem& system, const VectorTrace& trace,
                                const BlockSetup& setup, uint32_t threads, Tracer* tracer,
                                ReplayEngine::VerificationState* state) {
  const std::vector<TraceRecord>& records = trace.records();
  const auto warmup = static_cast<uint64_t>(static_cast<double>(records.size()) * setup.warmup);
  const uint32_t shards = system.shard_count();

  const uint64_t route_start = NowNs();
  std::vector<std::vector<BlockRequest>> queues(shards);
  for (uint64_t seq = 0; seq < records.size(); ++seq) {
    queues[system.ShardOf(records[seq].lbn)].push_back({records[seq], seq});
  }
  const uint64_t replay_start = NowNs();
  tracer->AddPhase("core.route", route_start, replay_start);

  std::vector<BlockShardRun> runs(shards);
  ForEachShardOnWorkers(shards, threads, [&](uint32_t i) {
    TracedBlockShard(system.shard(i), queues[i], warmup, setup.depth, &runs[i],
                     &tracer->shard(i));
  });

  ReplayMetrics m;
  for (const BlockShardRun& run : runs) {
    m.requests += run.metrics.requests;
    m.reads += run.metrics.reads;
    m.writes += run.metrics.writes;
    m.warmup_requests += run.metrics.warmup_requests;
    m.stale_reads += run.metrics.stale_reads;
    m.failed_requests += run.metrics.failed_requests;
    m.read_errors += run.metrics.read_errors;
    m.elapsed_us = std::max(m.elapsed_us, run.metrics.elapsed_us);
    m.response_us.Merge(run.metrics.response_us);
    state->oracle.insert(run.oracle.begin(), run.oracle.end());
    state->lost_blocks.insert(run.lost_blocks.begin(), run.lost_blocks.end());
  }
  const uint64_t replay_end = NowNs();
  tracer->AddPhase("core.replay", replay_start, replay_end);
  m.wall_clock_us = (replay_end - route_start) / 1000;
  m.threads = std::min(threads, shards);
  return m;
}

// Crash at the end of the run and make every shard usable again: SSC
// roll-forward recovery plus, for write-back, the dirty-table exists scan.
// The FlashCache manager has no recovery path; its table reload is the
// model's analytic estimate (the paper's Fig. 5 "Native-FC"). Recovery times
// are the slowest shard's: shards recover in parallel.
void CrashAndRecoverBlocks(FlashTierSystem& system, Totals* t, std::vector<std::string>* errors) {
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    FlashTierSystem::Shard& shard = system.shard(i);
    if (shard.ssc != nullptr) {
      shard.ssc->SimulateCrash();
      const Status st = shard.ssc->Recover();
      if (!IsOk(st)) {
        errors->push_back("shard " + std::to_string(i) +
                          " SSC recovery failed: " + std::string(StatusName(st)));
      }
      t->recovery_us = std::max(t->recovery_us, shard.ssc->last_recovery_us());
      if (shard.wb_manager != nullptr) {
        // RecoverDirtyTable charges its scan to the shard clock and returns 0.
        const uint64_t before = shard.clock.now_us();
        shard.wb_manager->RecoverDirtyTable();
        t->recover_table_us = std::max(t->recover_table_us, shard.clock.now_us() - before);
      }
    } else {
      t->recovery_us = std::max(t->recovery_us, shard.native_manager->RecoveryEstimateUs());
      t->oob_scan_us = std::max(t->oob_scan_us, shard.ssd->RecoveryOobScanUs());
    }
  }
  const PersistStats persist = system.AggregatePersistStats();
  t->checkpoint_load_us = persist.checkpoint_load_us;
  t->log_replay_us = persist.log_replay_us;
  t->rebuild_us = persist.rebuild_us;
}

// Durability probe: every block the oracle tracks, unless a medium error lost
// it, reads back its newest token. Sorted so the probe is the same on every
// build.
void ProbeBlocks(FlashTierSystem& system, const ReplayEngine::VerificationState& state,
                 std::vector<std::string>* errors) {
  std::vector<std::pair<Lbn, uint64_t>> expected(state.oracle.begin(), state.oracle.end());
  std::sort(expected.begin(), expected.end());
  uint64_t bad = 0;
  for (const auto& [lbn, token] : expected) {
    if (state.lost_blocks.count(lbn) != 0) {
      continue;
    }
    uint64_t got = 0;
    if (!IsOk(system.Read(lbn, &got)) || got != token) {
      ++bad;
    }
  }
  if (bad != 0) {
    errors->push_back("durability probe: " + std::to_string(bad) + " of " +
                      std::to_string(expected.size()) + " blocks did not read back");
  }
}

Totals ReplayBlockVolume(const BlockSetup& setup, uint32_t threads, Tracer* tracer,
                         std::vector<std::string>* errors) {
  const uint64_t gen_start = NowNs();
  std::vector<TraceRecord> records;
  records.reserve(setup.profile.total_ops);
  {
    SyntheticWorkload generator(setup.profile);
    TraceRecord r;
    while (generator.Next(&r)) {
      records.push_back(r);
    }
  }
  VectorTrace trace(std::move(records));
  const uint64_t build_start = NowNs();
  FlashTierSystem system(setup.config);
  const uint64_t build_end = NowNs();

  ReplayMetrics m;
  ReplayEngine::VerificationState state;
  const double cpu_start = ProcessCpuSeconds();
  if (tracer == nullptr) {
    ReplayEngine::Options opts;
    opts.warmup_fraction = setup.warmup;
    opts.verify = true;
    opts.threads = threads;
    opts.queue_depth = setup.depth;
    ReplayEngine engine(&system, opts);
    m = engine.Run(trace);
    state = engine.ExportVerificationState();
  } else {
    m = TracedBlockReplay(system, trace, setup, threads, tracer, &state);
  }
  Totals t;
  t.volumes = 1;
  t.threads = m.threads;
  t.replay_cpu_s = ProcessCpuSeconds() - cpu_start;
  t.replay_wall_s = static_cast<double>(m.wall_clock_us) / 1e6;
  t.setup_s = Seconds(build_end - gen_start);
  if (m.stale_reads != 0) {
    errors->push_back(std::to_string(m.stale_reads) + " stale reads during replay");
  }

  // Every counter is read here, before the crash and the probe touch the
  // system.
  t.response_us = m.response_us;
  t.requests = m.requests;
  t.replayed = m.requests + m.warmup_requests;
  t.elapsed_us = m.elapsed_us;
  t.failed = m.failed_requests;
  t.manager = system.AggregateManagerStats();
  t.policy = system.AggregatePolicyStats();
  t.persist = system.AggregatePersistStats();
  t.flash = system.AggregateFlashStats();
  t.disk = system.AggregateDiskStats();
  t.host_write_bytes = 4096 * t.manager.writes;
  t.read_lookups = t.manager.read_hits + t.manager.read_misses;
  t.read_misses = t.manager.read_misses;
  t.map_bytes = system.DeviceMemoryUsage() + system.HostMemoryUsage();
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    const FlashTierSystem::Shard& shard = system.shard(i);
    t.policy_memory_bytes += shard.policy->MemoryUsage();
    if (shard.ssc != nullptr) {
      t.ssc.Merge(shard.ssc->ftl_stats());
      t.sparse_map_bytes += shard.ssc->DeviceMemoryUsage();
      t.sparse_map_entries += shard.ssc->page_map_entries() + shard.ssc->data_block_entries();
    } else {
      t.ssd.Merge(shard.ssd->ftl_stats());
    }
  }

  const uint64_t recover_start = NowNs();
  CrashAndRecoverBlocks(system, &t, errors);
  const uint64_t probe_start = NowNs();
  ProbeBlocks(system, state, errors);
  if (tracer != nullptr) {
    tracer->AddPhase("trace.gen", gen_start, build_start);
    tracer->AddPhase("core.build", build_start, build_end);
    tracer->AddPhase("core.recover", recover_start, probe_start);
    tracer->AddPhase("core.probe", probe_start, NowNs());
  }
  return t;
}

// ---------------------------------------------------------------------------
// KV volumes
// ---------------------------------------------------------------------------

// The token KvReplayEngine gives the seq-th record's Set (src/kv/kv_replay.cc).
uint64_t KvSetToken(uint64_t key, uint64_t seq) {
  return MixHash64(key ^ (seq * 0x9e3779b97f4a7c15ull) ^ 0x6b76746f6bull);
}

bool IsKvFailure(Status st) { return !IsOk(st) && st != Status::kNotPresent; }

struct KvExpect {
  uint64_t token = 0;
  bool deleted = false;
};

struct KvRequest {
  KvTraceRecord record;
  uint64_t seq = 0;
};

struct KvShardRun {
  uint64_t requests = 0;
  uint64_t failed_requests = 0;
  uint64_t stale_reads = 0;
  uint64_t elapsed_us = 0;
  LatencyHistogram response_us;
  std::unordered_map<uint64_t, KvExpect> expected;
};

// One shard of TracedKvReplay: KvReplayEngine::ReplayShard at queue depth 1
// with spans around each KV call and a newest-token oracle.
void TracedKvShard(KvShard& shard, const std::vector<KvRequest>& queue, KvShardRun* run,
                   ShardTrace* trace) {
  const uint64_t epoch_start = shard.clock().now_us();
  const uint64_t busy_start = NowNs();
  uint64_t t0 = busy_start;
  for (const KvRequest& req : queue) {
    const uint64_t key = req.record.key;
    const uint64_t start_us = shard.clock().now_us();
    SpanName call = kKvGet;
    Status st = Status::kOk;
    uint64_t t1 = 0;
    uint64_t t2 = 0;
    switch (req.record.op) {
      case KvOp::kGet: {
        uint64_t token = 0;
        t1 = NowNs();
        st = shard.Get(key, &token);
        t2 = NowNs();
        if (IsOk(st)) {
          const auto it = run->expected.find(key);
          if (it == run->expected.end() || it->second.deleted || it->second.token != token) {
            ++run->stale_reads;
          }
        }
        break;
      }
      case KvOp::kSet: {
        call = kKvSet;
        const uint64_t token = KvSetToken(key, req.seq);
        t1 = NowNs();
        st = shard.Set(key, token, req.record.size, /*dirty=*/false);
        t2 = NowNs();
        run->expected[key] = {token, false};
        break;
      }
      case KvOp::kDelete:
        call = kKvDelete;
        t1 = NowNs();
        st = shard.Delete(key);
        t2 = NowNs();
        run->expected[key] = {0, true};
        break;
    }
    const uint64_t t3 = NowNs();
    if (IsKvFailure(st)) {
      ++run->failed_requests;
    }
    ++run->requests;
    run->response_us.Add(shard.clock().now_us() - start_us);
    const uint64_t t4 = NowNs();
    trace->Request(req.seq, call, t0, t1, t2, t3, t4);
    t0 = t4;
  }
  run->elapsed_us = shard.clock().now_us() - epoch_start;
  trace->busy_ns += NowNs() - busy_start;
}

// KvReplayEngine::Run (clean Sets, depth 1, flush at end), step for step.
KvReplayMetrics TracedKvReplay(KvCache& cache, const KvVectorTrace& trace, uint32_t threads,
                               Tracer* tracer, uint64_t* stale_reads) {
  const std::vector<KvTraceRecord>& records = trace.records();
  const uint32_t shards = cache.shard_count();
  const uint64_t route_start = NowNs();
  std::vector<std::vector<KvRequest>> queues(shards);
  for (uint64_t seq = 0; seq < records.size(); ++seq) {
    queues[cache.ShardOf(records[seq].key)].push_back({records[seq], seq});
  }
  const uint64_t replay_start = NowNs();
  tracer->AddPhase("core.route", route_start, replay_start);

  std::vector<KvShardRun> runs(shards);
  ForEachShardOnWorkers(shards, threads, [&](uint32_t i) {
    TracedKvShard(cache.shard(i), queues[i], &runs[i], &tracer->shard(i));
  });
  const uint64_t flush_start = NowNs();
  tracer->AddPhase("core.replay", replay_start, flush_start);

  KvReplayMetrics m;
  if (IsKvFailure(cache.Flush())) {
    ++m.failed_requests;
  }
  for (const KvShardRun& run : runs) {
    m.requests += run.requests;
    m.failed_requests += run.failed_requests;
    m.elapsed_us = std::max(m.elapsed_us, run.elapsed_us);
    m.response_us.Merge(run.response_us);
    *stale_reads += run.stale_reads;
  }
  m.kv = cache.AggregateStats();
  m.policy = cache.AggregatePolicyStats();
  m.persist = cache.AggregatePersistStats();
  m.flash = cache.AggregateFlashStats();
  const uint64_t flush_end = NowNs();
  tracer->AddPhase("core.flush", flush_start, flush_end);
  m.wall_clock_us = (flush_end - route_start) / 1000;
  m.threads = std::min(threads, shards);
  return m;
}

// The state every key must be in after the trace: its newest Set's token, or
// deleted. Sorted by key so the probe is the same on every build.
std::vector<std::pair<uint64_t, KvExpect>> FinalKvState(const KvVectorTrace& trace) {
  std::unordered_map<uint64_t, KvExpect> last;
  const std::vector<KvTraceRecord>& records = trace.records();
  for (uint64_t seq = 0; seq < records.size(); ++seq) {
    const KvTraceRecord& r = records[seq];
    if (r.op == KvOp::kSet) {
      last[r.key] = {KvSetToken(r.key, seq), false};
    } else if (r.op == KvOp::kDelete) {
      last[r.key] = {0, true};
    }
  }
  std::vector<std::pair<uint64_t, KvExpect>> out(last.begin(), last.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// Every hit returns the key's newest token; every deleted key misses.
void ProbeKv(KvCache& cache, const std::vector<std::pair<uint64_t, KvExpect>>& expected,
             const char* when, std::vector<std::string>* errors) {
  uint64_t bad = 0;
  for (const auto& [key, e] : expected) {
    uint64_t token = 0;
    const Status st = cache.Get(key, &token);
    if (IsOk(st) ? (e.deleted || token != e.token) : st != Status::kNotPresent) {
      ++bad;
    }
  }
  if (bad != 0) {
    errors->push_back(std::string("kv probe ") + when + ": " + std::to_string(bad) + " of " +
                      std::to_string(expected.size()) + " keys stale or resurrected");
  }
}

Totals ReplayKvVolume(const KvSetup& setup, uint32_t threads, Tracer* tracer,
                      std::vector<std::string>* errors) {
  const uint64_t gen_start = NowNs();
  KvVectorTrace trace;
  {
    KvZipfWorkload generator(setup.profile);
    KvTraceRecord r;
    while (generator.Next(&r)) {
      trace.Append(r.key, r.op, r.size);
    }
  }
  const uint64_t build_start = NowNs();
  KvCache cache(setup.config);
  const uint64_t build_end = NowNs();

  KvReplayMetrics m;
  uint64_t stale_reads = 0;
  const double cpu_start = ProcessCpuSeconds();
  if (tracer == nullptr) {
    KvReplayEngine::Options opts;
    opts.threads = threads;
    KvReplayEngine engine(&cache, opts);
    m = engine.Run(trace);
  } else {
    m = TracedKvReplay(cache, trace, threads, tracer, &stale_reads);
  }
  Totals t;
  t.volumes = 1;
  t.threads = m.threads;
  t.replay_cpu_s = ProcessCpuSeconds() - cpu_start;
  t.replay_wall_s = static_cast<double>(m.wall_clock_us) / 1e6;
  t.setup_s = Seconds(build_end - gen_start);
  if (stale_reads != 0) {
    errors->push_back(std::to_string(stale_reads) + " stale kv gets during replay");
  }

  t.response_us = m.response_us;
  t.requests = m.requests;
  t.replayed = m.requests;
  t.elapsed_us = m.elapsed_us;
  t.failed = m.failed_requests;
  t.policy = m.policy;
  t.persist = m.persist;
  t.flash = m.flash;
  t.kv = m.kv;
  t.host_write_bytes = m.kv.set_bytes;
  t.read_lookups = m.kv.gets;
  t.read_misses = m.kv.misses;
  for (uint32_t i = 0; i < cache.shard_count(); ++i) {
    const KvShard& shard = cache.shard(i);
    t.policy_memory_bytes += shard.policy().MemoryUsage();
    t.ssc.Merge(shard.ssc().ftl_stats());
    t.sparse_map_bytes += shard.ssc().DeviceMemoryUsage();
    t.sparse_map_entries += shard.ssc().page_map_entries() + shard.ssc().data_block_entries();
    // The KV layer's map: each shard's SSC maps plus its key directory.
    t.map_bytes += shard.ssc().DeviceMemoryUsage() + shard.key_map().MemoryUsage();
  }

  const auto expected = FinalKvState(trace);
  const uint64_t probe_start = NowNs();
  ProbeKv(cache, expected, "before crash", errors);
  const uint64_t recover_start = NowNs();
  cache.SimulateCrash();
  const Status st = cache.Recover();
  const uint64_t recover_end = NowNs();
  if (!IsOk(st)) {
    errors->push_back("kv recovery failed: " + std::string(StatusName(st)));
  }
  const PersistStats persist = cache.AggregatePersistStats();
  t.recovery_us = persist.last_recovery_us;
  t.checkpoint_load_us = persist.checkpoint_load_us;
  t.log_replay_us = persist.log_replay_us;
  t.rebuild_us = persist.rebuild_us;
  ProbeKv(cache, expected, "after recovery", errors);
  if (tracer != nullptr) {
    tracer->AddPhase("trace.gen", gen_start, build_start);
    tracer->AddPhase("core.build", build_start, build_end);
    tracer->AddPhase("core.probe", probe_start, recover_start);
    tracer->AddPhase("core.recover", recover_start, recover_end);
    tracer->AddPhase("core.probe", recover_end, NowNs());
  }
  return t;
}

// ---------------------------------------------------------------------------
// Rounds and the command line
// ---------------------------------------------------------------------------

struct Round {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double replay_wall_s = 0.0;
};

// Replays every volume once; untraced rounds report the end-to-end host
// metrics, traced rounds the per-layer host metrics.
Round RunRound(const WorkloadSetup& w, uint32_t threads, Tracer* tracer,
               std::vector<std::string>* errors) {
  Totals t;
  uint64_t records = 0;
  for (uint32_t v = 0; v < kVolumes; ++v) {
    if (tracer != nullptr) {
      tracer->SetVolume(v);
    }
    if (w.block.empty()) {
      t.Merge(ReplayKvVolume(w.kv[v], threads, tracer, errors));
      records += w.kv[v].profile.total_ops;
    } else {
      t.Merge(ReplayBlockVolume(w.block[v], threads, tracer, errors));
      records += w.block[v].profile.total_ops;
    }
  }
  Round r;
  r.attempted = t.replayed;
  r.failed = t.failed;
  r.replay_wall_s = t.replay_wall_s;
  AddModelMetrics(t, &r.metrics);
  if (tracer == nullptr) {
    r.metrics.Host("replay_mops", "Mops/s",
                   Ratio(static_cast<double>(t.replayed), t.replay_wall_s) / 1e6);
    r.metrics.Host("setup_s", "s", t.setup_s / static_cast<double>(t.volumes));
    r.metrics.Host("peak_rss_mib", "MiB", PeakRssMib());
    r.metrics.Host("core.parallel_efficiency", "ratio",
                   Ratio(t.replay_cpu_s, t.replay_wall_s * static_cast<double>(t.threads)));
  } else {
    AddTracedLayerMetrics(*tracer, t.volumes, records, w.block.empty(), &r.metrics);
  }
  return r;
}

// Appends an error unless `round`'s virtual metrics are bit-identical to
// `first`'s.
void CheckVirtualIdentical(const MetricSet& first, const MetricSet& round, const char* what,
                           std::vector<std::string>* errors) {
  const auto virtual_values = [](const MetricSet& s) {
    std::vector<std::pair<std::string, double>> out;
    for (const Metric& m : s.items()) {
      if (!m.host) {
        out.emplace_back(m.name, m.value);
      }
    }
    return out;
  };
  const auto a = virtual_values(first);
  const auto b = virtual_values(round);
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia != a.end() || ib != b.end()) {
    errors->push_back(std::string(what) + ": " +
                      (ia != a.end() ? ia->first + " " + Num(ia->second) : "missing") + " vs " +
                      (ib != b.end() ? Num(ib->second) : "missing"));
  }
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: flashbench --workload=homes-wb|usr-wt-ghost|mail-native|kv-zipf\n"
               "                  [--seed=42] [--scale=1] [--threads=4] [--seconds=0]\n"
               "                  [--min-rounds=1] [--traced=0|1] [--spans=FILE]\n");
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::vector<std::string> unknown = args.UnknownFlags(
      {"workload", "seed", "scale", "threads", "seconds", "min-rounds", "traced", "spans"});
  const std::string name = args.GetString("workload", "");
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const double scale = args.GetPositiveDouble("scale", 1.0);
  const auto threads = static_cast<uint32_t>(args.GetPositiveInt("threads", 4));
  const double seconds = args.GetDouble("seconds", 0.0);
  const int64_t min_rounds = args.GetPositiveInt("min-rounds", 1);
  const bool traced = args.GetInt("traced", 0) != 0;
  const std::string spans_path = args.GetString("spans", "");
  const std::optional<WorkloadSetup> setup = MakeSetup(name, scale, seed);
  if (!args.ok() || !unknown.empty() || !setup) {
    std::fprintf(stderr, "%s\n", args.ok() ? "unknown workload or flag" : args.error().c_str());
    PrintUsage();
    return 2;
  }

  // Rounds continue while the next one (as long as the last) still fits in
  // --seconds; a traced run alternates untraced and traced rounds.
  std::vector<MetricSet> rounds;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<Tracer> last_tracer;
  const uint64_t start = NowNs();
  uint64_t last_ns = 0;
  int64_t untraced_rounds = 0;
  while (untraced_rounds < min_rounds || Seconds(NowNs() - start + last_ns) <= seconds) {
    const uint64_t round_start = NowNs();
    Round plain = RunRound(*setup, threads, nullptr, &errors);
    ++untraced_rounds;
    attempted += plain.attempted;
    failed += plain.failed;
    if (!rounds.empty()) {
      CheckVirtualIdentical(rounds.front(), plain.metrics, "virtual metrics differ across rounds",
                            &errors);
    }
    rounds.push_back(std::move(plain.metrics));
    if (traced) {
      last_tracer.emplace();
      Round t = RunRound(*setup, threads, &*last_tracer, &errors);
      attempted += t.attempted;
      failed += t.failed;
      CheckVirtualIdentical(rounds.front(), t.metrics, "traced replay changed a counter", &errors);
      t.metrics.Host("core.trace_overhead_pct", "%",
                     100.0 * (Ratio(t.replay_wall_s, plain.replay_wall_s) - 1.0));
      rounds.push_back(std::move(t.metrics));
    }
    last_ns = NowNs() - round_start;
  }
  if (last_tracer && !spans_path.empty()) {
    FILE* f = std::fopen(spans_path.c_str(), "w");
    if (f == nullptr) {
      errors.push_back("cannot write " + spans_path);
    } else {
      const std::string json = last_tracer->ToJson(name, seed);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }

  // Collate per-round values by metric, in first-seen order.
  std::vector<std::string> order;
  std::map<std::string, std::pair<const Metric*, std::vector<std::string>>> values;
  for (const MetricSet& r : rounds) {
    for (const Metric& m : r.items()) {
      auto [it, inserted] = values.try_emplace(m.name, &m, std::vector<std::string>{});
      if (inserted) {
        order.push_back(m.name);
      }
      it->second.second.push_back(Num(m.value));
    }
  }
  std::vector<std::string> metrics;
  for (const std::string& metric_name : order) {
    const auto& [metric, nums] = values.at(metric_name);
    metrics.push_back(Quote(metric->name) + ":{\"unit\":" + Quote(metric->unit) +
                      ",\"clock\":" + (metric->host ? "\"host\"" : "\"virtual\"") +
                      ",\"values\":" + JsonList(nums) + "}");
  }
  std::vector<std::string> seeds;
  for (const uint64_t s : setup->volume_seeds) {
    seeds.push_back(Num(s));
  }
  std::vector<std::string> quoted_errors;
  for (const std::string& e : errors) {
    quoted_errors.push_back(Quote(e));
  }
  const std::string out =
      "{\"workload\":" + Quote(name) + ",\"seed\":" + Num(seed) +
      ",\"volume_seeds\":" + JsonList(seeds) + ",\"scale\":" + Num(scale) +
      ",\"threads\":" + Num(uint64_t{threads}) + ",\"shards\":" + Num(uint64_t{kShards}) +
      ",\"rounds\":" + Num(uint64_t{rounds.size()}) +
      ",\"correct\":" + (errors.empty() ? "true" : "false") +
      ",\"errors\":" + JsonList(quoted_errors) + ",\"attempted\":" + Num(attempted) +
      ",\"failed\":" + Num(failed) + ",\"metrics\":" + JsonList(metrics, '{', '}') + "}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace flashtier::flashbench

int main(int argc, char** argv) {
  try {
    return flashtier::flashbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flashbench: %s\n", e.what());
    return 1;
  }
}
