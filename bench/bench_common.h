// Shared scaffolding for the paper-reproduction benches: per-workload default
// scales, system construction, replay helpers, and table formatting.
//
// Every bench reads all of its flags, each only on the path that uses its
// value, and then calls args.ExitOnBadFlags() before it replays anything: a
// flag the bench does not read, or a value that does not parse into its
// type, exits 2 naming the flag (src/util/args.h). The helpers below read the
// flags several benches share:
//   BenchProfiles      --scale=<f> (multiplies the default per-workload
//                      scale) and --workload=<homes|mail|usr|proj>
//   GetParallelFlags   --threads=<n>, --shards=<n> (8 when --threads is
//                      given, else 1) and --depth=<n> (host queue depth per
//                      shard; N > 1 replays open-loop on the pipeline)
//   GetAdmissionConfig --admission=<name> and the knobs of each policy the
//                      run replays
// Each bench's header names the rest, such as --verify (the stale-read
// oracle) and --stats-json=FILE (one JSON line per run).

#ifndef FLASHTIER_BENCH_BENCH_COMMON_H_
#define FLASHTIER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "src/core/flashtier.h"
#include "src/core/replay.h"
#include "src/kv/kv_stats.h"
#include "src/trace/trace_stats.h"
#include "src/trace/workload.h"
#include "src/util/args.h"
#include "src/util/json.h"

namespace flashtier::bench {

inline bool KnownWorkload(const std::string& name) {
  return name == "homes" || name == "mail" || name == "usr" || name == "proj";
}

// Default downscaling per workload: chosen so a full bench finishes in
// minutes on one core while preserving each trace's structure (see
// EXPERIMENTS.md). Paper-replayed sizes are scale = 1.0. Unknown names are
// fatal — a typo must not silently run the proj defaults.
inline double DefaultScale(const std::string& name) {
  if (name == "homes") {
    return 0.10;  // 1.78 M ops
  }
  if (name == "mail") {
    return 0.08;  // 1.6 M ops
  }
  if (name == "usr") {
    return 0.012;  // 1.2 M ops
  }
  if (name == "proj") {
    return 0.012;  // 1.2 M ops
  }
  std::fprintf(stderr, "unknown workload '%s' (valid: homes, mail, usr, proj)\n", name.c_str());
  std::exit(2);
}

// --workload: one of homes/mail/usr/proj, or "" for all four. An unknown name
// exits 2.
inline std::string GetWorkload(const ArgParser& args) {
  const std::string only = args.GetString("workload", "");
  if (!only.empty() && !KnownWorkload(only)) {
    std::fprintf(stderr, "unknown --workload '%s' (valid: homes, mail, usr, proj)\n",
                 only.c_str());
    std::exit(2);
  }
  return only;
}

inline std::vector<WorkloadProfile> BenchProfiles(const ArgParser& args) {
  const double factor = args.GetPositive("scale", 1.0);
  const std::string only = GetWorkload(args);
  std::vector<WorkloadProfile> out;
  for (const char* profile : {"homes", "mail", "usr", "proj"}) {
    const std::string name = profile;
    if (!only.empty() && only != name) {
      continue;
    }
    const double scale = DefaultScale(name) * factor;
    if (name == "homes") {
      out.push_back(HomesProfile(scale));
    } else if (name == "mail") {
      out.push_back(MailProfile(scale));
    } else if (name == "usr") {
      out.push_back(UsrProfile(scale));
    } else {
      out.push_back(ProjProfile(scale));
    }
  }
  return out;
}

// The paper sizes each cache to hold the top 25% most-accessed blocks of the
// *full* trace (Section 6.1) even when only a prefix is replayed — for mail,
// usr and proj the cache is therefore large relative to the replayed traffic.
inline uint64_t CachePagesFor(const WorkloadProfile& profile, double fraction = 0.25) {
  const uint64_t base =
      profile.full_unique_blocks != 0 ? profile.full_unique_blocks : profile.unique_blocks;
  const auto pages = static_cast<uint64_t>(static_cast<double>(base) * fraction);
  return pages < 1024 ? 1024 : pages;
}

inline void PrintHeader(const char* title) {
  using T = FlashTimings;
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("FlashTier reproduction — EuroSys'12 (Saxena, Swift, Zhang)\n");
  std::printf("Emulation parameters (Table 2): page read/write %lu/%lu us, "
              "erase %lu us, bus/ctrl %lu/%lu us, 10 planes, 64 pages/block, 4 KB pages\n",
              (unsigned long)T::kPageReadUs, (unsigned long)T::kPageWriteUs,
              (unsigned long)T::kBlockEraseUs, (unsigned long)T::kBusControlUs,
              (unsigned long)T::kControlUs);
  std::printf("==============================================================\n");
}

// --threads / --shards. The shard count — not the thread count — is what
// changes system behaviour, so when --threads is given without an explicit
// --shards the shard count defaults to 8: `--threads=1` and `--threads=8`
// then replay the *same* 8-shard system and their virtual-time metrics must
// match bit for bit (only wall_clock_us may differ). Plain runs (neither
// flag) keep the classic single-shard system.
struct ParallelFlags {
  uint32_t threads = 1;
  uint32_t shards = 1;
  uint32_t depth = 1;
};

inline ParallelFlags GetParallelFlags(const ArgParser& args) {
  ParallelFlags flags;
  flags.shards = args.GetPositive<uint32_t>("shards", args.Has("threads") ? 8 : 1);
  flags.threads = args.GetPositive<uint32_t>("threads", 1);
  flags.depth = args.GetPositive<uint32_t>("depth", 1);
  return flags;
}

// --admission=<name>, plus the tuning knobs of each policy the run replays:
// the named one, or without --admission every kind in `sweep` (admit-all
// alone when the bench sweeps none). Unknown names are fatal (exit 2), like
// unknown workloads: a typo must not silently run admit-all. The returned
// config rides in SystemConfig::admission.
inline PolicyConfig GetAdmissionConfig(const ArgParser& args,
                                       std::span<const AdmissionKind> sweep = {}) {
  PolicyConfig config;
  const std::string name = args.GetString("admission", "admit-all");
  if (!ParseAdmissionKind(name, &config.kind)) {
    std::fprintf(stderr, "unknown --admission '%s' (valid: %s)\n", name.c_str(),
                 KnownAdmissionNames());
    std::exit(2);
  }
  const auto replays = [&](AdmissionKind kind) {
    return kind == config.kind ||
           (!args.Has("admission") && std::find(sweep.begin(), sweep.end(), kind) != sweep.end());
  };
  if (replays(AdmissionKind::kGhostLru)) {
    config.ghost_entries = args.GetPositive("ghost-entries", config.ghost_entries);
    config.ghost_required_misses = args.GetPositive("ghost-misses", config.ghost_required_misses);
  }
  if (replays(AdmissionKind::kFrequencySketch)) {
    config.seed = args.Get("admission-seed", config.seed);
    config.sketch_width = args.GetPositive("sketch-width", config.sketch_width);
    config.sketch_threshold = args.GetPositive("sketch-threshold", config.sketch_threshold);
  }
  if (replays(AdmissionKind::kWriteRateLimiter)) {
    config.write_rate_pages_per_sec = args.Get("write-rate", config.write_rate_pages_per_sec);
    config.write_burst_pages = args.Get("write-burst", config.write_burst_pages);
  }
  return config;
}

struct RunResult {
  ReplayMetrics metrics;
  double iops = 0.0;
  double mean_response_us = 0.0;
};

// Builds a system for `type`, replays `profile` (with warmup), returns
// metrics. The system outlives the call through `system_out` when the caller
// needs device statistics.
inline RunResult ReplayWorkload(const WorkloadProfile& profile, const SystemConfig& config,
                                FlashTierSystem* system, double warmup_fraction = 0.15,
                                bool verify = false, uint32_t threads = 1,
                                uint32_t queue_depth = 1,
                                ReplayEngine::VerificationState* verify_state = nullptr) {
  SyntheticWorkload workload(profile);
  ReplayEngine::Options opts;
  opts.warmup_fraction = warmup_fraction;
  opts.verify = verify;
  opts.threads = threads;
  opts.queue_depth = queue_depth;
  // Multi-pass benches hand the oracle from pass to pass: a fresh oracle
  // would flag reads of data an earlier pass wrote into the cache.
  opts.resume_verification = verify_state;
  ReplayEngine engine(system, opts);
  RunResult result;
  result.metrics = engine.Run(workload);
  if (verify && verify_state != nullptr) {
    *verify_state = engine.ExportVerificationState();
  }
  result.iops = result.metrics.Iops();
  result.mean_response_us = result.metrics.MeanResponseUs();
  if (result.metrics.stale_reads != 0) {
    std::printf("!! %llu STALE READS in %s — correctness bug\n",
                (unsigned long long)result.metrics.stale_reads,
                SystemTypeName(config.type).c_str());
  }
  return result;
}

// Appends one JSON line to the --stats-json file at `path`. A file that
// cannot be opened is fatal (exit 2), like a bad flag: a sweep must not lose
// its rows silently.
inline void AppendStatsLine(const std::string& path, JsonLine& line) {
  if (!WriteLine(path, line.Finish())) {
    std::fprintf(stderr, "cannot open %s for stats dump\n", path.c_str());
    std::exit(2);
  }
}

inline JsonLine& PercentilesJson(JsonLine& line, const LatencyHistogram& h) {
  return line.Double("p50_us", h.PercentileUs(50), 2)
      .Double("p95_us", h.PercentileUs(95), 2)
      .Double("p99_us", h.PercentileUs(99), 2)
      .Double("p999_us", h.PercentileUs(99.9), 2);
}

// The replay fields block and KV rows share: virtual-time throughput and
// latency, then the request count.
template <typename Metrics>
JsonLine& ReplayJson(JsonLine& line, const Metrics& m) {
  line.Double("iops", m.Iops(), 1).Double("mean_response_us", m.MeanResponseUs(), 2);
  return PercentilesJson(line, m.response_us).Uint("requests", m.requests);
}

// The host side of a replay: its parallel shape and wall-clock throughput,
// the only thread-dependent fields of a row.
template <typename Metrics>
JsonLine& HostJson(JsonLine& line, const Metrics& m) {
  return line.Uint("threads", m.threads)
      .Uint("shards", m.shards)
      .Uint("depth", m.queue_depth)
      .Uint("wall_clock_us", m.wall_clock_us)
      .Double("replay_ops_per_sec", m.ReplayOpsPerSec(), 1);
}

// The tiny-object KV block every stats line carries (DESIGN.md §5k). Block
// benches have no KV layer and write zeros; bench_ablation_kv passes the real
// aggregate. Keeping the block in every line keeps the schema uniform for
// downstream tooling.
inline JsonLine& KvJson(JsonLine& line, const KvStats& kv, double flash_writes_per_set) {
  return line.Object("kv")
      .Counters(kv)
      .Double("flash_writes_per_set", flash_writes_per_set, 4)
      .End();
}

// Appends one JSON line with this run's counters to `path`: replay metrics,
// then every counter block of the system, each the whole stats struct summed
// across shards (so the line is shard-count agnostic). The shard/thread
// configuration and wall-clock throughput ride along so a sweep can plot
// scaling without re-parsing the command line. Machine-readable companion to
// the printf tables.
inline void AppendStatsJson(const std::string& path, const char* bench,
                            const WorkloadProfile& profile, const SystemConfig& config,
                            FlashTierSystem* system, const RunResult& result) {
  if (path.empty()) {
    return;
  }
  const ReplayMetrics& m = result.metrics;
  JsonLine line;
  line.String("bench", bench)
      .String("workload", profile.name)
      .String("system", SystemTypeName(config.type))
      .String("policy", system->admission_name());
  ReplayJson(line, m)
      .Uint("stale_reads", m.stale_reads)
      .Uint("failed_requests", m.failed_requests)
      .Uint("read_errors", m.read_errors);
  HostJson(line, m);
  // Every system has a disk and an admission policy (admit-all by default),
  // so those blocks are always present; without fault plans the fault
  // counters are simply zero.
  line.Block("manager", system->AggregateManagerStats())
      .Block("disk", system->AggregateDiskStats())
      .Block("policy_stats", system->AggregatePolicyStats());
  if (system->ssc() != nullptr) {
    line.Block("persist", system->AggregatePersistStats());
  }
  if (system->ssc() != nullptr || system->ssd() != nullptr) {
    line.Block("flash", system->AggregateFlashStats())
        .Object("ftl")
        .Counters(system->AggregateFtlStats())
        .Double("retired_capacity_pct", system->RetiredCapacityPct(), 2)
        .End()
        .Block("faults", system->AggregateFaultStats());
  }
  KvJson(line, KvStats{}, 0.0);
  AppendStatsLine(path, line);
}

}  // namespace flashtier::bench

#endif  // FLASHTIER_BENCH_BENCH_COMMON_H_
