// Ablation — slab packing and the tiny-object flash-write economy
// (DESIGN.md §5k).
//
// Replays the kv-zipf object workload against the KvCache once per
// (placement, admission policy) pair. The placement axis is the tentpole
// claim: the naive one-object-per-slab baseline pays a full flash page
// program per admitted Set, while slab packing amortises one page program
// over every object that fits in the slab. The headline column is
// fwrite/set — medium data-page programs (seals plus GC copies) per admitted
// object — and the vs-naive column is the reduction factor against the naive
// row with the same admission policy (≥ 3× is the acceptance bar).
//
// Packing also buys density: at equal page capacity the packed cache holds
// an order of magnitude more objects, so its hit rate rises while its wear
// falls. The admission axis shows the policies compose per object exactly as
// they do per block: a selective policy keeps one-touch keys out of flash
// and trims writes further at a small hit-rate cost.
//
// Usage:
//   bench_ablation_kv [--scale=<f>] [--ops=<n>] [--keys=<n>]
//       [--admission=<name>]   restrict the sweep to one policy
//       [--placement=<name>]   restrict to naive | packed-1 | packed-2 | packed-4
//       [--capacity-pages=<n>] per-cache flash pages (default 1024)
//       [--dirty]              replay Sets as write-back (dirty) objects
//       [--threads=<n>] [--shards=<n>] [--depth=<n>] [--stats-json=FILE]

#include <cinttypes>

#include "bench/bench_common.h"
#include "src/kv/kv_cache.h"
#include "src/kv/kv_replay.h"

namespace flashtier::bench {
namespace {

struct Placement {
  const char* name;
  bool packing;
  uint32_t slab_pages;
};

// One JSON-lines row per run, mirroring AppendStatsJson's schema where the
// fields overlap so the perf-smoke baseline diff can reuse the same
// strip-and-compare logic. Everything except the wall-clock fields is
// virtual-time deterministic.
void AppendKvStatsJson(const std::string& path, const KvWorkloadProfile& profile,
                       const char* placement, const char* policy,
                       const KvReplayMetrics& m) {
  if (path.empty()) {
    return;
  }
  JsonLine line;
  line.String("bench", "ablation_kv")
      .String("workload", profile.name)
      .String("placement", placement)
      .String("policy", policy);
  ReplayJson(line, m).Uint("failed_requests", m.failed_requests);
  HostJson(line, m)
      .Block("policy_stats", m.policy)
      .Block("persist", m.persist)
      .Block("flash", m.flash);
  KvJson(line, m.kv, m.flash_writes_per_set);
  AppendStatsLine(path, line);
}

int Main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  const ParallelFlags parallel = GetParallelFlags(args);
  const PolicyConfig base = GetAdmissionConfig(args);
  const bool only_one_policy = args.Has("admission");
  const std::string only_placement = args.GetString("placement", "");

  // kv-zipf defaults scale together so --scale shrinks the run without
  // changing the footprint-to-capacity shape; --ops / --keys override.
  const double scale = args.GetDouble("scale", 1.0);
  KvWorkloadProfile profile;
  profile.total_ops = static_cast<uint64_t>(args.GetPositiveInt(
      "ops", static_cast<int64_t>(static_cast<double>(profile.total_ops) * scale)));
  profile.unique_keys = static_cast<uint64_t>(args.GetPositiveInt(
      "keys", static_cast<int64_t>(static_cast<double>(profile.unique_keys) * scale)));
  const auto capacity_pages =
      static_cast<uint64_t>(args.GetPositiveInt("capacity-pages", 1024));
  const bool dirty_sets = args.GetBool("dirty", false);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 2;
  }

  const Placement placements[] = {{"naive", false, 1},
                                  {"packed-1", true, 1},
                                  {"packed-2", true, 2},
                                  {"packed-4", true, 4}};
  if (!only_placement.empty()) {
    bool known = false;
    for (const Placement& p : placements) {
      known = known || only_placement == p.name;
    }
    if (!known) {
      std::fprintf(stderr,
                   "unknown --placement '%s' (valid: naive, packed-1, packed-2, packed-4)\n",
                   only_placement.c_str());
      return 2;
    }
  }

  PrintHeader("Ablation: KV slab packing vs. flash-write economy");
  std::printf("workload %s: %" PRIu64 " ops over %" PRIu64 " keys, cache %" PRIu64
              " pages, %s sets\n\n",
              profile.name.c_str(), profile.total_ops, profile.unique_keys, capacity_pages,
              dirty_sets ? "dirty (write-back)" : "clean (write-through)");
  std::printf("%-9s %-11s %7s %9s %8s %8s %9s %10s %9s\n", "placement", "policy", "hit%",
              "rejects", "fills", "compact", "reclaim", "fwrite/set", "vs-naive");

  const AdmissionKind kinds[] = {AdmissionKind::kAdmitAll, AdmissionKind::kGhostLru,
                                 AdmissionKind::kFrequencySketch};
  for (AdmissionKind kind : kinds) {
    if (only_one_policy && kind != base.kind) {
      continue;
    }
    double naive_writes_per_set = 0.0;
    for (const Placement& placement : placements) {
      if (!only_placement.empty() && only_placement != placement.name) {
        continue;
      }
      KvCacheConfig config;
      config.shards = parallel.shards;
      config.packing = placement.packing;
      config.slab_pages = placement.slab_pages;
      config.admission = base;
      config.admission.kind = kind;
      config.ssc.capacity_pages = capacity_pages;
      KvCache cache(config);

      KvZipfWorkload workload(profile);
      KvReplayEngine::Options opts;
      opts.threads = parallel.threads;
      opts.queue_depth = parallel.depth;
      opts.dirty_sets = dirty_sets;
      KvReplayEngine engine(&cache, opts);
      const KvReplayMetrics m = engine.Run(workload);
      AppendKvStatsJson(args.GetString("stats-json", ""), profile, placement.name,
                        AdmissionKindName(kind), m);

      if (&placement == &placements[0]) {
        naive_writes_per_set = m.flash_writes_per_set;
      }
      const double ratio = m.flash_writes_per_set > 0.0
                               ? naive_writes_per_set / m.flash_writes_per_set
                               : 0.0;
      std::printf("%-9s %-11s %6.2f%% %9" PRIu64 " %8" PRIu64 " %8" PRIu64 " %9" PRIu64
                  " %10.4f %8.1fx\n",
                  placement.name, AdmissionKindName(kind), 100.0 * m.kv.HitRate(),
                  m.kv.rejected_sets, m.kv.slab_fills, m.kv.compactions,
                  m.kv.slots_reclaimed, m.flash_writes_per_set, ratio);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Read: fwrite/set counts medium data-page programs (slab seals + GC copies)\n"
              "per admitted Set. The naive row pays ~1 page program per object; packed\n"
              "rows amortise one program over a whole slab, so vs-naive is the packing\n"
              "win (the acceptance bar is >= 3x at every admission policy).\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
