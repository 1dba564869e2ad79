// Scenario: a read-mostly content server (the paper's motivating Facebook
// use case — low-latency access to petabytes behind a flash cache).
//
// A write-through FlashTier system serves a photo-store-like workload: 95%
// reads with a Zipf-popular working set far larger than the cache. The demo
// shows (a) the steady-state speedup over going to disk, and (b) the paper's
// durability payoff: after a crash the cache restarts *warm* — no 14-hour
// refill from a disk array (Section 2).
//
//   $ ./webserver_cache [--requests=N]

#include <cinttypes>
#include <cstdio>

#include "src/core/flashtier.h"
#include "src/core/replay.h"
#include "src/trace/workload.h"
#include "src/util/args.h"

using namespace flashtier;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const uint64_t requests = args.GetPositive<uint64_t>("requests", 400'000);
  args.ExitOnBadFlags();

  WorkloadProfile photos;
  photos.name = "photo-store";
  photos.range_blocks = 40'000'000;  // ~150 GB volume
  photos.unique_blocks = 400'000;    // ~1.6 GB active content
  photos.full_unique_blocks = photos.unique_blocks;
  photos.total_ops = requests;
  photos.write_fraction = 0.05;  // uploads are rare
  photos.hot_zipf_s = 1.25;      // strongly popular content
  photos.cold_fraction = 0.20;
  photos.seed = 2024;

  SystemConfig config;
  config.type = SystemType::kSscWriteThrough;  // client cache: write-through
  config.cache_pages = photos.unique_blocks / 4;  // cache 25% of the content
  config.consistency = ConsistencyMode::kFull;

  std::printf("== web content cache (write-through SSC) ==\n");
  std::printf("volume %.0f GB, active content %.1f GB, cache %.1f GB\n\n",
              static_cast<double>(photos.RangeBytes()) / (1ull << 30),
              static_cast<double>(photos.unique_blocks) * 4096 / (1ull << 30),
              static_cast<double>(config.cache_pages) * 4096 / (1ull << 30));

  FlashTierSystem system(config);
  SyntheticWorkload workload(photos);
  ReplayEngine::Options opts;
  opts.warmup_fraction = 0.25;
  opts.verify = true;
  ReplayEngine engine(&system, opts);
  const ReplayMetrics warm = engine.Run(workload);

  std::printf("steady state : %8.0f IOPS, %5.0f us mean response, hit rate %4.1f%%\n",
              warm.Iops(), warm.MeanResponseUs(),
              100.0 * system.manager().stats().HitRate());
  if (warm.stale_reads != 0) {
    std::printf("!! stale reads detected\n");
    return 1;
  }

  // Power failure. The write-through manager holds NO state; the SSC
  // recovers its mapping and serving continues warm.
  system.ssc()->SimulateCrash();
  AssertOk(system.ssc()->Recover());
  std::printf("crash+recover: %.1f ms to reload the cache map\n",
              static_cast<double>(system.ssc()->last_recovery_us()) / 1000.0);

  // Re-run the measured phase; a volatile cache would start cold here.
  // (The oracle only covers one stream, so verification is first-run-only.)
  SyntheticWorkload again(photos);
  ReplayEngine::Options opts2 = opts;
  opts2.verify = false;
  ReplayEngine engine2(&system, opts2);
  const ReplayMetrics after = engine2.Run(again);
  std::printf("after crash  : %8.0f IOPS, %5.0f us mean response, hit rate %4.1f%%"
              "  (still warm)\n",
              after.Iops(), after.MeanResponseUs(),
              100.0 * system.manager().stats().HitRate());

  // What a cold restart costs at production scale (Section 2's motivation):
  // filling a 100 GB cache from a 500 IOPS disk system.
  const double paper_fill_hours =
      (100.0 * (1ull << 30) / 4096) / 500.0 / 3600.0;
  std::printf("\n(without a durable cache, the paper's 100 GB example would need "
              "~%.0f hours of disk reads to re-warm)\n", paper_fill_hours);
  return warm.stale_reads == 0 ? 0 : 1;
}
