// Ablation — disk-tier degradation and cache-assisted repair (DESIGN.md §5i).
//
// Replays each workload against the SSC write-back system once per latent-
// sector-error rate and reports how the stack degrades: the read miss rate
// and mean response stay nearly flat while rescued reads climb (the cache
// serves blocks whose disk sectors died), honest failures replace silent
// loss, and successful writebacks steadily repair the medium. The rate-0 row
// is bit-identical to running without any fault plan.
//
// The latent rate is the probability, per disk *read*, that the sector under
// it fails latently (sticky until a write heals it) — the LSE-per-IO framing
// of disk-reliability field studies, not an absolute sector count.
//
// Usage:
//   bench_ablation_diskguard [--workload=<name>] [--scale=<f>]
//       [--write-fail=<p>]   add a transient write-failure rate to the sweep
//       [--threads=<n>] [--shards=<n>] [--depth=<n>] [--stats-json=FILE]
//       [--verify]

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const ParallelFlags parallel = GetParallelFlags(args);
  const double write_fail = args.GetFraction("write-fail", 0.0);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  const bool verify = args.GetBool("verify", false);
  const std::string stats_json = args.GetString("stats-json", "");
  args.ExitOnBadFlags();

  PrintHeader("Ablation: disk-tier degradation (latent sector errors)");
  std::printf("system under test: SSC-WB; lse = latent failures per disk read\n\n");
  std::printf("%-8s %9s %7s %9s %9s %9s %8s %8s %8s %9s\n", "trace", "lse", "miss%",
              "mean_us", "fail/kop", "lost", "rescued", "repairs", "parked", "retries");

  const double rates[] = {0.0, 1e-5, 1e-4, 1e-3, 1e-2};
  for (const WorkloadProfile& profile : profiles) {
    for (double rate : rates) {
      SystemConfig config;
      config.type = SystemType::kSscWriteBack;
      config.cache_pages = CachePagesFor(profile);
      config.consistency = ConsistencyMode::kFull;
      config.shards = parallel.shards;
      config.disk_faults.enabled = rate > 0.0 || write_fail > 0.0;
      config.disk_faults.latent_prob = rate;
      config.disk_faults.write_fail_prob = write_fail;
      FlashTierSystem system(config);
      const RunResult r =
          ReplayWorkload(profile, config, &system, 0.15, verify, parallel.threads, parallel.depth);
      AppendStatsJson(stats_json, "ablation_diskguard", profile, config, &system, r);

      const ManagerStats m = system.AggregateManagerStats();
      const DiskStats d = system.AggregateDiskStats();
      const uint64_t reads = m.read_hits + m.read_misses;
      const double miss_rate = reads != 0 ? 100.0 * (double)m.read_misses / (double)reads : 0.0;
      const uint64_t ops = r.metrics.requests != 0 ? r.metrics.requests : 1;
      std::printf("%-8s %9.0e %6.2f%% %9.2f %9.3f %9" PRIu64 " %8" PRIu64 " %8" PRIu64
                  " %8" PRIu64 " %9" PRIu64 "\n",
                  profile.name.c_str(), rate, miss_rate, r.mean_response_us,
                  1000.0 * (double)r.metrics.failed_requests / (double)ops, m.lost_dirty,
                  m.rescued_reads, d.sector_repairs, m.parked_writebacks, d.retries);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("Read: rescued counts reads served from cache over a dead disk sector;\n"
              "repairs counts latent sectors healed by writebacks. fail/kop are honest\n"
              "refusals surfaced to the host (kIoError/kTimeout) — never silent loss,\n"
              "which the replay oracle would report as stale reads.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
