// Ablation: silent-eviction design choices.
//
// Sweeps the knobs behind Section 4.3's policies on a write-heavy workload:
//   * eviction policy (SE-Util vs SE-Merge),
//   * victims reclaimed per GC cycle (top-k),
//   * the SE-Merge log ceiling (max_log_fraction).
// Reports IOPS, erases, copies and miss rate so the contribution of each
// mechanism is visible in isolation. Its one flag, --scale (default 0.5),
// multiplies mail's default scale.

#include <cinttypes>

#include <algorithm>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

struct Result {
  double iops = 0;
  uint64_t erases = 0;
  uint64_t copies = 0;
  uint64_t evicted_pages = 0;
  double miss = 0;
};

Result Run(const WorkloadProfile& profile, EvictionPolicy policy, uint32_t top_k,
           double max_log_fraction) {
  SimClock clock;
  DiskModel disk(&clock);
  SscConfig config;
  // Size the cache against the *replayed* working set (not the full-trace
  // rule) so replacement pressure — the thing being ablated — is present.
  config.capacity_pages = std::max<uint64_t>(1024, profile.unique_blocks / 4);
  config.policy = policy;
  config.mode = ConsistencyMode::kNone;
  config.gc_victims_per_cycle = top_k;
  config.max_log_fraction = max_log_fraction;
  SscDevice ssc(config, &clock);
  AdmitAllPolicy admit_all;
  WriteThroughManager manager(&ssc, &disk, admit_all);

  SyntheticWorkload workload(profile);
  TraceRecord r;
  uint64_t n = 0;
  uint64_t measured_start_us = 0;
  uint64_t measured_ops = 0;
  const uint64_t warm = profile.total_ops * 15 / 100;
  while (workload.Next(&r)) {
    uint64_t token = 0;
    if (r.op == TraceOp::kWrite) {
      // Misses/backpressure are measured outcomes of the sweep, not errors;
      // the ablation reads its results from the device counters.
      (void)manager.Write(r.lbn, n);
    } else {
      (void)manager.Read(r.lbn, &token);
    }
    if (++n == warm) {
      measured_start_us = clock.now_us();
    }
  }
  measured_ops = n - warm;

  Result res;
  res.iops = static_cast<double>(measured_ops) * 1e6 /
             static_cast<double>(clock.now_us() - measured_start_us);
  res.erases = ssc.flash_stats().erases;
  res.copies = ssc.flash_stats().gc_copies;
  res.evicted_pages = ssc.ftl_stats().silently_evicted_pages;
  res.miss = manager.stats().MissRatePercent();
  return res;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = args.GetPositive("scale", 0.5);
  args.ExitOnBadFlags();
  PrintHeader("Ablation: silent-eviction policy knobs (write-through, mail workload)");
  const WorkloadProfile profile = MailProfile(DefaultScale("mail") * scale);

  std::printf("%-28s %10s %10s %10s %12s %8s\n", "configuration", "IOPS", "erases",
              "gc-copies", "evicted-pgs", "miss%");
  struct Row {
    const char* name;
    EvictionPolicy policy;
    uint32_t top_k;
    double max_log;
  };
  const Row rows[] = {
      {"SE-Util k=1", EvictionPolicy::kSeUtil, 1, 0.20},
      {"SE-Util k=4 (default)", EvictionPolicy::kSeUtil, 4, 0.20},
      {"SE-Util k=16", EvictionPolicy::kSeUtil, 16, 0.20},
      {"SE-Merge log<=10%", EvictionPolicy::kSeMerge, 4, 0.10},
      {"SE-Merge log<=20% (default)", EvictionPolicy::kSeMerge, 4, 0.20},
      {"SE-Merge log<=30%", EvictionPolicy::kSeMerge, 4, 0.30},
  };
  for (const Row& row : rows) {
    const Result r = Run(profile, row.policy, row.top_k, row.max_log);
    std::printf("%-28s %10.0f %10" PRIu64 " %10" PRIu64 " %12" PRIu64 " %7.2f%%\n", row.name,
                r.iops, r.erases, r.copies, r.evicted_pages, r.miss);
  }
  std::printf("\nReading: higher top-k amortizes GC scans but evicts more at once; a larger\n"
              "SE-Merge log ceiling trades mapping memory for fewer, cheaper merges.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
