// Figure 1 — Logical Block Address Distribution.
//
// For each workload, emulates caching by keeping the top-25% most-accessed
// blocks and reports the distribution of those blocks across 100,000-block
// regions of the disk address space: the cumulative percent of regions whose
// referenced-block count falls below each decade, mirroring the paper's CDF.
// Paper observation: >55% of regions have <1% of their blocks referenced and
// only 25% have >10%.

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  args.ExitOnBadFlags();
  PrintHeader("Figure 1: density of cached blocks across 100k-block regions");
  const std::vector<uint64_t> decades = {1, 10, 100, 1'000, 10'000, 100'000};
  std::printf("%-8s", "trace");
  for (uint64_t d : decades) {
    std::printf(" %9s<%-6" PRIu64, "%regions", d);
  }
  std::printf("\n");

  for (const WorkloadProfile& profile : profiles) {
    SyntheticWorkload workload(profile);
    TraceStats stats;
    stats.Consume(workload);
    const std::vector<uint64_t> densities = stats.RegionDensities(0.25);
    std::printf("%-8s", profile.name.c_str());
    for (uint64_t d : decades) {
      size_t below = 0;
      for (uint64_t v : densities) {
        if (v < d) {
          ++below;
        }
      }
      std::printf(" %15.1f", densities.empty()
                                 ? 0.0
                                 : 100.0 * static_cast<double>(below) /
                                       static_cast<double>(densities.size()));
    }
    std::printf("   (%zu regions)\n", densities.size());
    std::printf("%-8s regions with <1%% of blocks referenced: %.1f%%   "
                "with >10%% referenced: %.1f%%\n",
                "", 100.0 * stats.FractionOfRegionsBelow(0.25, 1.0),
                100.0 * (1.0 - stats.FractionOfRegionsBelow(0.25, 10.0)));
  }
  std::printf("\nPaper: >55%% of regions get <1%% of their blocks referenced; "
              "only 25%% get more than 10%%.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
