// Table 3 — Workload Characteristics.
//
// Generates the four synthetic traces and reports the statistics the paper
// tabulates: address range, unique blocks, total ops, and write percentage,
// plus the Section 2 skew observation (writes/block of the hot 25% vs all).
// The "paper @ scale" columns show the Table 3 figures multiplied by each
// trace's scale factor, which is what the generator targets.

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  args.ExitOnBadFlags();
  PrintHeader("Table 3: workload characteristics (generated vs targeted)");
  std::printf("%-8s %12s %14s %14s %9s %16s\n", "trace", "range(GB)", "unique-blocks",
              "total-ops", "%writes", "hot25x-writes/blk");
  for (const WorkloadProfile& profile : profiles) {
    SyntheticWorkload workload(profile);
    TraceStats stats;
    stats.Consume(workload);
    const double range_gb = static_cast<double>(stats.range_bytes()) / (1ull << 30);
    std::printf("%-8s %12.1f %14" PRIu64 " %14" PRIu64 " %9.1f %10.1fx\n",
                profile.name.c_str(), range_gb, stats.unique_blocks(), stats.total_ops(),
                100.0 * stats.write_fraction(),
                stats.MeanWritesPerBlock(1.0) > 0
                    ? stats.MeanWritesPerBlock(0.25) / stats.MeanWritesPerBlock(1.0)
                    : 0.0);
    std::printf("%-8s %12.1f %14" PRIu64 " %14" PRIu64 " %9.1f   (target)\n", "",
                static_cast<double>(profile.RangeBytes()) / (1ull << 30),
                profile.unique_blocks, profile.total_ops, 100.0 * profile.write_fraction);
  }
  std::printf("\nPaper Table 3 (full traces): homes 532GB/1.68M/17.8M/95.9%%, "
              "mail 277GB/15.1M/462M/88.5%%, usr 530GB/99.5M/116M/5.9%%, "
              "proj 816GB/107.5M/311M/14.2%%\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
