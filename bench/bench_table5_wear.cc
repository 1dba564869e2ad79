// Table 5 — Wear Distribution, and Figure 6 — Garbage Collection Performance.
//
// The paper reports both from one experiment (Section 6.5), and so does this
// bench: write-through caching only (the device fully owns replacement),
// logging and checkpointing disabled, cache warmed with the first 15% of the
// trace. For SSD (copy-based GC), SSC (SE-Util silent eviction) and SSC-R
// (SE-Merge), Table 5 reports total erases, the maximum wear difference
// between any two blocks, write amplification (extra writes per block) and
// the cache miss rate; Figure 6 reports each device's IOPS as a percentage
// of the SSD's.
//
// Expected shape: on write-heavy homes/mail, SSC/SSC-R cut erases (~26/35%)
// and copying; write amp SSD > SSC > SSC-R; miss rate rises <= 2.5 pts (SSC)
// / 1.5 pts (SSC-R); wear diff shrinks; SSC +34-52% and SSC-R +71-83% IOPS.
// On read-heavy usr/proj, all three are close.
//
// Flags: --scale, --workload, --admission and its knobs (bench_common.h),
// --stats-json=FILE.

#include <array>
#include <cinttypes>
#include <vector>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

struct DeviceRow {
  double iops = 0;
  uint64_t erases = 0;
  uint32_t wear_diff = 0;
  double write_amp = 0;
  double miss_rate = 0;
};

DeviceRow Run(const WorkloadProfile& profile, SystemType type, const PolicyConfig& admission,
              const std::string& stats_json) {
  SystemConfig config;
  config.type = type;
  config.cache_pages = CachePagesFor(profile);
  config.consistency = ConsistencyMode::kNone;
  config.admission = admission;
  FlashTierSystem system(config);
  const RunResult result = ReplayWorkload(profile, config, &system, /*warmup_fraction=*/0.15);
  AppendStatsJson(stats_json, "table5", profile, config, &system, result);
  DeviceRow row;
  row.iops = result.iops;
  if (system.ssc() != nullptr) {
    row.erases = system.ssc()->flash_stats().erases;
    row.wear_diff = system.ssc()->device().MaxWearDiff();
    row.write_amp = system.ssc()->ExtraWritesPerBlock();
  } else {
    row.erases = system.ssd()->flash_stats().erases;
    row.wear_diff = system.ssd()->device().MaxWearDiff();
    row.write_amp = system.ssd()->ExtraWritesPerBlock();
  }
  row.miss_rate = system.manager().stats().MissRatePercent();
  return row;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  // --admission lets the wear table be re-read under a selective policy:
  // the economy shows up directly in the erase and write-amp columns.
  const PolicyConfig admission = GetAdmissionConfig(args);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  const std::string stats_json = args.GetString("stats-json", "");
  args.ExitOnBadFlags();
  PrintHeader("Table 5: erases, wear difference, write amplification, miss rate");
  if (admission.kind != AdmissionKind::kAdmitAll) {
    std::printf("admission policy: %s (SSC/SSC-R columns; the native SSD column stays "
                "unpoliced as the baseline)\n\n", AdmissionKindName(admission.kind));
  }
  std::printf("%-8s | %9s %9s %9s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s\n", "",
              "Erases", "", "", "WearDf", "", "", "WrAmp", "", "", "Miss%", "", "");
  std::printf("%-8s | %9s %9s %9s | %6s %6s %6s | %6s %6s %6s | %6s %6s %6s\n", "trace",
              "SSD", "SSC", "SSC-R", "SSD", "SSC", "SSC-R", "SSD", "SSC", "SSC-R", "SSD",
              "SSC", "SSC-R");
  std::vector<std::array<double, 3>> iops;  // SSD, SSC, SSC-R per profile
  for (const WorkloadProfile& profile : profiles) {
    const DeviceRow ssd =
        Run(profile, SystemType::kNativeWriteThrough, PolicyConfig{}, stats_json);
    const DeviceRow ssc = Run(profile, SystemType::kSscWriteThrough, admission, stats_json);
    const DeviceRow sscr = Run(profile, SystemType::kSscRWriteThrough, admission, stats_json);
    iops.push_back({ssd.iops, ssc.iops, sscr.iops});
    std::printf("%-8s | %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                " | %6u %6u %6u | %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f\n",
                profile.name.c_str(), ssd.erases, ssc.erases, sscr.erases, ssd.wear_diff,
                ssc.wear_diff, sscr.wear_diff, ssd.write_amp, ssc.write_amp, sscr.write_amp,
                ssd.miss_rate, ssc.miss_rate, sscr.miss_rate);
  }
  std::printf("\nPaper Table 5: homes 878k/829k/617k erases, wear diff 3094/864/431, "
              "write amp 2.30/1.84/1.30, miss 10.4/12.8/11.9; mail 881k/637k/526k, "
              "1044/757/181, 1.96/1.08/0.77, 15.6/16.9/16.5; usr and proj nearly equal "
              "across devices.\n");

  std::printf("\nFigure 6: free-space management (write-through, no logging), %% of SSD IOPS\n");
  std::printf("%-8s %12s %10s %10s %10s\n", "trace", "SSD-IOPS", "SSD", "SSC", "SSC-R");
  for (size_t p = 0; p < profiles.size(); ++p) {
    std::printf("%-8s %12.0f", profiles[p].name.c_str(), iops[p][0]);
    for (double device_iops : iops[p]) {
      std::printf(" %9.0f%%", iops[p][0] > 0 ? 100.0 * device_iops / iops[p][0] : 0.0);
    }
    std::printf("\n");
  }
  std::printf("\nPaper: homes/mail SSC 134-152%%, SSC-R 171-183%%; usr/proj ~100%%.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
