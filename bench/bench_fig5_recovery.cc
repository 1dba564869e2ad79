// Figure 5 — Recovery Time.
//
// For each workload: warm a write-back cache, then measure the time to make
// the cache usable again after a power failure for three designs:
//   FlashTier  : reload the SSC mapping — checkpoint read + log replay
//                (the cache-manager exists scan overlaps normal activity and
//                does not delay start-up, Section 6.4)
//   Native-FC  : the FlashCache manager reloads its per-block table from the
//                SSD's metadata region
//   Native-SSD : the SSD itself rebuilds its mapping by scanning OOB areas
//                (best case: reads just enough OOB to equal the map size)
//
// Measured at the scaled cache size; the "@paper" columns extrapolate
// linearly in cache size. Expected shape: FlashTier << Native-FC <<
// Native-SSD (paper: 34 ms-2.4 s vs 133 ms-9.4 s vs 468 ms-30 s).
//
// Flags: --scale, --workload (bench_common.h), --stats-json=FILE.

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  const std::string stats_json = args.GetString("stats-json", "");
  args.ExitOnBadFlags();
  PrintHeader("Figure 5: crash recovery time (seconds)");
  std::printf("%-8s %12s %12s %12s | %12s %12s %12s\n", "trace", "FlashTier", "Native-FC",
              "Native-SSD", "FT@paper", "N-FC@paper", "N-SSD@paper");

  const auto paper_cache_gb = [](const std::string& name) -> uint64_t {
    if (name == "homes") {
      return 2;
    }
    if (name == "mail") {
      return 14;
    }
    if (name == "usr") {
      return 95;
    }
    return 102;
  };
  for (const WorkloadProfile& profile : profiles) {
    const uint64_t cache_pages = CachePagesFor(profile);

    // FlashTier: warm an SSC write-back system, crash, recover.
    SystemConfig ft_config;
    ft_config.type = SystemType::kSscWriteBack;
    ft_config.cache_pages = cache_pages;
    ft_config.consistency = ConsistencyMode::kFull;
    FlashTierSystem ft(ft_config);
    const RunResult ft_result = ReplayWorkload(profile, ft_config, &ft, /*warmup_fraction=*/0.0);
    ft.ssc()->SimulateCrash();
    AssertOk(ft.ssc()->Recover());
    const double ft_s = static_cast<double>(ft.ssc()->last_recovery_us()) / 1e6;
    // Dumped after Recover() so the persist block carries the recovery-time
    // breakdown (checkpoint_load_us / log_replay_us / rebuild_us).
    AppendStatsJson(stats_json, "fig5", profile, ft_config, &ft, ft_result);

    // Native: warm the FlashCache-style system; estimate table reload and
    // the SSD's OOB scan.
    SystemConfig native_config;
    native_config.type = SystemType::kNativeWriteBack;
    native_config.cache_pages = cache_pages;
    FlashTierSystem native(native_config);
    ReplayWorkload(profile, native_config, &native, /*warmup_fraction=*/0.0);
    const double fc_s = static_cast<double>(native.native_manager()->RecoveryEstimateUs()) / 1e6;
    const double ssd_s = static_cast<double>(native.ssd()->RecoveryOobScanUs()) / 1e6;

    const double scale_up =
        static_cast<double>(paper_cache_gb(profile.name) * ((1ull << 30) / 4096)) /
        static_cast<double>(cache_pages);
    std::printf("%-8s %12.4f %12.4f %12.4f | %12.3f %12.3f %12.3f\n", profile.name.c_str(),
                ft_s, fc_s, ssd_s, ft_s * scale_up, fc_s * scale_up, ssd_s * scale_up);
  }
  std::printf("\nPaper: FlashTier 0.034-2.4 s; Native-FC 0.133-9.4 s; Native-SSD 0.468-30 s.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
