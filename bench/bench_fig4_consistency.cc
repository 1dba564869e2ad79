// Figure 4 — Consistency Cost.
//
// Write-back caching with four durability configurations:
//   No-consistency : SSC with persistence disabled (nothing logged)
//   Native-D       : FlashCache-style manager persisting dirty-block
//                    metadata to the SSD at runtime
//   FlashTier-D    : SSC logging with relaxed clean writes (buffered)
//   FlashTier-C/D  : SSC logging clean and dirty synchronously
// Each family is normalized to its own no-consistency baseline, isolating
// the cost of the durability machinery (the paper's comparison).
//
// Expected shape: native pays 18-29% on write-heavy homes/mail, 2-5% on
// read-heavy usr/proj; FlashTier pays 8-16% write-heavy, 0-7% read-heavy;
// added response time < ~26 us for FlashTier.
//
// Flags: --scale, --workload (bench_common.h), --stats-json=FILE.

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

struct Cell {
  double iops = 0;
  double response_us = 0;
};

Cell Run(const std::string& stats_json, const WorkloadProfile& profile, SystemType type,
         ConsistencyMode mode, bool native_metadata) {
  SystemConfig config;
  config.type = type;
  config.cache_pages = CachePagesFor(profile);
  config.consistency = mode;
  config.native_persist_metadata = native_metadata;
  FlashTierSystem system(config);
  const RunResult r = ReplayWorkload(profile, config, &system);
  AppendStatsJson(stats_json, "fig4", profile, config, &system, r);
  return {r.iops, r.mean_response_us};
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  const std::string stats_json = args.GetString("stats-json", "");
  args.ExitOnBadFlags();
  PrintHeader("Figure 4: cost of crash consistency (write-back), % of no-consistency IOPS");
  std::printf("%-8s %10s %10s %12s %14s | %22s\n", "trace", "Native-D", "FlashTier-D",
              "FlashTier-C/D", "(base IOPS)", "added response time (us)");
  for (const WorkloadProfile& profile : profiles) {
    const Cell native_base =
        Run(stats_json, profile, SystemType::kNativeWriteBack, ConsistencyMode::kNone, false);
    const Cell native_d =
        Run(stats_json, profile, SystemType::kNativeWriteBack, ConsistencyMode::kNone, true);
    const Cell ft_base =
        Run(stats_json, profile, SystemType::kSscWriteBack, ConsistencyMode::kNone, false);
    const Cell ft_d =
        Run(stats_json, profile, SystemType::kSscWriteBack, ConsistencyMode::kRelaxedClean, false);
    const Cell ft_cd =
        Run(stats_json, profile, SystemType::kSscWriteBack, ConsistencyMode::kFull, false);

    std::printf("%-8s %9.1f%% %9.1f%% %11.1f%% %6.0f/%6.0f | N-D %+6.1f  FT-D %+6.1f  "
                "FT-C/D %+6.1f\n",
                profile.name.c_str(), 100.0 * native_d.iops / native_base.iops,
                100.0 * ft_d.iops / ft_base.iops, 100.0 * ft_cd.iops / ft_base.iops,
                native_base.iops, ft_base.iops, native_d.response_us - native_base.response_us,
                ft_d.response_us - ft_base.response_us,
                ft_cd.response_us - ft_base.response_us);
  }
  std::printf("\nPaper: Native-D 71-82%% (homes/mail) and 95-98%% (usr/proj); "
              "FlashTier-D 85-92%% / ~100%%; FlashTier-C/D 84-89%% / ~93%%; "
              "FlashTier adds < 26 us response time.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
