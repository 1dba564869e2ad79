// Aging sweep — device lifetime under N x capacity written (DESIGN.md §5l).
//
// Replays a trace over and over against one long-lived SSC write-back system
// until the host has written --aging times the cache capacity, with wear-out
// retirement, read-disturb and retention faults active. Each workload runs
// twice from the same seed — static wear leveling + patrol scrubbing OFF,
// then ON — so the defense's effect is a same-trace A/B: the erase-count CV
// (wear balance) must drop, and retirement/miss-rate drift should soften.
//
// Per replay pass each arm reports how many capacities have been written,
// erase-count CV, write amplification, the pass's miss rate (drift shows as
// the series rises while retirement shrinks the usable cache), the retired
// share, and the wl_migrations / patrol_repairs counters. --stats-json
// appends one compact JSON line per pass for CI regression tracking.
//
// Flags beyond --scale, --workload, --threads, --shards, --depth and
// --stats-json:
//   --aging=5            capacities to write (the lifetime axis)
//   --wear-limit=64      erases before a block may wear out (0 = immortal)
//   --read-disturb-limit=512 --read-disturb-prob=0.02
//   --retention-age-us=2000000 --retention-prob=0.02
//   --wl-interval=32 --patrol-interval=64   cadence of the defenses (ON arm)
//   --fault-seed=1       seed of the fault draws, the same for both arms

#include <cinttypes>

#include "bench/bench_common.h"

namespace flashtier::bench {
namespace {

struct AgingKnobs {
  uint32_t aging = 5;
  uint32_t wear_limit = 64;
  uint32_t disturb_limit = 512;
  double disturb_prob = 0.02;
  uint64_t retention_age_us = 2'000'000;
  double retention_prob = 0.02;
  uint32_t wl_interval = 32;
  uint32_t patrol_interval = 64;
  uint64_t seed = 1;
};

struct ArmResult {
  double erase_cv = 0.0;
  double write_amp = 0.0;
  double final_miss_rate = 0.0;
  double retired_pct = 0.0;
  uint64_t wl_migrations = 0;
  uint64_t patrol_repairs = 0;
  uint64_t undetected = 0;  // stale reads the replay oracle caught
};

ArmResult RunArm(const WorkloadProfile& profile, const ParallelFlags& par,
                 const AgingKnobs& knobs, bool defenses_on, const std::string& stats_json) {
  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = CachePagesFor(profile);
  config.consistency = ConsistencyMode::kNone;  // wear study; logging off (Fig 6 style)
  config.shards = par.shards;
  config.flash_faults.enabled = true;
  config.flash_faults.seed = knobs.seed;
  config.flash_faults.wear_out_erases = knobs.wear_limit;
  config.flash_faults.read_disturb_limit = knobs.disturb_limit;
  config.flash_faults.read_disturb_prob = knobs.disturb_prob;
  config.flash_faults.retention_age_us = knobs.retention_age_us;
  config.flash_faults.retention_fail_prob = knobs.retention_prob;
  if (defenses_on) {
    config.wear_level_interval_writes = knobs.wl_interval;
    config.patrol_interval_writes = knobs.patrol_interval;
  }
  FlashTierSystem system(config);
  std::vector<const FlashDevice*> media;
  for (uint32_t i = 0; i < system.shard_count(); ++i) {
    media.push_back(&system.shard(i).ssc->device());
  }

  const uint64_t target_writes = knobs.aging * config.cache_pages;
  const char* arm = defenses_on ? "wl-on" : "wl-off";
  std::printf("  %-6s |   aged_x erase_cv  wr_amp  miss%%  retired%%   wl_mig  patrol\n", arm);

  ArmResult out;
  uint64_t prev_reads = 0;
  uint64_t prev_misses = 0;
  ReplayEngine::VerificationState verify_state;  // carries the oracle across passes
  for (uint32_t pass = 0; system.AggregateFtlStats().host_writes < target_writes; ++pass) {
    // Warm up only on the first pass; later passes are the device's old age.
    const double warmup = pass == 0 ? 0.15 : 0.0;
    const RunResult result = ReplayWorkload(profile, config, &system, warmup,
                                            /*verify=*/true, par.threads, par.depth,
                                            &verify_state);
    out.undetected += result.metrics.stale_reads;

    const FtlStats ftl = system.AggregateFtlStats();
    const FlashStats flash = system.AggregateFlashStats();
    const ManagerStats m = system.AggregateManagerStats();
    const uint64_t pass_reads = m.read_hits + m.read_misses - prev_reads;
    const uint64_t pass_misses = m.read_misses - prev_misses;
    prev_reads = m.read_hits + m.read_misses;
    prev_misses = m.read_misses;
    const double aged_x =
        static_cast<double>(ftl.host_writes) / static_cast<double>(config.cache_pages);
    const double miss_rate =
        pass_reads == 0 ? 0.0
                        : 100.0 * static_cast<double>(pass_misses) /
                              static_cast<double>(pass_reads);
    out.erase_cv = EraseCountCv(media);
    out.write_amp = ftl.ExtraWritesPerBlock(flash.page_writes, flash.gc_copies);
    out.final_miss_rate = miss_rate;
    out.retired_pct = system.RetiredCapacityPct();
    out.wl_migrations = ftl.wl_migrations;
    out.patrol_repairs = ftl.patrol_repairs;
    std::printf("  %-6s | %7.2fx   %6.3f  %6.2f %6.2f    %6.2f %8" PRIu64 " %7" PRIu64 "\n",
                "", aged_x, out.erase_cv, out.write_amp, miss_rate, out.retired_pct,
                out.wl_migrations, out.patrol_repairs);

    if (!stats_json.empty()) {
      const FaultStats faults = system.AggregateFaultStats();
      JsonLine line;
      line.String("bench", "aging")
          .String("workload", profile.name)
          .String("arm", arm)
          .Uint("pass", pass)
          .Double("aged_x", aged_x, 3)
          .Double("erase_cv", out.erase_cv, 4)
          .Double("write_amp", out.write_amp, 3)
          .Double("miss_rate", miss_rate, 3)
          .Double("retired_pct", out.retired_pct, 2)
          .Uint("wl_migrations", out.wl_migrations)
          .Uint("patrol_repairs", out.patrol_repairs)
          .Uint("retired_blocks", ftl.retired_blocks)
          .Uint("read_disturbs", faults.read_disturbs)
          .Uint("retention_failures", faults.retention_failures)
          .Uint("stale_reads", out.undetected);
      AppendStatsLine(stats_json, line);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  AgingKnobs knobs;
  knobs.aging = args.GetPositive("aging", knobs.aging);
  knobs.wear_limit = args.Get("wear-limit", knobs.wear_limit);
  knobs.disturb_limit = args.Get("read-disturb-limit", knobs.disturb_limit);
  knobs.disturb_prob = args.GetFraction("read-disturb-prob", knobs.disturb_prob);
  knobs.retention_age_us = args.Get("retention-age-us", knobs.retention_age_us);
  knobs.retention_prob = args.GetFraction("retention-prob", knobs.retention_prob);
  knobs.wl_interval = args.Get("wl-interval", knobs.wl_interval);
  knobs.patrol_interval = args.Get("patrol-interval", knobs.patrol_interval);
  knobs.seed = args.Get("fault-seed", knobs.seed);
  const ParallelFlags par = GetParallelFlags(args);
  const std::string stats_json = args.GetString("stats-json", "");
  const std::vector<WorkloadProfile> profiles = BenchProfiles(args);
  args.ExitOnBadFlags();

  PrintHeader("Aging: lifetime wear, endurance faults, and the §5l defenses");
  std::printf("writing %ux capacity per arm; wear limit %u erases, disturb %u reads @ %.3f, "
              "retention %" PRIu64 " us @ %.3f\n\n",
              knobs.aging, knobs.wear_limit, knobs.disturb_limit, knobs.disturb_prob,
              knobs.retention_age_us, knobs.retention_prob);

  int rc = 0;
  for (const WorkloadProfile& profile : profiles) {
    std::printf("%s (cache %" PRIu64 " pages):\n", profile.name.c_str(),
                CachePagesFor(profile));
    const ArmResult off = RunArm(profile, par, knobs, /*defenses_on=*/false, stats_json);
    const ArmResult on = RunArm(profile, par, knobs, /*defenses_on=*/true, stats_json);
    std::printf("  wear leveling %s erase CV: %.3f -> %.3f (%+.1f%%), retired %.2f%% -> "
                "%.2f%%, %" PRIu64 " migrations, %" PRIu64 " patrol repairs\n",
                on.erase_cv <= off.erase_cv ? "improved" : "WORSENED", off.erase_cv,
                on.erase_cv,
                off.erase_cv > 0.0 ? 100.0 * (on.erase_cv - off.erase_cv) / off.erase_cv : 0.0,
                off.retired_pct, on.retired_pct, on.wl_migrations, on.patrol_repairs);
    if (off.undetected != 0 || on.undetected != 0) {
      std::printf("  !! %" PRIu64 " undetected stale reads — correctness bug\n",
                  off.undetected + on.undetected);
      rc = 1;
    }
    std::printf("\n");
  }
  return rc;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
