// flashcheck: FlashTier crash-consistency model checker.
//
// Default mode runs a deterministic mixed workload against a small SSC,
// injects a simulated power failure at every durability commit point the
// workload crosses (log appends, flush boundaries, checkpoint boundaries —
// including every checkpoint segment — and silent-eviction erase barriers),
// recovers, and verifies the recovered cache against a shadow model of every
// acknowledged operation (guarantees G1, G2, G3 from Section 3.2). Crashes
// are additionally injected *inside* recovery, at every RecoveryPoint phase
// boundary — including double crashes (power failing again inside the
// recovery from the recovery crash). Each recovered device is audited with
// the structural InvariantChecker.
//
// --soak=N switches to the crash-storm soak harness: N seeded
// crash → recover → verify → resume cycles against one long-lived device
// set, with crash points drawn across commit and recovery points, a shadow-
// model equivalence check after every cycle, and a recovery-time budget.
// --aging=N replays the workload through N device capacities of host writes
// with wear faults active, auditing at every epoch. --kv checks the
// tiny-object KV layer (exploration, or soak with --soak=N), and
// --disk-faults drives the cache managers over a faulty disk tier. Every
// mode runs on the one crash-cycle engine in src/check/engine.h and reads
// the same device-shape flags, plus the flags of its own driver.
//
// Exit status is 0 iff no violation was found, so the tool can gate CI; with
// a --break-* self-test flag it is 0 iff violations *were* found. A flag the
// chosen mode does not read exits 2 with the usage text below, like an
// unknown one.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/check/aging.h"
#include "src/check/crash_explorer.h"
#include "src/check/disk_guard.h"
#include "src/check/kv_check.h"
#include "src/check/soak.h"
#include "src/policy/policy_factory.h"
#include "src/util/args.h"
#include "src/util/json.h"

namespace {

constexpr const char* kUsage =
    "usage: flashcheck [mode] [options]\n"
    "\n"
    "modes (one per run):\n"
    "  (default)              explore every durability commit point: run the\n"
    "                         scripted workload once per point with a crash\n"
    "                         injected there, recover, verify G1-G3 + the\n"
    "                         structural invariants; then explore crashes\n"
    "                         inside recovery (incl. double crashes)\n"
    "  --soak=N               crash-storm soak: N seeded crash->recover->\n"
    "                         verify->resume cycles on one long-lived device\n"
    "  --aging=N              device-lifetime aging: replay the workload mix\n"
    "                         until N x capacity has been written, with wear-\n"
    "                         out retirement, read-disturb and retention\n"
    "                         faults active and the endurance defenses (wear\n"
    "                         leveling, patrol scrub, capacity degradation)\n"
    "                         on their normal cadence; audits invariants and\n"
    "                         the shadow model at every 1x-capacity epoch\n"
    "  --kv                   check the tiny-object KV layer (DESIGN.md §5k):\n"
    "                         explore every commit point a mixed object\n"
    "                         workload crosses (or --soak=N cycles on one\n"
    "                         long-lived KvCache), verify object G1-G3 via a\n"
    "                         shadow sweep + InvariantChecker::CheckKv\n"
    "  --disk-faults          DiskGuard: drive cache managers over a faulty\n"
    "                         disk tier (latent sectors, transient failures,\n"
    "                         slow IO) with retry/backoff, parked writebacks,\n"
    "                         cache-assisted repair and a host-level shadow,\n"
    "                         for 8 crash cycles (--soak=N: N cycles)\n"
    "  (--aging, --kv and --disk-faults exclude each other; --soak=N composes\n"
    "  with --kv and --disk-faults, not with --aging: exit 2)\n"
    "\n"
    "every mode:\n"
    "  --capacity-pages=512 --shards=1 --policy=se-util|se-merge\n"
    "  --mode=full|relaxed --admission=admit-all|ghost-lru|freq-sketch|write-limit\n"
    "  --group-commit-ops=16 --checkpoint-interval=250\n"
    "  --log-region-pages=4 --segment-entries=16\n"
    "  (--aging defaults: --group-commit-ops=10000\n"
    "  --checkpoint-interval=1000000 --log-region-pages=4096\n"
    "  --segment-entries=1024)\n"
    "  --seed=42 --no-invariants --verbose\n"
    "  --faults               inject flash faults (options below)\n"
    "  --break-retry          self-test (requires --faults): bad-block\n"
    "                         retirement is disabled, the audits MUST\n"
    "                         report violations\n"
    "\n"
    "fault options (with --faults):\n"
    "  --fault-seed=1 --program-fail=0.01 --erase-fail=0.05\n"
    "  --read-corrupt=0.005 --wear-limit=0\n"
    "  --read-disturb-limit=0 --read-disturb-prob=0 (reads past the limit\n"
    "  since the block's last erase may corrupt; erase resets the exposure)\n"
    "  --retention-age-us=0 --retention-prob=0 (pages resident longer than\n"
    "  the age may corrupt when read)\n"
    "  (--aging defaults: --wear-limit=6 --read-disturb-limit=64\n"
    "  --read-disturb-prob=0.05 --retention-age-us=300000 --retention-prob=0.05)\n"
    "\n"
    "commit-point exploration (the default mode, and --kv without --soak):\n"
    "  --ops=600 --stride=1 --max-points=0 --no-recovery-points\n"
    "\n"
    "cycles and rounds (--soak, --kv --soak, --disk-faults and --aging):\n"
    "  --soak-ops=400 (--aging: 512)\n"
    "  --recovery-crash-period=3 --recovery-budget-us=2400000\n"
    "  (not --aging, and not --disk-faults --no-crashes)\n"
    "\n"
    "every mode that recovers (not --aging, not --disk-faults --no-crashes):\n"
    "  --break-recovery       self-test: recovery drops the log tail, the\n"
    "                         checker MUST report violations\n"
    "\n"
    "block and host targets (every mode but --kv):\n"
    "  --address-blocks=1536\n"
    "\n"
    "JSON report (every mode but the default):\n"
    "  --stats-json=FILE\n"
    "\n"
    "aging options (--aging):\n"
    "  --wl-interval=32 --wl-max-diff=8 --patrol-interval=64 --patrol-blocks=4\n"
    "\n"
    "kv options (--kv):\n"
    "  --kv-keys=512 --slab-pages=1 --no-packing\n"
    "\n"
    "disk-fault options (--disk-faults):\n"
    "  --disk-seed=1 --disk-read-fail=0.01 --disk-write-fail=0.02\n"
    "  --disk-latent=0.002 --disk-slow=0.01\n"
    "  --disk-retry-attempts=4 --disk-deadline-us=250000\n"
    "  --scrub-period=64 --scrub-budget=8 --write-through --no-crashes\n";

}  // namespace

int main(int argc, char** argv) {
  const flashtier::ArgParser args(argc, argv);
  if (args.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const uint32_t soak_cycles = args.Get<uint32_t>("soak", 0);
  const uint32_t aging_multiple = args.Get<uint32_t>("aging", 0);
  const bool aging = aging_multiple > 0;
  const bool kv = args.GetBool("kv", false);
  const bool disk_faults = args.GetBool("disk-faults", false);
  // One mode per run. --soak=N sets the cycle count of the KV and DiskGuard
  // soaks, but the aging harness has no soak schedule.
  std::vector<const char*> modes;
  for (const auto& [given, flag] : {std::pair{aging, "--aging"}, std::pair{kv, "--kv"},
                                    std::pair{disk_faults, "--disk-faults"},
                                    std::pair{aging && soak_cycles > 0, "--soak"}}) {
    if (given) {
      modes.push_back(flag);
    }
  }
  if (modes.size() > 1) {
    std::fprintf(stderr, "flashcheck: %s and %s cannot be combined\n", modes[0], modes[1]);
    return 2;
  }

  // The device shape every mode runs on. Aging defaults to the production
  // persistence settings and turns the endurance defenses on.
  flashtier::DeviceShape device = aging ? flashtier::AgingShape() : flashtier::DeviceShape{};
  flashtier::SscConfig& ssc = device.ssc;
  ssc.capacity_pages = args.GetPositive("capacity-pages", ssc.capacity_pages);
  device.shards = args.GetPositive("shards", device.shards);
  ssc.group_commit_ops = args.Get("group-commit-ops", ssc.group_commit_ops);
  ssc.checkpoint_interval_writes = args.Get("checkpoint-interval", ssc.checkpoint_interval_writes);
  ssc.log_region_pages = args.Get("log-region-pages", ssc.log_region_pages);
  ssc.checkpoint_segment_entries =
      args.GetPositive("segment-entries", ssc.checkpoint_segment_entries);
  if (aging) {
    ssc.wear_level_interval_writes = args.Get("wl-interval", ssc.wear_level_interval_writes);
    ssc.wear_level_max_diff = args.Get("wl-max-diff", ssc.wear_level_max_diff);
    ssc.patrol_interval_writes = args.Get("patrol-interval", ssc.patrol_interval_writes);
    ssc.patrol_blocks_per_pass = args.GetPositive("patrol-blocks", ssc.patrol_blocks_per_pass);
  }

  flashtier::FaultPlan& faults = ssc.fault_plan;
  faults.enabled = args.GetBool("faults", false);
  if (faults.enabled) {
    faults.seed = args.Get("fault-seed", faults.seed);
    faults.program_fail_prob = args.GetFraction("program-fail", 0.01);
    faults.erase_fail_prob = args.GetFraction("erase-fail", 0.05);
    faults.read_corrupt_prob = args.GetFraction("read-corrupt", 0.005);
    // Aging is about wear: under --aging, --faults also turns on wear-out
    // retirement and the disturb/retention decay mechanisms unless each knob
    // is explicitly overridden (=0 keeps one off). The default device is
    // tiny (10 blocks/shard), so blocks only see a handful of erases per
    // capacity written; a single-digit wear limit is the scaled equivalent
    // of real NAND's thousands of P/E cycles.
    faults.wear_out_erases = args.Get<uint32_t>("wear-limit", aging ? 6 : 0);
    faults.read_disturb_limit = args.Get<uint32_t>("read-disturb-limit", aging ? 64 : 0);
    faults.read_disturb_prob = args.GetFraction("read-disturb-prob", aging ? 0.05 : 0.0);
    faults.retention_age_us = args.Get<uint64_t>("retention-age-us", aging ? 300'000 : 0);
    faults.retention_fail_prob = args.GetFraction("retention-prob", aging ? 0.05 : 0.0);
  }
  ssc.break_retirement_for_testing = args.GetBool("break-retry", false);
  if (ssc.break_retirement_for_testing && !faults.enabled) {
    std::fprintf(stderr, "flashcheck: --break-retry requires --faults\n");
    return 2;
  }

  const std::string policy = args.GetString("policy", "se-util");
  if (policy == "se-util") {
    ssc.policy = flashtier::EvictionPolicy::kSeUtil;
  } else if (policy == "se-merge") {
    ssc.policy = flashtier::EvictionPolicy::kSeMerge;
  } else {
    std::fprintf(stderr, "flashcheck: unknown --policy '%s' (se-util | se-merge)\n",
                 policy.c_str());
    return 2;
  }

  const std::string admission = args.GetString("admission", "admit-all");
  if (!flashtier::ParseAdmissionKind(admission, &device.admission.kind)) {
    std::fprintf(stderr, "flashcheck: unknown --admission '%s' (%s)\n", admission.c_str(),
                 flashtier::KnownAdmissionNames());
    return 2;
  }

  const std::string mode = args.GetString("mode", "full");
  if (mode == "full") {
    ssc.mode = flashtier::ConsistencyMode::kFull;
  } else if (mode == "relaxed") {
    ssc.mode = flashtier::ConsistencyMode::kRelaxedClean;
  } else {
    std::fprintf(stderr, "flashcheck: unknown --mode '%s' (full | relaxed)\n", mode.c_str());
    return 2;
  }

  // The crash schedule. The explorers (the default mode, and --kv without
  // --soak) run --ops per trial over the commit points; the soak and
  // DiskGuard cycles and the aging rounds run --soak-ops operations each.
  // Only cycles that crash recover, so only they read the recovery flags.
  flashtier::CrashSchedule schedule;
  schedule.seed = args.Get("seed", schedule.seed);
  schedule.run_invariant_checker = !args.GetBool("no-invariants", false);
  schedule.verbose = args.GetBool("verbose", false);
  const bool explores = soak_cycles == 0 && !aging && !disk_faults;
  if (explores) {
    schedule.ops = args.Get("ops", schedule.ops);
    schedule.max_points = args.Get("max-points", schedule.max_points);
    schedule.stride = args.GetPositive("stride", schedule.stride);
    schedule.explore_recovery_points = !args.GetBool("no-recovery-points", false);
  } else {
    schedule.ops = args.GetPositive<uint32_t>("soak-ops", aging ? 512 : 400);
  }
  if (!explores && !aging) {
    schedule.cycles = soak_cycles > 0 ? soak_cycles : 8;
    schedule.crashes = !disk_faults || !args.GetBool("no-crashes", false);
    if (schedule.crashes) {
      schedule.recovery_crash_period =
          args.Get("recovery-crash-period", schedule.recovery_crash_period);
      schedule.recovery_budget_us = args.Get("recovery-budget-us", schedule.recovery_budget_us);
    }
  }
  if (!aging && schedule.crashes) {
    schedule.break_recovery = args.GetBool("break-recovery", false);
  }
  // The KV target addresses --kv-keys objects instead of blocks.
  const uint64_t address_blocks = kv ? 0 : args.Get<uint64_t>("address-blocks", 1536);
  const std::string stats_json = explores && !kv ? "" : args.GetString("stats-json", "");

  flashtier::KvCheckOptions kv_options;
  if (kv) {
    kv_options.packing = !args.GetBool("no-packing", false);
    kv_options.slab_pages = args.GetPositive("slab-pages", kv_options.slab_pages);
    kv_options.keys = args.GetPositive("kv-keys", kv_options.keys);
  }
  flashtier::DiskGuardOptions disk_options;
  if (disk_faults) {
    disk_options.write_through = args.GetBool("write-through", false);
    disk_options.scrub_period = args.Get("scrub-period", disk_options.scrub_period);
    disk_options.scrub_budget = args.Get("scrub-budget", disk_options.scrub_budget);
    flashtier::DiskFaultPlan& plan = disk_options.disk_faults;
    plan.enabled = true;
    plan.seed = args.Get("disk-seed", plan.seed);
    plan.read_fail_prob = args.GetFraction("disk-read-fail", 0.01);
    plan.write_fail_prob = args.GetFraction("disk-write-fail", 0.02);
    plan.latent_prob = args.GetFraction("disk-latent", 0.002);
    plan.slow_io_prob = args.GetFraction("disk-slow", 0.01);
    flashtier::RetryPolicy& retry = disk_options.disk_retry;
    retry.max_attempts = args.GetPositive("disk-retry-attempts", retry.max_attempts);
    retry.op_deadline_us = args.Get("disk-deadline-us", retry.op_deadline_us);
  }
  args.ExitOnBadFlags(kUsage);

  // Every mode prints one report line (plus violation samples) and may
  // write a JSON report.
  std::string text;
  std::string json;
  bool clean = false;
  if (aging) {
    flashtier::AgingOptions o;
    o.aging_multiple = aging_multiple;
    o.device = device;
    o.schedule = schedule;
    o.address_blocks = address_blocks;
    const flashtier::AgingReport report = flashtier::AgingHarness(o).Run();
    text = report.ToString();
    json = report.ToJson();
    clean = report.ok();
  } else if (kv) {
    kv_options.device = device;
    kv_options.schedule = schedule;
    const flashtier::KvCheckReport report = flashtier::KvCheckHarness(kv_options).Run();
    text = report.ToString();
    json = report.ToJson();
    clean = report.ok();
  } else if (disk_faults) {
    disk_options.device = device;
    disk_options.schedule = schedule;
    disk_options.address_blocks = address_blocks;
    const flashtier::DiskGuardReport report = flashtier::DiskGuardHarness(disk_options).Run();
    text = report.ToString();
    json = report.ToJson();
    clean = report.ok();
  } else if (soak_cycles > 0) {
    const flashtier::SoakReport report =
        flashtier::SoakHarness({device, schedule, address_blocks}).Run();
    text = report.ToString();
    json = report.ToJson(schedule.recovery_budget_us);
    clean = report.ok();
  } else {
    const flashtier::CrashExplorerReport report =
        flashtier::CrashExplorer({device, schedule, address_blocks}).Explore();
    text = report.ToString();
    clean = report.ok();
  }

  std::printf("flashcheck: %s\n", text.c_str());
  if (!stats_json.empty() && !flashtier::WriteLine(stats_json, json, /*append=*/false)) {
    std::fprintf(stderr, "flashcheck: cannot write --stats-json file '%s'\n", stats_json.c_str());
    return 2;
  }
  // Self-test modes: the broken path MUST be caught. With recovery broken,
  // the shadow sweep sees the dropped log tail; with bad-block retirement
  // broken, injected erase failures put non-erased blocks back on the free
  // list and the audits must notice.
  if (!schedule.break_recovery && !ssc.break_retirement_for_testing) {
    return clean ? 0 : 1;
  }
  const char* broken = schedule.break_recovery ? "recovery" : "bad-block retirement";
  if (clean) {
    std::printf("flashcheck: FAIL: broken %s went undetected\n", broken);
    return 1;
  }
  std::printf("flashcheck: OK: broken %s detected as expected\n", broken);
  return 0;
}
