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
// the same device-shape flags.
//
// Exit status is 0 iff no violation was found, so the tool can gate CI; with
// a --break-* self-test flag it is 0 iff violations *were* found. Unknown
// flags exit 2 with the usage text below.

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
    "modes:\n"
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
    "                         the shadow model at every 1x-capacity epoch;\n"
    "                         composes with --faults, --shards, --admission\n"
    "  --kv                   check the tiny-object KV layer (DESIGN.md §5k):\n"
    "                         explore every commit point a mixed object\n"
    "                         workload crosses (or --soak=N cycles on one\n"
    "                         long-lived KvCache), verify object G1-G3 via a\n"
    "                         shadow sweep + InvariantChecker::CheckKv;\n"
    "                         composes with --faults, --shards, --admission\n"
    "  --disk-faults          DiskGuard: drive cache managers over a faulty\n"
    "                         disk tier (latent sectors, transient failures,\n"
    "                         slow IO) with retry/backoff, parked writebacks,\n"
    "                         cache-assisted repair and a host-level shadow;\n"
    "                         composes with crashes, --shards, --admission,\n"
    "                         --faults and --soak=N (cycle count)\n"
    "                         (--aging, --kv and --disk-faults exclude each\n"
    "                         other; --soak=N composes with --kv and\n"
    "                         --disk-faults, not with --aging: exit 2)\n"
    "  --break-recovery       self-test (any mode): recovery drops the log\n"
    "                         tail, the checker MUST report violations\n"
    "  --break-retry          self-test (any mode, requires --faults): bad-\n"
    "                         block retirement is disabled, the audits MUST\n"
    "                         report violations\n"
    "\n"
    "workload / device options (shared by all modes):\n"
    "  --ops=600 --capacity-pages=512 --address-blocks=1536 --shards=1\n"
    "  --policy=se-util|se-merge --mode=full|relaxed\n"
    "  --admission=admit-all|ghost-lru|freq-sketch|write-limit\n"
    "  --group-commit-ops=16 --checkpoint-interval=250\n"
    "  --log-region-pages=4 --segment-entries=16 --seed=42\n"
    "  (--aging defaults: --group-commit-ops=10000\n"
    "  --checkpoint-interval=1000000 --log-region-pages=4096\n"
    "  --segment-entries=1024)\n"
    "  --no-invariants --verbose\n"
    "\n"
    "exploration options (default and --kv modes):\n"
    "  --stride=1 --max-points=0 --no-recovery-points\n"
    "\n"
    "fault injection (composes with every mode):\n"
    "  --faults --fault-seed=1 --program-fail=0.01 --erase-fail=0.05\n"
    "  --read-corrupt=0.005 --wear-limit=0\n"
    "  --read-disturb-limit=0 --read-disturb-prob=0 (reads past the limit\n"
    "  since the block's last erase may corrupt; erase resets the exposure)\n"
    "  --retention-age-us=0 --retention-prob=0 (pages resident longer than\n"
    "  the age may corrupt when read)\n"
    "\n"
    "aging options (--aging mode; wear/disturb/retention default ON here):\n"
    "  --aging=N --soak-ops=512 --wl-interval=32 --wl-max-diff=8\n"
    "  --patrol-interval=64 --patrol-blocks=4 --stats-json=FILE\n"
    "\n"
    "soak options (--soak, --kv --soak and --disk-faults):\n"
    "  --soak=N --soak-ops=400 --recovery-crash-period=3\n"
    "  --recovery-budget-us=2400000 --stats-json=FILE\n"
    "\n"
    "kv options (--kv mode):\n"
    "  --kv-keys=512 --slab-pages=1 --no-packing\n"
    "\n"
    "disk-fault options (--disk-faults mode):\n"
    "  --disk-seed=1 --disk-read-fail=0.01 --disk-write-fail=0.02\n"
    "  --disk-latent=0.002 --disk-slow=0.01\n"
    "  --disk-retry-attempts=4 --disk-deadline-us=250000\n"
    "  --scrub-period=64 --scrub-budget=8 --write-through --no-crashes\n";

}  // namespace

int main(int argc, char** argv) {
  flashtier::ArgParser args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "flashcheck: %s\n%s", args.error().c_str(), kUsage);
    return 2;
  }
  if (args.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const auto unknown = args.UnknownFlags({
      "help",          "ops",
      "capacity-pages", "address-blocks",
      "shards",        "policy",
      "mode",          "admission",
      "group-commit-ops", "checkpoint-interval",
      "log-region-pages", "segment-entries",
      "seed",          "stride",
      "max-points",    "no-recovery-points",
      "no-invariants", "verbose",
      "break-recovery", "break-retry",
      "faults",        "fault-seed",
      "program-fail",  "erase-fail",
      "read-corrupt",  "wear-limit",
      "read-disturb-limit", "read-disturb-prob",
      "retention-age-us", "retention-prob",
      "aging",         "wl-interval",
      "wl-max-diff",   "patrol-interval",
      "patrol-blocks", "soak",
      "soak-ops",
      "recovery-crash-period", "recovery-budget-us",
      "stats-json",    "disk-faults",
      "disk-seed",     "disk-read-fail",
      "disk-write-fail", "disk-latent",
      "disk-slow",     "disk-retry-attempts",
      "disk-deadline-us", "scrub-period",
      "scrub-budget",  "write-through",
      "no-crashes",    "kv",
      "kv-keys",       "slab-pages",
      "no-packing",
  });
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "flashcheck: unknown flag --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  // Integer flags, converted to the type of their default.
  const auto get = [&args](const char* name, auto def) {
    return static_cast<decltype(def)>(args.GetInt(name, static_cast<int64_t>(def)));
  };
  const auto get_positive = [&args](const char* name, auto def) {
    return static_cast<decltype(def)>(args.GetPositiveInt(name, static_cast<int64_t>(def)));
  };
  const auto bad_args = [&args]() {
    if (!args.ok()) {
      std::fprintf(stderr, "flashcheck: %s\n", args.error().c_str());
    }
    return !args.ok();
  };

  const int64_t soak_cycles = args.GetInt("soak", 0);
  const int64_t aging_multiple = args.GetInt("aging", 0);
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
  device.capacity_pages = get("capacity-pages", device.capacity_pages);
  device.shards = get_positive("shards", device.shards);
  device.group_commit_ops = get("group-commit-ops", device.group_commit_ops);
  device.checkpoint_interval_writes = get("checkpoint-interval", device.checkpoint_interval_writes);
  device.log_region_pages = get("log-region-pages", device.log_region_pages);
  device.checkpoint_segment_entries =
      get_positive("segment-entries", device.checkpoint_segment_entries);
  if (aging) {
    device.wear_level_interval_writes = get("wl-interval", device.wear_level_interval_writes);
    device.wear_level_max_diff = get("wl-max-diff", device.wear_level_max_diff);
    device.patrol_interval_writes = get("patrol-interval", device.patrol_interval_writes);
    device.patrol_blocks_per_pass = get_positive("patrol-blocks", device.patrol_blocks_per_pass);
  }

  flashtier::FaultPlan& faults = device.faults;
  faults.enabled = args.GetBool("faults", false);
  faults.seed = get("fault-seed", uint64_t{1});
  faults.program_fail_prob = args.GetDouble("program-fail", 0.01);
  faults.erase_fail_prob = args.GetDouble("erase-fail", 0.05);
  faults.read_corrupt_prob = args.GetDouble("read-corrupt", 0.005);
  // Aging is about wear: under --aging, --faults also turns on wear-out
  // retirement and the disturb/retention decay mechanisms unless each knob
  // is explicitly overridden (=0 keeps one off). The default device is tiny
  // (10 blocks/shard), so blocks only see a handful of erases per capacity
  // written; a single-digit wear limit is the scaled equivalent of real
  // NAND's thousands of P/E cycles.
  const bool wear = aging && faults.enabled;
  faults.wear_out_erases = get("wear-limit", uint32_t{wear ? 6u : 0u});
  faults.read_disturb_limit = get("read-disturb-limit", uint32_t{wear ? 64u : 0u});
  faults.read_disturb_prob = args.GetDouble("read-disturb-prob", wear ? 0.05 : 0.0);
  faults.retention_age_us = get("retention-age-us", uint64_t{wear ? 300'000u : 0u});
  faults.retention_fail_prob = args.GetDouble("retention-prob", wear ? 0.05 : 0.0);
  device.break_retirement = args.GetBool("break-retry", false);
  if (bad_args()) {
    return 2;
  }
  if (device.break_retirement && !faults.enabled) {
    std::fprintf(stderr, "flashcheck: --break-retry requires --faults\n");
    return 2;
  }

  const std::string policy = args.GetString("policy", "se-util");
  if (policy == "se-util") {
    device.policy = flashtier::EvictionPolicy::kSeUtil;
  } else if (policy == "se-merge") {
    device.policy = flashtier::EvictionPolicy::kSeMerge;
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
    device.mode = flashtier::ConsistencyMode::kFull;
  } else if (mode == "relaxed") {
    device.mode = flashtier::ConsistencyMode::kRelaxedClean;
  } else {
    std::fprintf(stderr, "flashcheck: unknown --mode '%s' (full | relaxed)\n", mode.c_str());
    return 2;
  }

  // The crash schedule, also shared: each mode reads the fields it uses.
  // Soak, aging and DiskGuard workloads run in cycles or rounds of
  // --soak-ops operations; the explorers run --ops per trial.
  flashtier::CrashSchedule schedule;
  schedule.seed = get("seed", schedule.seed);
  schedule.ops = soak_cycles > 0 || aging || disk_faults
                     ? get_positive("soak-ops", uint32_t{aging ? 512u : 400u})
                     : get("ops", schedule.ops);
  schedule.max_points = get("max-points", schedule.max_points);
  schedule.stride = get("stride", schedule.stride);
  schedule.explore_recovery_points = !args.GetBool("no-recovery-points", false);
  schedule.cycles = static_cast<uint32_t>(soak_cycles > 0 ? soak_cycles : disk_faults ? 8 : 0);
  schedule.recovery_crash_period = get("recovery-crash-period", schedule.recovery_crash_period);
  schedule.recovery_budget_us = get("recovery-budget-us", schedule.recovery_budget_us);
  schedule.break_recovery = args.GetBool("break-recovery", false);
  schedule.run_invariant_checker = !args.GetBool("no-invariants", false);
  schedule.verbose = args.GetBool("verbose", false);
  const uint64_t address_blocks = get("address-blocks", uint64_t{1536});
  const std::string stats_json = args.GetString("stats-json", "");
  if (bad_args()) {
    return 2;
  }

  // Every mode prints one report line (plus violation samples) and may
  // write a JSON report.
  std::string text;
  std::string json;
  bool clean = false;
  if (aging) {
    flashtier::AgingOptions o;
    o.aging_multiple = static_cast<uint32_t>(aging_multiple);
    o.device = device;
    o.schedule = schedule;
    o.address_blocks = address_blocks;
    const flashtier::AgingReport report = flashtier::AgingHarness(o).Run();
    text = report.ToString();
    json = report.ToJson();
    clean = report.ok();
  } else if (kv) {
    flashtier::KvCheckOptions o;
    o.device = device;
    o.packing = !args.GetBool("no-packing", false);
    o.slab_pages = get_positive("slab-pages", uint32_t{1});
    o.schedule = schedule;
    o.keys = get_positive("kv-keys", uint64_t{512});
    if (bad_args()) {
      return 2;
    }
    const flashtier::KvCheckReport report = flashtier::KvCheckHarness(o).Run();
    text = report.ToString();
    json = report.ToJson();
    clean = report.ok();
  } else if (disk_faults) {
    flashtier::DiskGuardOptions o;
    o.device = device;
    o.schedule = schedule;
    o.schedule.crashes = !args.GetBool("no-crashes", false);
    o.address_blocks = address_blocks;
    o.write_through = args.GetBool("write-through", false);
    o.scrub_period = get("scrub-period", o.scrub_period);
    o.scrub_budget = get("scrub-budget", o.scrub_budget);
    o.disk_faults.enabled = true;
    o.disk_faults.seed = get("disk-seed", uint64_t{1});
    o.disk_faults.read_fail_prob = args.GetDouble("disk-read-fail", 0.01);
    o.disk_faults.write_fail_prob = args.GetDouble("disk-write-fail", 0.02);
    o.disk_faults.latent_prob = args.GetDouble("disk-latent", 0.002);
    o.disk_faults.slow_io_prob = args.GetDouble("disk-slow", 0.01);
    o.disk_retry.max_attempts = get_positive("disk-retry-attempts", uint32_t{4});
    o.disk_retry.op_deadline_us = get("disk-deadline-us", uint64_t{250'000});
    if (bad_args()) {
      return 2;
    }
    const flashtier::DiskGuardReport report = flashtier::DiskGuardHarness(o).Run();
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
    if (!stats_json.empty()) {
      std::fprintf(stderr,
                   "flashcheck: --stats-json is only produced by --soak, --disk-faults, --aging "
                   "and --kv runs\n");
      return 2;
    }
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
  if (!schedule.break_recovery && !device.break_retirement) {
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
