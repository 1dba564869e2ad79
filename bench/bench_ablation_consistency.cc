// Ablation: durability machinery knobs.
//
// Sweeps the group-commit size and checkpoint interval of Section 4.2.2's
// persistence design on a write-back workload, reporting throughput, the
// volume of metadata flushed, and the recovery time each configuration buys.
// This exposes the paper's trade-off directly: longer group commits and rarer
// checkpoints cost less during operation but lengthen the log replay at
// recovery. Its one flag, --scale (default 0.5), multiplies mail's default
// scale.

#include <cinttypes>

#include "bench/bench_common.h"
#include "src/cache/write_back.h"

namespace flashtier::bench {
namespace {

struct Result {
  double iops = 0;
  uint64_t log_pages = 0;
  uint64_t checkpoints = 0;
  double recovery_ms = 0;
};

Result Run(const WorkloadProfile& profile, uint32_t group_commit, uint64_t ckpt_interval) {
  SimClock clock;
  DiskModel disk(&clock);
  SscConfig config;
  config.capacity_pages = CachePagesFor(profile);
  config.mode = ConsistencyMode::kFull;
  config.group_commit_ops = group_commit;
  config.checkpoint_interval_writes = ckpt_interval;
  SscDevice ssc(config, &clock);
  AdmitAllPolicy admit_all;
  WriteBackManager manager(&ssc, &disk, admit_all);

  SyntheticWorkload workload(profile);
  TraceRecord r;
  uint64_t n = 0;
  const uint64_t t0 = clock.now_us();
  while (workload.Next(&r)) {
    uint64_t token = 0;
    if (r.op == TraceOp::kWrite) {
      // Misses/backpressure are measured outcomes of the sweep, not errors;
      // the ablation reads its results from the device counters.
      (void)manager.Write(r.lbn, n);
    } else {
      (void)manager.Read(r.lbn, &token);
    }
    ++n;
  }
  Result res;
  res.iops = static_cast<double>(n) * 1e6 / static_cast<double>(clock.now_us() - t0);
  res.log_pages = ssc.persist_stats().log_page_writes;
  res.checkpoints = ssc.persist_stats().checkpoints;
  ssc.SimulateCrash();
  AssertOk(ssc.Recover());
  res.recovery_ms = static_cast<double>(ssc.last_recovery_us()) / 1000.0;
  return res;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double scale = args.GetPositive("scale", 0.5);
  args.ExitOnBadFlags();
  PrintHeader("Ablation: group-commit size and checkpoint interval (write-back, mail)");
  const WorkloadProfile profile = MailProfile(DefaultScale("mail") * scale);

  std::printf("%-34s %10s %12s %12s %12s\n", "configuration", "IOPS", "log-pages",
              "checkpoints", "recovery-ms");
  struct Row {
    const char* name;
    uint32_t group;
    uint64_t ckpt;
  };
  const Row rows[] = {
      {"group=1k,  ckpt=1M writes", 1'000, 1'000'000},
      {"group=10k, ckpt=1M (paper)", 10'000, 1'000'000},
      {"group=100k,ckpt=1M", 100'000, 1'000'000},
      {"group=10k, ckpt=100k writes", 10'000, 100'000},
      {"group=10k, ckpt=10M writes", 10'000, 10'000'000},
  };
  for (const Row& row : rows) {
    const Result r = Run(profile, row.group, row.ckpt);
    std::printf("%-34s %10.0f %12" PRIu64 " %12" PRIu64 " %12.2f\n", row.name, r.iops,
                r.log_pages, r.checkpoints, r.recovery_ms);
  }
  std::printf("\nReading: the paper's 10k group commit + log<=2/3-checkpoint rule keeps both\n"
              "the runtime metadata overhead and recovery replay short.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
