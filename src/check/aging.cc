#include "src/check/aging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "src/util/json.h"

namespace flashtier {

namespace {

// Coefficient of variation of per-block erase counts across every block of
// every shard (retired blocks included — their frozen counts are part of the
// wear the device actually absorbed). 0 when nothing has been erased.
double EraseCountCv(const std::vector<std::unique_ptr<SscDevice>>& sscs) {
  uint64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& ssc : sscs) {
    const FlashDevice& dev = ssc->device();
    const uint32_t total = dev.geometry().TotalBlocks();
    for (uint32_t b = 0; b < total; ++b) {
      const double e = static_cast<double>(dev.erase_count(b));
      sum += e;
      sum_sq += e * e;
      ++n;
    }
  }
  if (n == 0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0.0) {
    return 0.0;
  }
  const double variance = std::max(0.0, sum_sq / static_cast<double>(n) - mean * mean);
  return std::sqrt(variance) / mean;
}

double RetiredPct(const std::vector<std::unique_ptr<SscDevice>>& sscs) {
  uint64_t retired = 0;
  uint64_t total = 0;
  for (const auto& ssc : sscs) {
    retired += ssc->retired_block_count();
    total += ssc->device().geometry().TotalBlocks();
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(retired) / static_cast<double>(total);
}

}  // namespace

std::string AgingReport::ToString() const {
  char buffer[384];
  std::snprintf(buffer, sizeof(buffer),
                "aging: %u epochs, %llu ops, %llu pages written (%llu ok): %llu violations, "
                "%llu undetected corruptions, erase CV %.3f, write amp %.2f, "
                "miss %.3f -> %.3f, retired %.1f%% (serving at %.1f%%)%s",
                epochs_run, (unsigned long long)ops_executed,
                (unsigned long long)host_pages_written, (unsigned long long)ok_writes,
                (unsigned long long)violation_count,
                (unsigned long long)undetected_corruptions, erase_cv, write_amp,
                first_epoch_miss_rate, last_epoch_miss_rate, max_retired_pct, serving_retired_pct,
                write_exhausted ? ", write-exhausted" : "");
  std::string out(buffer);
  AppendSamples(&out);
  return out;
}

std::string AgingReport::ToJson() const {
  JsonLine line;
  line.Object("aging")
      .Uint("epochs", epochs_run)
      .Uint("ops", ops_executed)
      .Uint("pages_written", host_pages_written)
      .Uint("ok_writes", ok_writes)
      .Uint("violations", violation_count)
      .Uint("undetected_corruptions", undetected_corruptions)
      .Double("erase_cv", erase_cv, 4)
      .Double("write_amp", write_amp, 3)
      .Double("first_epoch_miss_rate", first_epoch_miss_rate, 4)
      .Double("last_epoch_miss_rate", last_epoch_miss_rate, 4)
      .Double("max_retired_pct", max_retired_pct, 2)
      .Double("serving_retired_pct", serving_retired_pct, 2)
      .Bool("write_exhausted", write_exhausted)
      .End()
      .Block("ftl", ftl)
      .Block("faults", faults);
  return line.Finish();
}

AgingHarness::AgingHarness(const AgingOptions& options) : options_(options) {}

AgingReport AgingHarness::Run() {
  AgingReport report;
  // The long-lived device set: wear accumulates across the whole run.
  BlockTarget target(options_.device, options_.address_blocks);
  const CrashSchedule& schedule = options_.schedule;
  const auto merged_ftl = [&target]() {
    return MergeShards<FtlStats>(target.sscs(), [](const SscDevice& s) { return &s.ftl_stats(); });
  };

  uint64_t round = 0;
  for (uint32_t epoch = 0; epoch < options_.aging_multiple; ++epoch) {
    const FtlStats at_start = merged_ftl();
    const uint64_t ok_writes_at_start = target.ok_writes();
    std::vector<std::string> violations;
    uint32_t stalled_rounds = 0;
    bool quota_met = false;

    // Replay scripted rounds until the host has attempted one more full
    // capacity of writes. A device whose allocator retirement has exhausted
    // every write path makes no progress; after a few write-free rounds the
    // run ends — gracefully, which is the point.
    while (!quota_met) {
      const uint64_t writes_before = merged_ftl().host_writes;
      target.RunOps(schedule.seed * 1000003 + round, schedule.ops, &violations);
      ++round;
      const uint64_t writes_after = merged_ftl().host_writes;
      if (writes_after == writes_before) {
        if (++stalled_rounds >= 8) {
          report.write_exhausted = true;
          break;
        }
      } else {
        stalled_rounds = 0;
      }
      quota_met = writes_after - at_start.host_writes >= options_.device.capacity_pages;
    }

    // Epoch audit: structural invariants (including the endurance audits),
    // policy audits, then the full shadow sweep. Fault draws are paused so
    // observing the device cannot age it; sticky fault state stays in force.
    target.PauseFaults(true);
    if (schedule.run_invariant_checker) {
      target.Audit("", &violations);
    }
    target.Sweep(&violations);
    target.PauseFaults(false);

    // Lifetime curves.
    const FtlStats now = merged_ftl();
    const uint64_t epoch_reads = now.host_reads - at_start.host_reads;
    const uint64_t epoch_misses = now.host_read_misses - at_start.host_read_misses;
    const double miss_rate =
        epoch_reads == 0 ? 0.0
                         : static_cast<double>(epoch_misses) / static_cast<double>(epoch_reads);
    if (epoch == 0) {
      report.first_epoch_miss_rate = miss_rate;
    }
    report.last_epoch_miss_rate = miss_rate;
    const double retired_pct = RetiredPct(target.sscs());
    report.max_retired_pct = std::max(report.max_retired_pct, retired_pct);
    if (quota_met) {
      ++report.epochs_run;
      if (target.ok_writes() > ok_writes_at_start) {
        report.serving_retired_pct = retired_pct;
      }
    }

    report.Record(Fmt("epoch %u", epoch), std::move(violations), schedule.verbose);
    if (schedule.verbose) {
      std::fprintf(stderr,
                   "flashcheck: aging epoch %u: %llu writes, miss %.3f, retired %.1f%%, "
                   "erase CV %.3f%s\n",
                   epoch, (unsigned long long)(now.host_writes - at_start.host_writes), miss_rate,
                   retired_pct, EraseCountCv(target.sscs()),
                   report.write_exhausted ? " (exhausted)" : "");
    }
    if (report.write_exhausted) {
      break;
    }
  }

  FlashStats flash;
  for (const auto& ssc : target.sscs()) {
    report.ftl.Merge(ssc->ftl_stats());
    report.faults.Merge(ssc->device().fault_stats());
    flash.Merge(ssc->flash_stats());
  }
  report.ops_executed = target.ops_executed();
  report.ok_writes = target.ok_writes();
  report.undetected_corruptions = target.undetected_corruptions();
  report.host_pages_written = report.ftl.host_writes;
  report.erase_cv = EraseCountCv(target.sscs());
  report.write_amp = report.ftl.ExtraWritesPerBlock(flash.page_writes, flash.gc_copies);
  return report;
}

}  // namespace flashtier
