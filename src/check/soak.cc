#include "src/check/soak.h"

#include <cstdio>

namespace flashtier {

std::string SoakReport::ToString() const {
  std::string out = "soak: " + SoakSummary(ops_executed);
  AppendSamples(&out);
  return out;
}

std::string SoakReport::ToJson(uint64_t budget_us) const {
  const uint64_t mean_recovery =
      cycles_run != 0 ? total_recovery_us / cycles_run : 0;
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"soak\":{\"cycles\":%u,\"ops\":%llu,\"mid_workload_crashes\":%llu,"
      "\"quiescent_crashes\":%llu,\"recovery_crashes\":%llu,\"violations\":%llu,"
      "\"budget_us\":%llu,\"budget_exceeded\":%llu,\"max_recovery_us\":%llu,"
      "\"mean_recovery_us\":%llu},"
      "\"persist\":{\"records_logged\":%llu,\"checkpoints\":%llu,"
      "\"corrupt_records_skipped\":%llu,\"checkpoint_fallbacks\":%llu,"
      "\"segment_fallbacks\":%llu,\"forced_checkpoints\":%llu,"
      "\"backpressure_stalls\":%llu,\"log_full_events\":%llu,"
      "\"checkpoint_load_us\":%llu,\"log_replay_us\":%llu,\"rebuild_us\":%llu,"
      "\"last_recovery_us\":%llu},"
      "\"faults\":{\"program_failures\":%llu,\"erase_failures\":%llu,"
      "\"read_corruptions\":%llu,\"read_disturbs\":%llu,\"retention_failures\":%llu}}",
      cycles_run, (unsigned long long)ops_executed, (unsigned long long)mid_workload_crashes,
      (unsigned long long)quiescent_crashes, (unsigned long long)recovery_crashes,
      (unsigned long long)violation_count, (unsigned long long)budget_us,
      (unsigned long long)budget_exceeded, (unsigned long long)max_recovery_us,
      (unsigned long long)mean_recovery, (unsigned long long)persist.records_logged,
      (unsigned long long)persist.checkpoints, (unsigned long long)persist.corrupt_records_skipped,
      (unsigned long long)persist.checkpoint_fallbacks,
      (unsigned long long)persist.segment_fallbacks,
      (unsigned long long)persist.forced_checkpoints,
      (unsigned long long)persist.backpressure_stalls, (unsigned long long)persist.log_full_events,
      (unsigned long long)persist.checkpoint_load_us, (unsigned long long)persist.log_replay_us,
      (unsigned long long)persist.rebuild_us, (unsigned long long)persist.last_recovery_us,
      (unsigned long long)faults.program_failures, (unsigned long long)faults.erase_failures,
      (unsigned long long)faults.read_corruptions, (unsigned long long)faults.read_disturbs,
      (unsigned long long)faults.retention_failures);
  return std::string(buffer);
}

SoakHarness::SoakHarness(const SoakOptions& options) : options_(options) {}

SoakReport SoakHarness::Run() {
  SoakReport report;
  BlockTarget target(options_.device, options_.address_blocks);
  SoakCrashCycles(target, options_.schedule, &report);
  report.ops_executed = target.ops_executed();
  for (const auto& ssc : target.sscs()) {
    report.persist.Merge(ssc->persist_for_testing()->stats());
    report.faults.Merge(ssc->device().fault_stats());
  }
  return report;
}

}  // namespace flashtier
