#include "src/check/soak.h"

#include "src/util/json.h"

namespace flashtier {

std::string SoakReport::ToString() const {
  std::string out = "soak: " + SoakSummary(ops_executed);
  AppendSamples(&out);
  return out;
}

std::string SoakReport::ToJson(uint64_t budget_us) const {
  const uint64_t mean_recovery =
      cycles_run != 0 ? total_recovery_us / cycles_run : 0;
  JsonLine line;
  line.Object("soak")
      .Uint("cycles", cycles_run)
      .Uint("ops", ops_executed)
      .Uint("mid_workload_crashes", mid_workload_crashes)
      .Uint("quiescent_crashes", quiescent_crashes)
      .Uint("recovery_crashes", recovery_crashes)
      .Uint("violations", violation_count)
      .Uint("budget_us", budget_us)
      .Uint("budget_exceeded", budget_exceeded)
      .Uint("max_recovery_us", max_recovery_us)
      .Uint("mean_recovery_us", mean_recovery)
      .End()
      .Block("persist", persist)
      .Block("faults", faults);
  return line.Finish();
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
