#include "src/check/crash_explorer.h"

#include <memory>

namespace flashtier {

std::string CrashExplorerReport::ToString() const {
  std::string out = ExploreSummary();
  if (baseline_faults.program_failures != 0 || baseline_faults.erase_failures != 0 ||
      baseline_faults.read_corruptions != 0) {
    out += Fmt("\n  faults injected per trial: %llu program, %llu erase, %llu read",
               (unsigned long long)baseline_faults.program_failures,
               (unsigned long long)baseline_faults.erase_failures,
               (unsigned long long)baseline_faults.read_corruptions);
  }
  AppendSamples(&out);
  return out;
}

CrashExplorer::CrashExplorer(const CrashExplorerOptions& options) : options_(options) {}

CrashExplorerReport CrashExplorer::Explore() {
  CrashExplorerReport report;
  const std::unique_ptr<CrashTarget> baseline = ExploreCrashPoints(
      [this] { return std::make_unique<BlockTarget>(options_.device, options_.address_blocks); },
      options_.schedule, &report);
  report.baseline_faults =
      MergeShards<FaultStats>(static_cast<BlockTarget&>(*baseline).sscs(),
                              [](const SscDevice& s) { return &s.device().fault_stats(); });
  return report;
}

}  // namespace flashtier
