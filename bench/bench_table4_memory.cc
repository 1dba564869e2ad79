// Table 4 — Memory Consumption.
//
// Populates the mapping structures of each device (SSD dense hybrid map, SSC
// sparse map with 7% page-level reserve, SSC-R with 20% reserve) and each
// host-side manager table (native FlashCache table, FlashTier write-back
// dirty table) with cache-sized working sets drawn from each workload's
// address distribution, then reports measured memory.
//
// Cache sizes follow the paper: top-25% of each workload's unique blocks
// (top-50% for proj-50). The default --scale=0.1 keeps the fill minutes-fast;
// bytes/block is scale-invariant, and the "@paper" column extrapolates to the
// paper's cache sizes (1.6 GB ... 205 GB).
//
// Expected shape: SSC within ~5-17% of SSD; SSC-R ~2.6x SSD; FlashTier host
// memory ~89% below native; total reduction >= 60%.

#include <cinttypes>
#include <memory>

#include "bench/bench_common.h"
#include "src/cache/dirty_table.h"
#include "src/cache/native.h"
#include "src/ssc/ssc_device.h"
#include "src/ssd/ssd_ftl.h"

namespace flashtier::bench {
namespace {

struct Row {
  std::string name;
  uint64_t cache_pages = 0;   // scaled
  uint64_t paper_pages = 0;   // paper-scale cache size
  double ssd_mb = 0, ssc_mb = 0, sscr_mb = 0, native_host_mb = 0, ft_host_mb = 0;
};

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

Row MeasureWorkload(const WorkloadProfile& profile, double cache_fraction,
                    const std::string& label, uint64_t paper_cache_gb) {
  Row row;
  row.name = label;
  row.cache_pages = static_cast<uint64_t>(
      static_cast<double>(profile.unique_blocks) * cache_fraction);
  row.paper_pages = paper_cache_gb * ((1ull << 30) / 4096);

  // Addresses with the workload's placement distribution, one per cache page.
  WorkloadProfile sample = profile;
  sample.unique_blocks = row.cache_pages;
  sample.total_ops = 1;  // working set only
  SyntheticWorkload workload(sample);
  const std::vector<Lbn>& addresses = workload.working_set();
  const uint64_t fill = addresses.size() * 9 / 10;  // fill to 90%, no evictions

  SimClock clock;
  // SSD: dense hybrid map over its own address space.
  {
    SsdFtl ssd(row.cache_pages, &clock);
    for (uint64_t i = 0; i < fill; ++i) {
      // Table 4 measures mapping memory, not outcomes; a refused fill write
      // simply leaves that entry unmapped.
      (void)ssd.Write(i, i);
    }
    row.ssd_mb = Mb(ssd.DeviceMemoryUsage());
  }
  // SSC and SSC-R: sparse maps keyed by disk addresses.
  for (const EvictionPolicy policy : {EvictionPolicy::kSeUtil, EvictionPolicy::kSeMerge}) {
    SscConfig config;
    config.capacity_pages = row.cache_pages;
    config.policy = policy;
    config.mode = ConsistencyMode::kNone;  // memory experiment only
    SscDevice ssc(config, &clock);
    for (uint64_t i = 0; i < fill; ++i) {
      (void)ssc.WriteClean(addresses[i], i);
    }
    const double mb = Mb(ssc.ReservedDeviceMemoryUsage());
    if (policy == EvictionPolicy::kSeUtil) {
      row.ssc_mb = mb;
    } else {
      row.sscr_mb = mb;
    }
  }
  // Host tables. Native: 22 B for every cached block. FlashTier write-back:
  // state only for dirty blocks (20% threshold).
  {
    SsdFtl ssd(row.cache_pages + NativeCacheManager::kMetadataRegionPages, &clock);
    DiskModel disk(&clock);
    AdmitAllPolicy admit_all;
    NativeCacheManager native(&ssd, &disk, row.cache_pages, admit_all,
                              NativeCacheManager::Options{});
    row.native_host_mb = Mb(native.HostMemoryUsage());
  }
  {
    DirtyTable table(row.cache_pages / 5 + row.cache_pages / 20);
    for (uint64_t i = 0; i < row.cache_pages / 5; ++i) {
      table.Touch(addresses[i % addresses.size()]);
    }
    row.ft_host_mb = Mb(table.MemoryUsage());
  }
  return row;
}

int Main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const double factor = args.GetPositive("scale", 0.1);
  const std::string only = GetWorkload(args);  // "proj" also selects proj-50
  args.ExitOnBadFlags();
  PrintHeader("Table 4: device and host memory for cached-block mapping state");
  std::printf("(measured at scale %.3g; bytes/block is scale-invariant)\n\n", factor);

  std::vector<Row> rows;
  struct Spec {
    const char* name;
    WorkloadProfile (*profile)(double);
    double fraction;
    uint64_t paper_gb;
  };
  const Spec specs[] = {{"homes", HomesProfile, 0.25, 2},   {"mail", MailProfile, 0.25, 14},
                        {"usr", UsrProfile, 0.25, 95},      {"proj", ProjProfile, 0.25, 102},
                        {"proj-50", ProjProfile, 0.50, 205}};
  for (const Spec& spec : specs) {
    if (!only.empty() && only != spec.name && !(only == "proj" && spec.fraction > 0.25)) {
      continue;
    }
    rows.push_back(MeasureWorkload(spec.profile(factor), spec.fraction, spec.name,
                                   spec.paper_gb));
  }

  std::printf("%-8s %10s | %27s | %21s\n", "", "", "device bytes/block (MB@scale)",
              "host bytes/block");
  std::printf("%-8s %10s %8s %8s %8s %10s %10s\n", "trace", "cache-MB", "SSD", "SSC", "SSC-R",
              "Native", "FTCM");
  for (const Row& r : rows) {
    const double blocks = static_cast<double>(r.cache_pages);
    std::printf("%-8s %10.0f %7.2fB %7.2fB %7.2fB %9.2fB %9.2fB\n", r.name.c_str(),
                blocks * 4096 / (1 << 20), r.ssd_mb * (1 << 20) / blocks,
                r.ssc_mb * (1 << 20) / blocks, r.sscr_mb * (1 << 20) / blocks,
                r.native_host_mb * (1 << 20) / blocks, r.ft_host_mb * (1 << 20) / blocks);
  }
  std::printf("\nExtrapolated to paper cache sizes (MB):\n");
  std::printf("%-8s %10s %8s %8s %8s %10s %10s %14s\n", "trace", "cache-GB", "SSD", "SSC",
              "SSC-R", "Native", "FTCM", "total-saving");
  for (const Row& r : rows) {
    const double scale_up = static_cast<double>(r.paper_pages) / static_cast<double>(r.cache_pages);
    const double ssd = r.ssd_mb * scale_up;
    const double ssc = r.ssc_mb * scale_up;
    const double sscr = r.sscr_mb * scale_up;
    const double native = r.native_host_mb * scale_up;
    const double ftcm = r.ft_host_mb * scale_up;
    const double saving = 100.0 * (1.0 - (ssc + ftcm) / (ssd + native));
    std::printf("%-8s %10.1f %8.1f %8.1f %8.1f %10.1f %10.1f %13.0f%%\n", r.name.c_str(),
                static_cast<double>(r.paper_pages) * 4096 / (1ull << 30), ssd, ssc, sscr,
                native, ftcm, saving);
  }
  std::printf("\nPaper Table 4 (MB): homes 1.13/1.33/3.07 dev, 8.83/0.96 host; ... "
              "proj-50 144/152/374 dev, 1128/123 host. SSC+FTCM vs SSD+Native >= 60%% saving.\n");
  return 0;
}

}  // namespace
}  // namespace flashtier::bench

int main(int argc, char** argv) { return flashtier::bench::Main(argc, argv); }
