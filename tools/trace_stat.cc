// trace_stat — print Table 3-style characteristics and the Figure 1 region
// density distribution of a binary trace file. KV traces ("FTKV", from
// trace_gen --workload=kv-zipf) instead get the object-level view: op mix,
// object-size histogram, and per-key re-reference intervals.
//
//   trace_stat --in=/tmp/homes.fttr [--top=0.25]
//   trace_stat --in=/tmp/kv.ftkv
//
// A missing --in, a flag the trace's kind does not read (a KV trace takes no
// --top) or a --top outside (0, 1] exits 2 with usage.

#include <cinttypes>
#include <cstdio>

#include "src/trace/trace_file.h"
#include "src/trace/trace_stats.h"
#include "src/util/args.h"

using namespace flashtier;

namespace {

constexpr char kUsage[] = "usage: trace_stat --in=FILE [--top=0.25 (block traces only)]\n";

int UsageError(const char* detail) {
  std::fprintf(stderr, "error: %s\n%s", detail, kUsage);
  return 2;
}

// Prints a power-of-two histogram with per-bucket and cumulative shares.
void PrintPow2Histogram(const std::vector<uint64_t>& hist, uint64_t total) {
  uint64_t cumulative = 0;
  for (size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) {
      continue;
    }
    cumulative += hist[b];
    std::printf("  [2^%-2zu, 2^%-2zu): %10" PRIu64 "  (%5.1f%%, cum %5.1f%%)\n", b, b + 1, hist[b],
                100.0 * static_cast<double>(hist[b]) / static_cast<double>(total),
                100.0 * static_cast<double>(cumulative) / static_cast<double>(total));
  }
}

// Re-reference intervals: how quickly keys come back. This is the view an
// admission policy acts on — mass in the small buckets is reuse a short
// ghost window can recognize; single-access keys are cache fills that can
// never pay back their flash write.
void PrintReuse(const ReuseStats& stats, const char* title, const char* keys) {
  std::printf("\n%s (%" PRIu64 " re-references, records since prior access):\n", title,
              stats.reref_accesses());
  PrintPow2Histogram(stats.RerefIntervalHistogram(), stats.reref_accesses());
  const uint64_t single = stats.SingleAccessKeys();
  const uint64_t unique = stats.unique_keys();
  const double pct =
      unique == 0 ? 0.0 : 100.0 * static_cast<double>(single) / static_cast<double>(unique);
  std::printf("never re-referenced: %" PRIu64 " of %" PRIu64 " %s", single, unique, keys);
  std::printf(" (%.1f%%)\n", pct);
}

// Reads the whole trace file `in` into `stats`; false (reported) if the
// reader refuses it.
template <typename Record, typename Stats>
bool ReadTrace(const std::string& in, Stats* stats) {
  RecordFileReader<Record> reader;
  const Status open = reader.Open(in);
  if (!IsOk(open)) {
    std::fprintf(stderr, "cannot read %s: %s\n", in.c_str(), StatusName(open).data());
    return false;
  }
  stats->Consume(reader);
  return true;
}

int PrintKvTrace(const std::string& in) {
  KvTraceStats stats;
  if (!ReadTrace<KvTraceRecord>(in, &stats)) {
    return 1;
  }

  std::printf("kv trace       : %s\n", in.c_str());
  std::printf("records        : %" PRIu64 "  (%" PRIu64 " gets, %" PRIu64 " sets, %" PRIu64
              " deletes)\n",
              stats.total_ops(), stats.gets(), stats.sets(), stats.deletes());
  std::printf("unique keys    : %" PRIu64 "\n", stats.unique_keys());
  std::printf("set bytes      : %" PRIu64 "  (mean object %.0f B, %.1f objects/4 KB slab)\n",
              stats.set_bytes(), stats.MeanObjectBytes(), stats.ObjectsPerSlabAtMeanSize());

  std::printf("\nobject sizes (over %" PRIu64 " sets, bytes):\n", stats.sets());
  PrintPow2Histogram(stats.SizeHistogram(), stats.sets());

  PrintReuse(stats, "per-key re-reference intervals", "keys");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string in = args.GetString("in", "");
  // --top picks the hot blocks of a block trace; a KV trace does not read it.
  const bool kv = ClassifyTraceFile(in) == TraceFileKind::kKv;
  const double top = kv ? 0.0 : args.Get("top", 0.25);
  args.ExitOnBadFlags(kUsage);
  if (in.empty()) {
    return UsageError("--in is required");
  }
  if (kv) {
    return PrintKvTrace(in);
  }
  if (!(top > 0.0 && top <= 1.0)) {
    return UsageError("--top must be in (0, 1]");
  }

  TraceStats stats;
  if (!ReadTrace<TraceRecord>(in, &stats)) {
    return 1;
  }

  std::printf("trace          : %s\n", in.c_str());
  std::printf("records        : %" PRIu64 "  (%.1f%% writes)\n", stats.total_ops(),
              100.0 * stats.write_fraction());
  std::printf("unique blocks  : %" PRIu64 "\n", stats.unique_blocks());
  std::printf("address range  : %.1f GB\n",
              static_cast<double>(stats.range_bytes()) / (1ull << 30));
  std::printf("accesses/block : %.2f (all)   %.2f (top %.0f%%)\n",
              stats.MeanAccessesPerBlock(1.0), stats.MeanAccessesPerBlock(top), top * 100);
  std::printf("writes/block   : %.2f (all)   %.2f (top %.0f%%)\n",
              stats.MeanWritesPerBlock(1.0), stats.MeanWritesPerBlock(top), top * 100);

  const auto densities = stats.RegionDensities(top);
  std::printf("\nregion density (top %.0f%% blocks, 100k-block regions, %zu regions):\n",
              top * 100, densities.size());
  for (const uint64_t decade : {1ull, 10ull, 100ull, 1'000ull, 10'000ull, 100'000ull}) {
    size_t below = 0;
    for (uint64_t d : densities) {
      if (d < decade) {
        ++below;
      }
    }
    std::printf("  < %6" PRIu64 " blocks referenced: %5.1f%% of regions\n", decade,
                densities.empty() ? 0.0
                                  : 100.0 * static_cast<double>(below) /
                                        static_cast<double>(densities.size()));
  }

  PrintReuse(stats, "re-reference intervals", "blocks");
  return 0;
}
