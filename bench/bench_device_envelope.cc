// Device performance envelope (Table 2's measured rows).
//
// Drives both FTLs with sequential and random read/write patterns and
// reports throughput in virtual time: the simulator's equivalents of
// Table 2's "Seq. Read 585 MB/s, Rand. Read 149,700 IOPS, Seq. Write
// 124 MB/s, Rand. Write 15,300 IOPS" (measured outputs on an empty
// SSD/SSC, not parameters). Random writes run against a fresh device, as in
// the paper.
//
// Each pattern replays open-loop at every queue depth in --depth (default
// 1,2,4,8,16,32): up to N requests in flight, overlapping on the device's
// plane/channel pipeline. Depth 1 is the classic closed loop, and the bench
// *asserts* it: each depth-1 pattern is re-run with the plain issue-on-
// completion loop on an identical fresh device and the elapsed virtual times
// must match bit for bit (exit 1 otherwise). Submit-to-complete latency
// feeds a histogram, so every row carries p50/p95/p99/p999 alongside
// throughput.
//
// Flags:
//   --depth=<csv>      comma-separated queue depths (default 1,2,4,8,16,32)
//   --ops=<n>          ops per pattern (default 40,000)
//   --stats-json=FILE  append one JSON line per (device, depth, pattern)

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/open_loop.h"
#include "src/ssc/ssc_device.h"
#include "src/ssd/ssd_ftl.h"
#include "src/util/args.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace flashtier {
namespace {

constexpr uint64_t kPages = 64 * 1024;  // 256 MB device

struct Device {
  std::function<void(uint64_t, uint64_t)> write;
  std::function<void(uint64_t)> read;
  std::unique_ptr<SsdFtl> ssd;
  std::unique_ptr<SscDevice> ssc;
};

Device Make(const std::string& kind, SimClock& clock) {
  Device d;
  if (kind == "ssd") {
    d.ssd = std::make_unique<SsdFtl>(kPages, &clock);
    SsdFtl* ssd = d.ssd.get();
    // The envelope measures device timing envelopes; per-op outcomes
    // (misses, no-space) are part of the workload, not errors.
    d.write = [ssd](uint64_t lpn, uint64_t v) { (void)ssd->Write(lpn, v); };
    d.read = [ssd](uint64_t lpn) {
      uint64_t t;
      (void)ssd->Read(lpn, &t);
    };
    return d;
  }
  SscConfig config;
  config.capacity_pages = kPages;
  if (kind == "ssc") {
    config.mode = ConsistencyMode::kNone;
  } else {  // "sscr": SE-Merge with full consistency, dirty writes
    config.policy = EvictionPolicy::kSeMerge;
    config.mode = ConsistencyMode::kFull;
  }
  d.ssc = std::make_unique<SscDevice>(config, &clock);
  SscDevice* ssc = d.ssc.get();
  if (kind == "ssc") {
    d.write = [ssc](uint64_t lbn, uint64_t v) { (void)ssc->WriteClean(lbn, v); };
  } else {
    d.write = [ssc](uint64_t lbn, uint64_t v) { (void)ssc->WriteDirty(lbn, v); };
  }
  d.read = [ssc](uint64_t lbn) {
    uint64_t t;
    (void)ssc->Read(lbn, &t);
  };
  return d;
}

struct PatternResult {
  uint64_t elapsed_us = 0;  // first measured submit -> last completion
  LatencyHistogram latency;

  double Iops(uint64_t ops) const {
    return elapsed_us == 0
               ? 0.0
               : static_cast<double>(ops) * 1e6 / static_cast<double>(elapsed_us);
  }
  double Mbps(uint64_t ops) const {
    return elapsed_us == 0
               ? 0.0
               : static_cast<double>(ops) * 4096 / static_cast<double>(elapsed_us);
  }
};

// Replays `ops` invocations of `issue` open-loop at `depth`; the device's
// work extends each request's chain, and the pattern's elapsed time is the
// span from the first submit to the last completion. Drains before
// returning so the next pattern starts after all in-flight work.
PatternResult RunPattern(SimClock& clock, uint32_t depth, uint64_t ops,
                         const std::function<void(uint64_t)>& issue) {
  OpenLoopQueue loop(&clock, depth);
  PatternResult result;
  OpenLoopSpan span;
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t submit = loop.Begin();
    issue(i);
    const uint64_t latency_us = loop.End(submit);
    result.latency.Add(latency_us);
    span.Add(submit, latency_us);
  }
  loop.Drain();
  result.elapsed_us = span.ElapsedUs();
  return result;
}

// The four Table 2 patterns for one (device kind, depth) pair. Patterns
// seq-write/seq-read/rand-read share one device (reads need the fill);
// rand-write gets a fresh device, as in the paper's empty-device envelope.
struct EnvelopeRow {
  PatternResult seq_write;
  PatternResult seq_read;
  PatternResult rand_read;
  PatternResult rand_write;
};

EnvelopeRow RunRow(const std::string& kind, uint32_t depth, uint64_t ops) {
  EnvelopeRow row;
  {
    SimClock clock;
    Device d = Make(kind, clock);
    Rng rng(7);
    row.seq_write = RunPattern(clock, depth, ops, [&](uint64_t i) { d.write(i, i); });
    row.seq_read = RunPattern(clock, depth, ops, [&](uint64_t i) { d.read(i); });
    row.rand_read =
        RunPattern(clock, depth, ops, [&](uint64_t) { d.read(rng.Below(ops)); });
  }
  {
    SimClock clock;
    Device d = Make(kind, clock);
    Rng rng(9);
    row.rand_write =
        RunPattern(clock, depth, ops, [&](uint64_t i) { d.write(rng.Below(kPages), i); });
  }
  return row;
}

// The pre-pipeline engine: issue each request when the previous completes,
// elapsed = clock delta. The depth-1 open-loop results must equal this bit
// for bit — the pipelined model's depth-1 guarantee.
EnvelopeRow RunClosedLoopRow(const std::string& kind, uint64_t ops) {
  EnvelopeRow row;
  const auto closed = [](SimClock& clock, uint64_t n,
                         const std::function<void(uint64_t)>& issue) {
    PatternResult r;
    const uint64_t t0 = clock.now_us();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t start = clock.now_us();
      issue(i);
      r.latency.Add(clock.now_us() - start);
    }
    r.elapsed_us = clock.now_us() - t0;
    return r;
  };
  {
    SimClock clock;
    Device d = Make(kind, clock);
    Rng rng(7);
    row.seq_write = closed(clock, ops, [&](uint64_t i) { d.write(i, i); });
    row.seq_read = closed(clock, ops, [&](uint64_t i) { d.read(i); });
    row.rand_read = closed(clock, ops, [&](uint64_t) { d.read(rng.Below(ops)); });
  }
  {
    SimClock clock;
    Device d = Make(kind, clock);
    Rng rng(9);
    row.rand_write = closed(clock, ops, [&](uint64_t i) { d.write(rng.Below(kPages), i); });
  }
  return row;
}

bool SamePattern(const char* what, const char* kind, const PatternResult& open,
                 const PatternResult& legacy) {
  if (open.elapsed_us == legacy.elapsed_us && open.latency == legacy.latency) {
    return true;
  }
  std::fprintf(stderr,
               "depth-1 mismatch: %s/%s open-loop elapsed=%" PRIu64 " vs closed-loop %" PRIu64
               " (or latency histograms differ)\n",
               kind, what, open.elapsed_us, legacy.elapsed_us);
  return false;
}

void PrintPattern(const std::string& json_path, const char* kind, uint32_t depth,
                  const char* pattern, const PatternResult& r, uint64_t ops, bool mbps) {
  if (json_path.empty()) {
    return;
  }
  JsonLine line;
  line.String("bench", "device_envelope")
      .String("device", kind)
      .Uint("depth", depth)
      .String("pattern", pattern)
      .Uint("ops", ops)
      .Uint("elapsed_us", r.elapsed_us)
      .Double("iops", r.Iops(ops), 1)
      .Double("mbps", mbps ? r.Mbps(ops) : 0.0, 1)
      .Double("mean_us", r.latency.mean(), 2);
  bench::PercentilesJson(line, r.latency).Uint("max_us", r.latency.max());
  bench::AppendStatsLine(json_path, line);
}

// --depth=<csv>: the queue depths, each a positive integer; empty when any
// item is not.
std::vector<uint32_t> ParseDepths(const std::string& csv) {
  std::vector<uint32_t> depths;
  std::istringstream in(csv);
  for (std::string item; std::getline(in, item, ',');) {
    uint32_t depth = 0;
    const auto [end, error] = std::from_chars(item.data(), item.data() + item.size(), depth);
    if (error != std::errc() || end != item.data() + item.size() || depth == 0) {
      return {};
    }
    depths.push_back(depth);
  }
  return depths;
}

}  // namespace
}  // namespace flashtier

int main(int argc, char** argv) {
  using namespace flashtier;
  const ArgParser args(argc, argv);
  const std::string depth_list = args.GetString("depth", "1,2,4,8,16,32");
  const uint64_t ops = args.GetPositive<uint64_t>("ops", 40'000);
  const std::string json_path = args.GetString("stats-json", "");
  args.ExitOnBadFlags();
  const std::vector<uint32_t> depths = ParseDepths(depth_list);
  if (depths.empty()) {
    std::fprintf(stderr, "--depth must be a comma-separated list of positive integers, got: %s\n",
                 depth_list.c_str());
    return 2;
  }

  std::printf("Device envelope (virtual time): 4 KB ops on a %llu MB device, %" PRIu64
              " ops/pattern, open-loop\n",
              (unsigned long long)(kPages * 4096 >> 20), ops);
  std::printf("%-12s %6s %14s %14s %9s %9s %15s %15s\n", "device", "depth", "seq-read MB/s",
              "rand-read IOPS", "rr-p99", "rr-p999", "seq-write MB/s", "rand-write IOPS");

  bool depth1_ok = true;
  for (const char* kind : {"ssd", "ssc", "sscr"}) {
    const char* label = kind == std::string("ssd")    ? "SSD (FAST)"
                        : kind == std::string("ssc") ? "SSC"
                                                     : "SSC-R(C/D)";
    for (const uint32_t depth : depths) {
      const EnvelopeRow row = RunRow(kind, depth, ops);
      if (depth == 1) {
        const EnvelopeRow legacy = RunClosedLoopRow(kind, ops);
        depth1_ok &= SamePattern("seq-write", kind, row.seq_write, legacy.seq_write);
        depth1_ok &= SamePattern("seq-read", kind, row.seq_read, legacy.seq_read);
        depth1_ok &= SamePattern("rand-read", kind, row.rand_read, legacy.rand_read);
        depth1_ok &= SamePattern("rand-write", kind, row.rand_write, legacy.rand_write);
      }
      std::printf("%-12s %6u %14.0f %14.0f %9.0f %9.0f %15.0f %15.0f\n", label, depth,
                  row.seq_read.Mbps(ops), row.rand_read.Iops(ops),
                  row.rand_read.latency.PercentileUs(99),
                  row.rand_read.latency.PercentileUs(99.9), row.seq_write.Mbps(ops),
                  row.rand_write.Iops(ops));
      PrintPattern(json_path, kind, depth, "seq_write", row.seq_write, ops, true);
      PrintPattern(json_path, kind, depth, "seq_read", row.seq_read, ops, true);
      PrintPattern(json_path, kind, depth, "rand_read", row.rand_read, ops, false);
      PrintPattern(json_path, kind, depth, "rand_write", row.rand_write, ops, false);
    }
  }
  std::printf("\nPaper Table 2 (empty SSD): 585 MB/s seq read, 149,700 rand-read IOPS, "
              "124 MB/s seq write, 15,300 rand-write IOPS.\n");
  std::printf("(Depth 1 is the closed loop — asserted bit-identical to the pre-pipeline "
              "engine; deeper queues overlap on %u planes / %u channels.)\n",
              FlashGeometry{}.planes, FlashGeometry{}.channels);
  if (!depth1_ok) {
    std::fprintf(stderr, "FAIL: depth-1 open-loop differs from the closed-loop model\n");
    return 1;
  }
  return 0;
}
