// trace_gen — write a synthetic workload to a binary trace file.
//
//   trace_gen --workload=homes --scale=0.1 --out=/tmp/homes.fttr
//   trace_gen --range-gb=100 --unique=500000 --ops=2000000 --writes=0.8
//             --out=/tmp/custom.fttr
//   trace_gen --workload=kv-zipf --keys=20000 --ops=200000 --zipf=0.99
//             --get-frac=0.6 --del-frac=0.05 --min-size=64 --max-size=1024
//             --out=/tmp/kv.ftkv
//
// Block traces ("FTTR") are replayable with trace_stat, the TraceFileReader
// API, or any bench; kv-zipf writes a KV trace ("FTKV") for the KvCache
// layer. Both kinds go through one writer (src/trace/trace_file.h).
// A flag the chosen workload does not read (a paper workload reads only
// --scale, kv-zipf no --scale) or an invalid value exits 2 with usage.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/trace/trace_file.h"
#include "src/trace/workload.h"
#include "src/util/args.h"

using namespace flashtier;

namespace {

constexpr char kUsage[] =
    "usage: trace_gen --out=FILE [--workload=homes|mail|usr|proj --scale=F]\n"
    "                 | [--range-gb=N --unique=N --ops=N --writes=F --seed=N]\n"
    "                 | [--workload=kv-zipf --keys=N --ops=N --zipf=F --get-frac=F\n"
    "                    --del-frac=F --min-size=N --max-size=N --size-zipf=F --seed=N]\n";

int UsageError(const char* detail) {
  std::fprintf(stderr, "error: %s\n%s", detail, kUsage);
  return 2;
}

// Writes every record of `source` to `out`; returns the exit code.
template <typename Record>
int WriteTrace(RecordSource<Record>& source, const std::string& out) {
  RecordFileWriter<Record> writer;
  if (!IsOk(writer.Open(out))) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  Record r;
  while (source.Next(&r)) {
    if (!IsOk(writer.Append(r))) {
      std::fprintf(stderr, "write failed\n");
      return 1;
    }
  }
  if (!IsOk(writer.Close())) {
    std::fprintf(stderr, "close failed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const std::string out = args.GetString("out", "");
  const std::string name = args.GetString("workload", "");
  // kv-zipf and a custom trace (no --workload) read their own shape, a paper
  // workload only --scale. A zero or negative size, which would make the
  // generator spin forever or emit an empty trace, is refused.
  KvWorkloadProfile kv;
  WorkloadProfile profile;
  if (name == "kv-zipf") {
    kv.unique_keys = args.GetPositive("keys", kv.unique_keys);
    kv.total_ops = args.GetPositive("ops", kv.total_ops);
    kv.key_zipf_s = args.GetPositive("zipf", kv.key_zipf_s);
    kv.get_fraction = args.GetFraction("get-frac", kv.get_fraction);
    kv.delete_fraction = args.GetFraction("del-frac", kv.delete_fraction);
    kv.min_size = args.GetPositive("min-size", kv.min_size);
    kv.max_size = args.GetPositive("max-size", kv.max_size);
    kv.size_zipf_s = args.GetPositive("size-zipf", kv.size_zipf_s);
    kv.seed = args.Get("seed", kv.seed);
  } else if (name.empty()) {
    profile.name = "custom";
    // Read as uint32_t, so the product cannot overflow.
    profile.range_blocks =
        uint64_t{args.GetPositive<uint32_t>("range-gb", 64)} * ((1ull << 30) / 4096);
    profile.unique_blocks = args.GetPositive<uint64_t>("unique", 200'000);
    profile.full_unique_blocks = profile.unique_blocks;
    profile.total_ops = args.GetPositive<uint64_t>("ops", 1'000'000);
    profile.write_fraction = args.GetFraction("writes", 0.5);
    profile.seed = args.Get<uint64_t>("seed", 42);
  } else {
    const double scale = args.GetPositive("scale", 0.1);
    if (name == "homes") {
      profile = HomesProfile(scale);
    } else if (name == "mail") {
      profile = MailProfile(scale);
    } else if (name == "usr") {
      profile = UsrProfile(scale);
    } else if (name == "proj") {
      profile = ProjProfile(scale);
    } else {
      const std::string detail = "unknown workload: " + name;
      return UsageError(detail.c_str());
    }
  }
  args.ExitOnBadFlags(kUsage);
  if (out.empty()) {
    return UsageError("--out is required");
  }

  if (name == "kv-zipf") {
    if (kv.get_fraction + kv.delete_fraction > 1.0) {
      return UsageError("--get-frac and --del-frac must sum to at most 1");
    }
    if (kv.min_size < kKvMinObjectBytes || kv.max_size > kKvMaxObjectBytes ||
        kv.min_size > kv.max_size) {
      return UsageError("--min-size/--max-size must satisfy 64 <= min <= max <= 4096");
    }
    KvZipfWorkload workload(kv);
    if (const int code = WriteTrace(workload, out); code != 0) {
      return code;
    }
    std::printf("wrote %" PRIu64 " kv records (%" PRIu64 " keys, zipf %.2f, %u-%u B) to %s\n",
                kv.total_ops, kv.unique_keys, kv.key_zipf_s, kv.min_size, kv.max_size,
                out.c_str());
    return 0;
  }

  SyntheticWorkload workload(profile);
  if (const int code = WriteTrace(workload, out); code != 0) {
    return code;
  }
  std::printf("wrote %" PRIu64 " records (%s, range %.1f GB, %.1f%% writes) to %s\n",
              profile.total_ops, profile.name.c_str(),
              static_cast<double>(profile.RangeBytes()) / (1ull << 30),
              100.0 * profile.write_fraction, out.c_str());
  return 0;
}
