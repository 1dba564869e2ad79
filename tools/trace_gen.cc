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
// Unknown flags or invalid values exit 2 with usage.

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
  ArgParser args(argc, argv);
  if (!args.ok()) {
    return UsageError(args.error().c_str());
  }
  const auto unknown = args.UnknownFlags({"out", "workload", "scale", "range-gb", "unique", "ops",
                                          "writes", "seed", "keys", "zipf", "get-frac", "del-frac",
                                          "min-size", "max-size", "size-zipf"});
  if (!unknown.empty()) {
    std::string detail = "unknown flag: --" + unknown.front();
    return UsageError(detail.c_str());
  }
  const std::string out = args.GetString("out", "");
  if (out.empty()) {
    return UsageError("--out is required");
  }

  const std::string name = args.GetString("workload", "");
  if (name == "kv-zipf") {
    KvWorkloadProfile profile;
    profile.unique_keys = static_cast<uint64_t>(args.GetPositiveInt("keys", 20'000));
    profile.total_ops = static_cast<uint64_t>(args.GetPositiveInt("ops", 200'000));
    profile.key_zipf_s = args.GetPositiveDouble("zipf", 0.99);
    profile.get_fraction = args.GetDouble("get-frac", 0.60);
    profile.delete_fraction = args.GetDouble("del-frac", 0.05);
    profile.min_size = static_cast<uint32_t>(args.GetPositiveInt("min-size", kKvMinObjectBytes));
    profile.max_size = static_cast<uint32_t>(args.GetPositiveInt("max-size", 1024));
    profile.size_zipf_s = args.GetPositiveDouble("size-zipf", 1.10);
    profile.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    if (!args.ok()) {
      return UsageError(args.error().c_str());
    }
    if (profile.get_fraction < 0.0 || profile.delete_fraction < 0.0 ||
        profile.get_fraction + profile.delete_fraction > 1.0) {
      return UsageError("--get-frac/--del-frac must be >= 0 and sum to <= 1");
    }
    if (profile.min_size < kKvMinObjectBytes || profile.max_size > kKvMaxObjectBytes ||
        profile.min_size > profile.max_size) {
      return UsageError("--min-size/--max-size must satisfy 64 <= min <= max <= 4096");
    }

    KvZipfWorkload workload(profile);
    if (const int code = WriteTrace(workload, out); code != 0) {
      return code;
    }
    std::printf("wrote %" PRIu64 " kv records (%" PRIu64 " keys, zipf %.2f, %u-%u B) to %s\n",
                profile.total_ops, profile.unique_keys, profile.key_zipf_s, profile.min_size,
                profile.max_size, out.c_str());
    return 0;
  }

  WorkloadProfile profile;
  const double scale = args.GetPositiveDouble("scale", 0.1);
  if (name == "homes") {
    profile = HomesProfile(scale);
  } else if (name == "mail") {
    profile = MailProfile(scale);
  } else if (name == "usr") {
    profile = UsrProfile(scale);
  } else if (name == "proj") {
    profile = ProjProfile(scale);
  } else if (name.empty()) {
    profile.name = "custom";
    profile.range_blocks =
        static_cast<uint64_t>(args.GetPositiveInt("range-gb", 64)) * ((1ull << 30) / 4096);
    profile.unique_blocks = static_cast<uint64_t>(args.GetPositiveInt("unique", 200'000));
    profile.full_unique_blocks = profile.unique_blocks;
    profile.total_ops = static_cast<uint64_t>(args.GetPositiveInt("ops", 1'000'000));
    profile.write_fraction = args.GetDouble("writes", 0.5);
    profile.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  } else {
    std::string detail = "unknown workload: " + name;
    return UsageError(detail.c_str());
  }
  if (!args.ok()) {
    // A value that is not a number, or a zero or negative size (which would
    // make the generator spin forever or emit an empty trace), fails loudly
    // instead (INVALID_ARGUMENT).
    return UsageError(args.error().c_str());
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
