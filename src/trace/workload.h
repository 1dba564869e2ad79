// Synthetic workload generation matched to the paper's four traces.
//
// The paper replays FIU traces (homes, mail) and MSR-Cambridge traces (usr,
// proj). Those traces are not shipped here, so we synthesize streams that
// reproduce their first-order statistics, which are what the experiments
// depend on:
//   * Table 3: address range, unique block count, op count, write fraction;
//   * Figure 1: sparse placement of the working set across 100,000-block
//     regions (Zipf-weighted region popularity, sequential allocation runs);
//   * high re-reference skew: top-25% most-accessed blocks absorb ~90% of
//     accesses (consistent with the paper's ~10-16% miss rates for caches
//     sized at 25% of the working set), via Zipf popularity over the hot set;
//   * a cold single-touch tail (most prominent in usr/proj) modelled as an
//     interleaved scan over never-before-seen blocks;
//   * short sequential runs, which the write-back manager's contiguous
//     cleaning optimization depends on.
//
// Generation is fully deterministic given the profile's seed.

#ifndef FLASHTIER_TRACE_WORKLOAD_H_
#define FLASHTIER_TRACE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/kv_trace.h"
#include "src/trace/trace.h"
#include "src/util/bitmap.h"
#include "src/util/rng.h"

namespace flashtier {

// Region granularity used by Figure 1 and the generator's placement step.
inline constexpr uint64_t kRegionBlocks = 100'000;

struct WorkloadProfile {
  std::string name;
  uint64_t range_blocks = 0;    // size of the disk address space, 4 KB blocks
  uint64_t unique_blocks = 0;   // target working-set size of the generated stream
  // Unique blocks of the *full* trace (>= unique_blocks when only a prefix is
  // replayed). The paper sizes caches as 25% of this (Section 6.1), so mail/
  // usr/proj caches are large relative to their replayed prefixes.
  uint64_t full_unique_blocks = 0;
  uint64_t total_ops = 0;
  double write_fraction = 0.5;
  double hot_zipf_s = 1.05;     // popularity skew over the hot set
  double region_zipf_s = 1.20;  // skew of working-set placement over regions
  double seq_prob = 0.5;        // probability a request extends a run
  double cold_fraction = 0.10;  // fraction of unique blocks that are
                                // single-touch cold tail
  // Mean length (blocks) of the contiguous runs the *cold tail* of the
  // working set is allocated in (scattered small files).
  uint32_t alloc_run_blocks = 48;
  // Mean length of the runs the *hot set* is allocated in. Hot data is
  // strongly clustered — large active files (mailboxes, project trees) whose
  // regions Figure 1 shows with 10^4-10^5 accesses — which is what makes
  // 256 KB block-level mapping viable for a cache: the cacheable hot blocks
  // occupy few, dense erase-block regions.
  uint32_t hot_run_blocks = 384;
  // Mean length (blocks) of a sequential access burst within a run.
  uint32_t access_run_blocks = 16;
  // Reads are confined to the top 1/read_concentration of hot runs (1 = reads
  // and writes share one popularity distribution). Write-dominated server
  // traces read from a small stable set while writes spray much wider, which
  // is why their read miss rates stay low under heavy write churn.
  uint32_t read_concentration = 1;
  // Probability that a read targets a recently-written block. Traces taken
  // below an active page cache show strong read-after-write locality: a read
  // only reaches the storage tier shortly after the written data was pushed
  // out, so it lands on blocks still hot in the device.
  double read_recency = 0.0;
  uint64_t seed = 42;

  uint64_t RangeBytes() const { return range_blocks * 4096; }
};

// The four paper workloads (Table 3), linearly scaled. scale=1.0 reproduces
// the paper's replayed sizes; the default benches use the per-workload
// defaults in bench/ (~10x smaller) to keep runs minutes-long.
WorkloadProfile HomesProfile(double scale);
WorkloadProfile MailProfile(double scale);
WorkloadProfile UsrProfile(double scale);
WorkloadProfile ProjProfile(double scale);

// Deterministic synthetic trace stream for a profile.
class SyntheticWorkload final : public TraceSource {
 public:
  explicit SyntheticWorkload(const WorkloadProfile& profile);

  bool Next(TraceRecord* record) override;
  void Rewind() override;
  uint64_t size_hint() const override { return profile_.total_ops; }

  const WorkloadProfile& profile() const { return profile_; }

  // The generated working set (hot blocks first, then the cold tail).
  const std::vector<Lbn>& working_set() const { return blocks_; }
  size_t hot_count() const { return hot_count_; }

 private:
  void BuildWorkingSet();
  // Picks a hot block: Zipf-popular *run*, uniform position within it.
  // Temporal popularity is spatially correlated (hot files are hot in their
  // entirety), which is what lets block-granularity mapping cache densely.
  size_t SampleHotIndex(bool is_write);

  WorkloadProfile profile_;
  Rng rng_;

  std::vector<Lbn> blocks_;  // [0, hot_count_) hot, [hot_count_, N) cold
  std::vector<size_t> run_starts_;  // index into blocks_ of each run start
  Bitmap allocated_;  // over [0, range_blocks): set for each block in blocks_
  size_t hot_count_ = 0;
  size_t hot_runs_ = 0;
  std::unique_ptr<ZipfSampler> run_sampler_;

  // Stream state (reset by Rewind).
  uint64_t emitted_ = 0;
  size_t next_cold_ = 0;
  double cold_prob_ = 0.0;
  Lbn run_next_ = kInvalidLbn;
  uint32_t run_remaining_ = 0;
  bool run_is_write_ = false;
  std::vector<Lbn> recent_writes_;  // ring buffer for read-after-write locality
  size_t recent_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Tiny-object KV workloads (DESIGN.md §5k)
// ---------------------------------------------------------------------------

// The kv-zipf workload models a memcached/CDN-style object tier: Zipf key
// popularity (the YCSB default skew), a fixed get/set/delete mix, and
// per-key object sizes drawn once from a power-of-two size-class
// distribution skewed toward small objects (Nemo's tiny-object regime).
struct KvWorkloadProfile {
  std::string name = "kv-zipf";
  uint64_t unique_keys = 20'000;
  uint64_t total_ops = 200'000;
  double key_zipf_s = 0.99;     // key-popularity skew
  double get_fraction = 0.60;   // remainder is sets, minus deletes
  double delete_fraction = 0.05;
  uint32_t min_size = kKvMinObjectBytes;  // object-size bounds, bytes
  uint32_t max_size = 1024;
  double size_zipf_s = 1.10;    // skew over power-of-two size classes
  uint64_t seed = 42;
};

// Deterministic synthetic KV trace stream. Each key's size is fixed at
// construction (the same object re-set keeps its size); sets of a key always
// carry that size.
class KvZipfWorkload final : public KvTraceSource {
 public:
  explicit KvZipfWorkload(const KvWorkloadProfile& profile);

  bool Next(KvTraceRecord* record) override;
  void Rewind() override;
  uint64_t size_hint() const override { return profile_.total_ops; }

  const KvWorkloadProfile& profile() const { return profile_; }

 private:
  KvWorkloadProfile profile_;
  Rng rng_;
  std::vector<uint32_t> sizes_;  // per-key object size, indexed by key rank
  std::unique_ptr<ZipfSampler> key_sampler_;
  uint64_t emitted_ = 0;
};

}  // namespace flashtier

#endif  // FLASHTIER_TRACE_WORKLOAD_H_
