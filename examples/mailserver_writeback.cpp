// Scenario: a write-heavy mail server on a write-back FlashTier cache.
//
// Writes are absorbed by the SSC with write-dirty and trickle to disk when
// the manager's dirty threshold triggers cleaning of contiguous LRU runs.
// Mid-run, the machine crashes: the demo shows that every acknowledged write
// survives (guarantee G1), the dirty-block table is rebuilt with an exists
// scan, and the system keeps running — then shuts down cleanly, flushing the
// remaining dirty data.
//
//   $ ./mailserver_writeback [--ops=N]

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "src/core/flashtier.h"
#include "src/trace/workload.h"
#include "src/util/args.h"

using namespace flashtier;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const uint64_t total_ops = args.GetPositive<uint64_t>("ops", 300'000);
  args.ExitOnBadFlags();

  WorkloadProfile mail = MailProfile(0.02);
  mail.total_ops = total_ops;

  SystemConfig config;
  config.type = SystemType::kSscWriteBack;
  config.cache_pages = 64'000;  // 250 MB cache
  config.consistency = ConsistencyMode::kFull;

  std::printf("== mail server (write-back SSC, 20%% dirty threshold) ==\n\n");
  FlashTierSystem system(config);
  SyntheticWorkload workload(mail);

  std::unordered_map<Lbn, uint64_t> acknowledged;  // newest acked write
  TraceRecord r;
  uint64_t seq = 0;

  const auto pump = [&](uint64_t until) {
    while (seq < until && workload.Next(&r)) {
      if (r.op == TraceOp::kWrite) {
        const uint64_t token = (r.lbn << 16) ^ seq;
        if (IsOk(system.manager().Write(r.lbn, token))) {
          acknowledged[r.lbn] = token;
        }
      } else {
        uint64_t token = 0;
        // A miss is an expected outcome of the mail working set, not an error.
        (void)system.manager().Read(r.lbn, &token);
      }
      ++seq;
    }
  };

  pump(total_ops / 2);
  WriteBackManager& manager = *system.write_back_manager();
  std::printf("halfway      : %" PRIu64 " dirty blocks cached, %" PRIu64
              " cleaned to disk, %" PRIu64 " disk writes (coalesced runs)\n",
              manager.dirty_blocks(), manager.stats().writebacks,
              system.disk().stats().writes);

  // -- power failure --
  system.ssc()->SimulateCrash();
  AssertOk(system.ssc()->Recover());
  manager.RecoverDirtyTable();  // the exists scan (Section 4.4)
  std::printf("crash        : recovered map in %.1f ms; dirty table rebuilt with "
              "%" PRIu64 " entries\n",
              static_cast<double>(system.ssc()->last_recovery_us()) / 1000.0,
              manager.dirty_blocks());

  // Verify G1: every acknowledged write is still readable and current.
  uint64_t verified = 0;
  for (const auto& [lbn, expected] : acknowledged) {
    uint64_t token = 0;
    if (!IsOk(system.manager().Read(lbn, &token)) || token != expected) {
      std::printf("!! LOST OR STALE acknowledged write at lbn %" PRIu64 "\n", lbn);
      return 1;
    }
    ++verified;
  }
  std::printf("verified     : all %" PRIu64 " acknowledged writes intact after crash\n",
              verified);

  pump(total_ops);
  std::printf("second half  : %" PRIu64 " ops total, hit rate %.1f%%\n", seq,
              100.0 * system.manager().stats().HitRate());

  // Orderly shutdown: push everything to disk.
  if (!IsOk(manager.FlushAll())) {
    std::printf("!! flush failed\n");
    return 1;
  }
  uint64_t mismatches = 0;
  for (const auto& [lbn, expected] : acknowledged) {
    uint64_t token = 0;
    // The disk model's read cannot miss; the token check below is the verdict.
    (void)system.disk().Read(lbn, &token);
    if (token != expected) {
      ++mismatches;
    }
  }
  std::printf("shutdown     : cache flushed; disk holds the newest copy of every "
              "block (%" PRIu64 " mismatches)\n", mismatches);
  std::printf("\nSSC stats    : %" PRIu64 " silent evictions, %" PRIu64
              " log flushes, %" PRIu64 " checkpoints\n",
              system.ssc()->ftl_stats().silent_evictions,
              system.ssc()->persist_stats().sync_commits +
                  system.ssc()->persist_stats().group_commits,
              system.ssc()->persist_stats().checkpoints);
  return mismatches == 0 ? 0 : 1;
}
