// Unit tests for the SSC persistence machinery: logging, group commit,
// checkpoint policy, crash/recovery semantics, and timing charges.

#include <gtest/gtest.h>

#include "src/ssc/persist.h"

namespace flashtier {
namespace {

PersistenceManager::Options SmallOptions(ConsistencyMode mode = ConsistencyMode::kFull) {
  PersistenceManager::Options o;
  o.mode = mode;
  o.group_commit_ops = 10;
  o.checkpoint_interval_writes = 1'000'000;  // effectively off by default
  return o;
}

LogRecord MakeRecord(Lbn key) {
  LogRecord r;
  r.type = LogOpType::kInsertPage;
  r.key = key;
  r.ppn = key * 2;
  r.dirty_bits = 1;
  return r;
}

TEST(PersistTest, SyncAppendIsImmediatelyDurable) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  pm.Append(MakeRecord(1), /*sync=*/true);
  EXPECT_EQ(pm.durable_log_records(), 1u);
  EXPECT_EQ(pm.buffered_records(), 0u);
  EXPECT_EQ(pm.stats().sync_commits, 1u);
}

TEST(PersistTest, AsyncAppendsBufferUntilGroupCommit) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  for (int i = 0; i < 9; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  EXPECT_EQ(pm.buffered_records(), 9u);
  EXPECT_EQ(pm.durable_log_records(), 0u);
  pm.Append(MakeRecord(9), /*sync=*/false);  // 10th triggers commit
  EXPECT_EQ(pm.buffered_records(), 0u);
  EXPECT_EQ(pm.durable_log_records(), 10u);
  EXPECT_EQ(pm.stats().group_commits, 1u);
}

TEST(PersistTest, SyncFlushCoversEarlierBufferedRecords) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  pm.Append(MakeRecord(1), /*sync=*/false);
  pm.Append(MakeRecord(2), /*sync=*/true);
  EXPECT_EQ(pm.durable_log_records(), 2u);
}

TEST(PersistTest, SmallSyncCommitUsesAtomicWriteLatency) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  const uint64_t t0 = clock.now_us();
  pm.Append(MakeRecord(1), /*sync=*/true);
  EXPECT_EQ(clock.now_us() - t0, FlashTimings::kAtomicWriteUs);
}

TEST(PersistTest, LargeGroupCommitPaysPageWrites) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.group_commit_ops = 1000;  // 1000 * 41 B > two pages
  PersistenceManager pm(opts, &clock);
  for (int i = 0; i < 999; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  const uint64_t t0 = clock.now_us();
  pm.Flush();
  const uint64_t cost = clock.now_us() - t0;
  EXPECT_GE(cost, 2 * FlashTimings::WriteCostUs());
}

TEST(PersistTest, NoneModeDropsEverythingSilently) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(ConsistencyMode::kNone), &clock);
  pm.Append(MakeRecord(1), /*sync=*/true);
  EXPECT_EQ(pm.durable_log_records(), 0u);
  EXPECT_EQ(pm.stats().records_logged, 0u);
  EXPECT_EQ(clock.now_us(), 0u);  // no media cost either
}

TEST(PersistTest, CrashDropsOnlyBufferedRecords) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  pm.Append(MakeRecord(1), /*sync=*/true);
  pm.Append(MakeRecord(2), /*sync=*/false);
  pm.Crash();
  EXPECT_EQ(pm.stats().records_lost_in_crash, 1u);
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].key, 1u);
}

TEST(PersistTest, CheckpointTruncatesLogAndSubsumesBuffer) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  for (int i = 0; i < 25; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  std::vector<LogRecord> entries(3);
  entries[0].key = 100;
  pm.WriteCheckpoint(entries);
  EXPECT_EQ(pm.durable_log_records(), 0u);
  EXPECT_EQ(pm.buffered_records(), 0u);
  EXPECT_EQ(pm.stats().checkpoints, 1u);

  // Records after the checkpoint replay; records before it do not.
  pm.Append(MakeRecord(777), /*sync=*/true);
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  EXPECT_EQ(ckpt.size(), 3u);
  EXPECT_EQ(ckpt[0].key, 100u);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].key, 777u);
  EXPECT_EQ(tail[0].lsn, 26u);  // numbering runs on across the checkpoint
}

TEST(PersistTest, MaybeCheckpointHonorsWriteInterval) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.checkpoint_interval_writes = 50;
  PersistenceManager pm(opts, &clock);
  int snapshots_taken = 0;
  // Large snapshots keep the log-size ratio rule quiet, isolating the
  // write-interval rule.
  pm.set_checkpoint_source([&snapshots_taken] {
    ++snapshots_taken;
    return std::vector<LogRecord>(100'000);
  });
  for (int i = 0; i < 120; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
    pm.MaybeCheckpoint();
  }
  EXPECT_EQ(snapshots_taken, 2);  // at writes 50 and 100
  EXPECT_EQ(pm.stats().checkpoints, 2u);
}

TEST(PersistTest, MaybeCheckpointHonorsLogSizeRatio) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.group_commit_ops = 4;
  PersistenceManager pm(opts, &clock);
  // First checkpoint establishes a small checkpoint size (10 entries = 330
  // bytes); then a log > 2/3 of that (just a handful of 41-byte records)
  // must trigger the next one.
  pm.WriteCheckpoint(std::vector<LogRecord>(10));
  int snapshots_taken = 0;
  pm.set_checkpoint_source([&snapshots_taken] {
    ++snapshots_taken;
    return std::vector<LogRecord>(10);
  });
  for (int i = 0; i < 100 && snapshots_taken == 0; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
    pm.MaybeCheckpoint();
  }
  EXPECT_EQ(snapshots_taken, 1);
}

TEST(PersistTest, RecoveryChargesMediaReads) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  pm.WriteCheckpoint(std::vector<LogRecord>(1000));
  for (int i = 0; i < 500; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  pm.Flush();
  pm.Crash();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  EXPECT_GT(pm.stats().last_recovery_us, 0u);
  // Bigger state must take longer to recover.
  SimClock clock2;
  PersistenceManager pm2(SmallOptions(), &clock2);
  pm2.WriteCheckpoint(std::vector<LogRecord>(100'000));
  pm2.Crash();
  pm2.Recover(&ckpt, &tail);
  EXPECT_GT(pm2.stats().last_recovery_us, pm.stats().last_recovery_us);
}

TEST(PersistTest, RelaxedCleanCrashWithPartialGroupCommitBufferLosesOnlyBuffer) {
  // FlashTier-D buffers write-clean inserts: a crash with a partially filled
  // group-commit buffer must lose exactly those records and nothing durable.
  SimClock clock;
  PersistenceManager pm(SmallOptions(ConsistencyMode::kRelaxedClean), &clock);
  pm.Append(MakeRecord(1), /*sync=*/true);  // an overwrite: sync
  for (int i = 0; i < 7; ++i) {  // seven buffered clean inserts (< 10)
    pm.Append(MakeRecord(100 + i), /*sync=*/false);
  }
  ASSERT_EQ(pm.buffered_records(), 7u);
  pm.Crash();
  EXPECT_EQ(pm.stats().records_lost_in_crash, 7u);
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  EXPECT_TRUE(ckpt.empty());
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].key, 1u);
}

TEST(PersistTest, CheckpointRatioBoundaryIsStrict) {
  // With the two-thirds ratio and a 45-entry checkpoint (45 * 33 B =
  // 1,485 B), a log of 22 records (22 * 45 B = 990 B) sits *exactly* at
  // ratio * ckpt bytes. The policy uses a strict comparison, so the boundary
  // itself must not trigger; the 23rd record must.
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  pm.WriteCheckpoint(std::vector<LogRecord>(45));
  int snapshots_taken = 0;
  pm.set_checkpoint_source([&snapshots_taken] {
    ++snapshots_taken;
    return std::vector<LogRecord>(45);
  });
  for (int i = 0; i < 22; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/true);
    pm.MaybeCheckpoint();
  }
  EXPECT_EQ(snapshots_taken, 0);  // exactly at the boundary: no checkpoint
  pm.Append(MakeRecord(22), /*sync=*/true);
  pm.MaybeCheckpoint();
  EXPECT_EQ(snapshots_taken, 1);  // one byte past: checkpoint
}

TEST(PersistTest, RecoveryWithEmptyCheckpointRegionReplaysWholeLog) {
  // Before the first checkpoint exists, recovery must work from the log
  // alone: empty checkpoint, every durable record replayed.
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  for (int i = 0; i < 5; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/true);
  }
  pm.Crash();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  EXPECT_TRUE(ckpt.empty());
  EXPECT_EQ(pm.stats().recovered_checkpoint_entries, 0u);
  ASSERT_EQ(tail.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tail[i].key, static_cast<Lbn>(i));
  }
}

TEST(PersistTest, AtomicBatchDefersGroupCommit) {
  // Inside a batch, crossing the group-commit threshold must not flush (a
  // flush there could tear a merge's remove/insert pair); the deferred
  // commit fires on the first asynchronous append after the batch closes.
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  {
    PersistenceManager::AtomicBatchScope batch(&pm);
    for (int i = 0; i < 15; ++i) {  // past the threshold of 10
      pm.Append(MakeRecord(i), /*sync=*/false);
    }
    EXPECT_EQ(pm.buffered_records(), 15u);
    EXPECT_EQ(pm.durable_log_records(), 0u);
  }
  pm.Append(MakeRecord(99), /*sync=*/false);
  EXPECT_EQ(pm.buffered_records(), 0u);
  EXPECT_EQ(pm.durable_log_records(), 16u);
}

TEST(PersistTest, ExplicitFlushInsideAtomicBatchStillFlushes) {
  // The pre-erase barrier must stay effective mid-batch: reclaimed flash may
  // never be referenced by a recovered mapping.
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  PersistenceManager::AtomicBatchScope batch(&pm);
  pm.Append(MakeRecord(1), /*sync=*/false);
  pm.Flush();
  EXPECT_EQ(pm.durable_log_records(), 1u);
  EXPECT_EQ(pm.buffered_records(), 0u);
}

std::vector<LogRecord> MakeEntries(Lbn base, size_t n) {
  std::vector<LogRecord> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i].key = base + i;
    v[i].ppn = (base + i) * 2;
  }
  return v;
}

// Sync-appends kLongLog records keyed base, base + 1, ..., a durable log that
// spans three chunks, then rots records 0, 1,000 and the last. The log must
// be empty on entry. Returns the keys recovery must hand back: every other
// record, once each, in LSN order.
constexpr size_t kLongLog = 2'500;
static_assert(kLongLog > 2 * ChunkedLog::kChunkRecords, "the long log spans three chunks");
std::vector<Lbn> AppendLongLogRottingThree(PersistenceManager* pm, Lbn base) {
  EXPECT_EQ(pm->durable_log_records(), 0u);
  std::vector<Lbn> kept;
  for (size_t i = 0; i < kLongLog; ++i) {
    pm->Append(MakeRecord(base + i), /*sync=*/true);
    if (i != 0 && i != 1'000 && i != kLongLog - 1) {
      kept.push_back(base + i);
    }
  }
  for (const size_t index : {size_t{0}, size_t{1'000}, kLongLog - 1}) {
    pm->CorruptDurableRecordForTesting(index);
  }
  return kept;
}

// The keys of a recovered log tail, checking its LSNs strictly increase.
std::vector<Lbn> KeysInLsnOrder(const std::vector<LogRecord>& tail) {
  std::vector<Lbn> keys;
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_TRUE(i == 0 || tail[i - 1].lsn < tail[i].lsn) << "at " << i;
    keys.push_back(tail[i].key);
  }
  return keys;
}

TEST(PersistTest, LogRegionExactlyFullBatchStillFlushes) {
  // One page of log region holds exactly 91 records (91 * 45 B = 4095 B).
  // The exactly-full batch is not an overflow and must land as a normal
  // flush; the 92nd record converts the next flush into a forced checkpoint.
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.group_commit_ops = 1000;  // flush timing controlled by the test
  opts.log_region_pages = 1;
  PersistenceManager pm(opts, &clock);
  pm.set_checkpoint_source([] { return std::vector<LogRecord>(3); });
  for (int i = 0; i < 91; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  pm.Flush();
  EXPECT_EQ(pm.durable_log_records(), 91u);
  EXPECT_EQ(pm.DurableLogPages(), 1u);
  EXPECT_EQ(pm.stats().checkpoints, 0u);
  EXPECT_EQ(pm.stats().log_full_events, 0u);

  pm.Append(MakeRecord(91), /*sync=*/false);
  pm.Flush();
  EXPECT_EQ(pm.stats().checkpoints, 1u);
  EXPECT_EQ(pm.stats().log_full_events, 1u);
  EXPECT_EQ(pm.stats().forced_checkpoints, 1u);
  // The checkpoint subsumed both the durable log and the buffered record, so
  // the durable log never outgrew its region.
  EXPECT_EQ(pm.durable_log_records(), 0u);
  EXPECT_EQ(pm.buffered_records(), 0u);
  EXPECT_LE(pm.DurableLogPages(), pm.log_region_pages());
}

TEST(PersistTest, AdmitHostOpThrottlesWhenFullAndReleasesAfterDrain) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.group_commit_ops = 1000;
  opts.log_region_pages = 1;
  PersistenceManager pm(opts, &clock);
  pm.set_checkpoint_source([] { return std::vector<LogRecord>(3); });
  EXPECT_TRUE(pm.AdmitHostOp());
  // 88 durable records fit in the page, but not with AdmitHostOp's 4-record
  // margin for the internal records a host op can trigger: the op is refused
  // before it has any side effects to tear.
  for (int i = 0; i < 88; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  pm.Flush();
  EXPECT_EQ(pm.durable_log_records(), 88u);
  EXPECT_FALSE(pm.AdmitHostOp());
  EXPECT_EQ(pm.stats().log_full_events, 1u);
  // Draining the log releases the throttle.
  pm.ForceCheckpoint();
  EXPECT_EQ(pm.stats().forced_checkpoints, 1u);
  EXPECT_EQ(pm.durable_log_records(), 0u);
  EXPECT_TRUE(pm.AdmitHostOp());
}

TEST(PersistTest, HighWaterForcesCheckpointBeforeRegionFills) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.log_region_pages = 4;  // 0.75 high water = 3 pages
  PersistenceManager pm(opts, &clock);
  // A huge first checkpoint keeps the size-ratio rule quiet and SmallOptions
  // disables the write-interval rule, isolating the region trigger.
  pm.WriteCheckpoint(std::vector<LogRecord>(100'000));
  int snapshots_taken = 0;
  pm.set_checkpoint_source([&snapshots_taken] {
    ++snapshots_taken;
    return std::vector<LogRecord>(100'000);
  });
  int appends = 0;
  while (snapshots_taken == 0 && appends < 400) {
    pm.Append(MakeRecord(appends++), /*sync=*/true);
    pm.MaybeCheckpoint();
  }
  EXPECT_EQ(snapshots_taken, 1);
  EXPECT_EQ(pm.stats().forced_checkpoints, 1u);
  // 183 records * 45 B = 8235 B is the first log to occupy 3 pages: the
  // checkpoint fires at the high-water mark, well before the region is full.
  EXPECT_EQ(appends, 183);
  EXPECT_EQ(pm.durable_log_records(), 0u);
}

TEST(PersistTest, TornCheckpointSegmentFallsBackToPreviousGeneration) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.checkpoint_segment_entries = 4;
  PersistenceManager pm(opts, &clock);
  pm.WriteCheckpoint(MakeEntries(100, 12));  // gen 1: 3 segments
  std::vector<Lbn> replayed = AppendLongLogRottingThree(&pm, 10'000);
  pm.WriteCheckpoint(MakeEntries(200, 12));  // gen 2; retains gen-1 log interval
  pm.Append(MakeRecord(600), /*sync=*/true);
  replayed.push_back(600);

  pm.CorruptCheckpointForTesting(/*segment=*/1);
  pm.Crash();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);

  // Only the torn slice fell back: segments 0 and 2 come from gen 2, the
  // middle one from gen 1.
  ASSERT_EQ(ckpt.size(), 12u);
  EXPECT_EQ(ckpt[0].key, 200u);
  EXPECT_EQ(ckpt[3].key, 203u);
  EXPECT_EQ(ckpt[4].key, 104u);
  EXPECT_EQ(ckpt[7].key, 107u);
  EXPECT_EQ(ckpt[8].key, 208u);
  EXPECT_EQ(pm.stats().segment_fallbacks, 1u);
  EXPECT_EQ(pm.stats().checkpoint_fallbacks, 1u);
  // The retained log interval, less its three rotted records, catches the
  // stale slice back up, and the post-checkpoint record replays after it.
  EXPECT_EQ(KeysInLsnOrder(tail), replayed);
  EXPECT_EQ(pm.stats().corrupt_records_skipped, 3u);
}

TEST(PersistTest, DoublyTornSegmentDegradesToEmptySliceAndFullReplay) {
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.checkpoint_segment_entries = 4;
  PersistenceManager pm(opts, &clock);
  pm.WriteCheckpoint(MakeEntries(100, 12));
  for (int i = 0; i < 4; ++i) {
    pm.Append(MakeRecord(500 + i), /*sync=*/true);
  }
  pm.WriteCheckpoint(MakeEntries(200, 12));
  pm.Append(MakeRecord(600), /*sync=*/true);

  // Both generations of segment 1 are rotted: that slice is irrecoverable
  // and degrades to empty, with every retained record replayed.
  pm.CorruptCheckpointForTesting(/*segment=*/1);
  pm.CorruptPrevCheckpointForTesting(/*segment=*/1);
  pm.Crash();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);

  ASSERT_EQ(ckpt.size(), 8u);
  EXPECT_EQ(ckpt[0].key, 200u);
  EXPECT_EQ(ckpt[4].key, 208u);  // segment 1's entries are gone entirely
  EXPECT_EQ(pm.stats().segment_fallbacks, 1u);
  ASSERT_EQ(tail.size(), 5u);
}

TEST(PersistTest, CorruptLogTailSkipsExactlyThoseRecords) {
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  for (int i = 0; i < 6; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/true);
  }
  pm.CorruptLogTailForTesting(2);  // the slice a torn flush would mangle
  pm.Crash();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.back().key, 3u);
  EXPECT_EQ(pm.stats().corrupt_records_skipped, 2u);
}

TEST(PersistTest, RecoveryIsIdempotent) {
  // A crash during recovery re-runs recovery from the top. Both passes read
  // only durable state, so they must produce bit-identical outputs — even
  // with rotted records in a long log exercising the CRC-skip path.
  SimClock clock;
  PersistenceManager::Options opts = SmallOptions();
  opts.checkpoint_segment_entries = 4;
  PersistenceManager pm(opts, &clock);
  pm.WriteCheckpoint(MakeEntries(100, 10));
  const std::vector<Lbn> replayed = AppendLongLogRottingThree(&pm, 300);
  pm.Crash();

  std::vector<LogRecord> c1;
  std::vector<LogRecord> c2;
  std::vector<LogRecord> t1;
  std::vector<LogRecord> t2;
  pm.Recover(&c1, &t1);
  const PersistStats s1 = pm.stats();
  pm.Recover(&c2, &t2);
  const PersistStats s2 = pm.stats();

  ASSERT_EQ(c1.size(), c2.size());
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].key, c2[i].key);
    EXPECT_EQ(c1[i].ppn, c2[i].ppn);
    EXPECT_EQ(c1[i].present_bits, c2[i].present_bits);
    EXPECT_EQ(c1[i].dirty_bits, c2[i].dirty_bits);
  }
  EXPECT_EQ(KeysInLsnOrder(t1), replayed);
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].lsn, t2[i].lsn);
    EXPECT_EQ(t1[i].key, t2[i].key);
    EXPECT_EQ(t1[i].ppn, t2[i].ppn);
  }
  // Per-recovery outputs are overwritten, not accumulated, and match exactly.
  EXPECT_EQ(s1.recovered_checkpoint_entries, s2.recovered_checkpoint_entries);
  EXPECT_EQ(s1.replayed_log_records, s2.replayed_log_records);
  EXPECT_EQ(s1.checkpoint_load_us, s2.checkpoint_load_us);
  EXPECT_EQ(s1.log_replay_us, s2.log_replay_us);
  EXPECT_EQ(s1.last_recovery_us, s2.last_recovery_us);
  EXPECT_EQ(s1.last_recovery_us, s1.checkpoint_load_us + s1.log_replay_us);
  // Cumulative corruption counters advance by the same amount each pass.
  EXPECT_EQ(s1.corrupt_records_skipped, 3u);
  EXPECT_EQ(s2.corrupt_records_skipped, 6u);
}

TEST(PersistTest, LsnsAreMonotone) {
  // Append numbers each record with the next LSN, starting at 1.
  SimClock clock;
  PersistenceManager pm(SmallOptions(), &clock);
  for (int i = 0; i < 100; ++i) {
    pm.Append(MakeRecord(i), /*sync=*/false);
  }
  pm.Flush();
  std::vector<LogRecord> ckpt;
  std::vector<LogRecord> tail;
  pm.Recover(&ckpt, &tail);
  ASSERT_EQ(tail.size(), 100u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].lsn, i + 1);
  }
}

TEST(ChunkedLogTest, KeepsAppendOrderAcrossChunks) {
  // Batches that straddle chunk boundaries land in order, and indexing and
  // the visit agree on every position.
  constexpr size_t kChunk = ChunkedLog::kChunkRecords;
  ChunkedLog log;
  Lbn next = 0;
  for (const size_t batch : {kChunk - 1, size_t{2}, kChunk, size_t{1}}) {
    log.Append(MakeEntries(next, batch));
    next += batch;
  }
  ASSERT_EQ(log.size(), 2 * kChunk + 2);
  Lbn expected = 0;
  log.ForEach([&](const LogRecord& r) { EXPECT_EQ(r.key, expected++); });
  EXPECT_EQ(expected, next);
  for (const size_t i : {size_t{0}, kChunk - 1, kChunk, 2 * kChunk + 1}) {
    EXPECT_EQ(log[i].key, i);
  }
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
}  // namespace flashtier
