#include "src/ssc/persist.h"

#include "src/util/crc32.h"

namespace flashtier {

PersistenceManager::PersistenceManager(const Options& options, SimClock* clock)
    : options_(options), clock_(clock) {}

uint32_t PersistenceManager::RecordCrc(const LogRecord& record, uint32_t seed) {
  const uint64_t fields[] = {record.lsn,
                             static_cast<uint64_t>(record.type),
                             record.key,
                             record.ppn,
                             record.present_bits,
                             record.dirty_bits};
  return Crc32c(seed, fields, sizeof(fields));
}

uint32_t PersistenceManager::SegmentCrc(const CheckpointSegment& seg) {
  const uint64_t header[] = {seg.generation, seg.base_lsn,
                             static_cast<uint64_t>(seg.records.size())};
  uint32_t crc = Crc32c(header, sizeof(header));
  for (const LogRecord& r : seg.records) {
    crc = RecordCrc(r, crc);
  }
  return crc;
}

void PersistenceManager::ChargeWrites(uint64_t pages) {
  stats_.log_page_writes += pages;
  ChargeLogUs(pages * FlashTimings::WriteCostUs());
}

void PersistenceManager::ChargeReads(uint64_t pages, uint64_t* recovery_us) {
  const uint64_t us = pages * FlashTimings::ReadCostUs();
  ChargeLogUs(us);
  *recovery_us += us;
}

void PersistenceManager::ChargeLogUs(uint64_t us) {
  if (pipeline_ != nullptr) {
    pipeline_->ExecuteLog(us);
    return;
  }
  // Stand-alone persistence (unit tests) has no device pipeline; the charge
  // stays serial on the chain.
  // flashlint: allow(clock-advance): no pipeline attached
  clock_->Advance(us);
}

void PersistenceManager::Append(LogRecord record, bool sync) {
  record.lsn = next_lsn_++;
  if (options_.mode == ConsistencyMode::kNone) {
    return;
  }
  // A crash here loses the record entirely: the caller has not been
  // acknowledged yet, so no consistency guarantee attaches to it.
  AtCommitPoint(CommitPoint::kAppend);
  record.crc = RecordCrc(record);
  buffer_.push_back(record);
  ++stats_.records_logged;
  if (sync) {
    ++stats_.sync_commits;
    Flush();
  } else if (atomic_batch_depth_ == 0 && buffer_.size() >= options_.group_commit_ops) {
    ++stats_.group_commits;
    Flush();
  }
}

void PersistenceManager::Flush() {
  if (buffer_.empty()) {
    return;
  }
  if (options_.log_region_pages > 0 && checkpoint_source_ &&
      PagesFor((durable_log_.size() + buffer_.size()) * kRecordBytes) >
          options_.log_region_pages) {
    // The flush would overflow the finite log region. Checkpoint instead:
    // the snapshot reflects device RAM, which is ahead of everything in the
    // buffer, so the buffered records become durable through the checkpoint
    // and the durable log never outgrows its region.
    ++stats_.log_full_events;
    ++stats_.forced_checkpoints;
    WriteCheckpoint(checkpoint_source_());
    return;
  }
  // A crash here loses the whole buffered batch; one an instant later (after
  // the atomic write) keeps all of it. There is no in-between (primitive [33]).
  AtCommitPoint(CommitPoint::kFlushStart);
  // The whole batch becomes durable atomically (atomic-write primitive [33]).
  // Small synchronous batches use a sub-page atomic write; large group
  // commits stream whole pages.
  const uint64_t bytes = buffer_.size() * kRecordBytes;
  if (bytes <= kPageBytes) {
    ++stats_.log_page_writes;
    ChargeLogUs(FlashTimings::kAtomicWriteUs);
  } else {
    ChargeWrites(PagesFor(bytes));
  }
  durable_log_.Append(buffer_);
  buffer_.clear();
  AtCommitPoint(CommitPoint::kFlushDone);
}

void PersistenceManager::ForceCheckpoint() {
  if (options_.mode == ConsistencyMode::kNone || !checkpoint_source_) {
    return;
  }
  ++stats_.forced_checkpoints;
  WriteCheckpoint(checkpoint_source_());
}

bool PersistenceManager::AdmitHostOp() {
  if (options_.mode == ConsistencyMode::kNone || options_.log_region_pages == 0) {
    return true;
  }
  const uint64_t projected =
      (durable_log_.size() + buffer_.size() + kHostOpMarginRecords) * kRecordBytes;
  if (PagesFor(projected) <= options_.log_region_pages) {
    return true;
  }
  ++stats_.log_full_events;
  return false;
}

void PersistenceManager::WriteCheckpoint(std::vector<LogRecord> records) {
  AtCommitPoint(CommitPoint::kCheckpointStart);
  const uint64_t generation = checkpoint_generation_ + 1;
  const uint64_t lsn = next_lsn_ - 1;
  const uint64_t per =
      options_.checkpoint_segment_entries > 0 ? options_.checkpoint_segment_entries : 1;
  const uint64_t total = records.size();
  // An empty map still writes one (empty) segment so the region always has a
  // validatable header.
  const uint64_t seg_count = total == 0 ? 1 : (total + per - 1) / per;
  // Stage the new generation over the older region, segment by segment. Each
  // staged segment physically overwrites the previous-previous generation's
  // slice; a crash mid-staging leaves the *current* region untouched and the
  // partial new-generation slices are rejected by the generation check.
  std::vector<CheckpointSegment>& staging = regions_[1 - current_region_];
  for (uint64_t i = 0; i < seg_count; ++i) {
    CheckpointSegment seg;
    seg.generation = generation;
    seg.base_lsn = lsn;
    const uint64_t lo = i * per;
    const uint64_t hi = std::min<uint64_t>(total, lo + per);
    seg.records.assign(records.begin() + static_cast<std::ptrdiff_t>(lo),
                       records.begin() + static_cast<std::ptrdiff_t>(hi));
    seg.crc = SegmentCrc(seg);
    const uint64_t pages = PagesFor(SegmentBytes(seg));
    ChargeWrites(pages);
    stats_.checkpoint_page_writes += pages;
    if (i < staging.size()) {
      staging[i] = std::move(seg);
    } else {
      staging.push_back(std::move(seg));
    }
    AtCommitPoint(CommitPoint::kCheckpointSegment);
  }
  // Completion flip: one atomic superblock write publishes the region header
  // (generation + segment count) and truncates the log. Everything before
  // this instant is invisible to recovery. The outgoing checkpoint stays on
  // flash until the checkpoint after next; retain the log interval it
  // anchors (including records the new checkpoint subsumes straight from the
  // buffer) as the per-segment fallback history.
  staging.resize(seg_count);
  prev_log_ = std::move(durable_log_);
  prev_log_.Append(buffer_);
  durable_log_.Clear();
  buffer_.clear();
  current_region_ = 1 - current_region_;
  checkpoint_generation_ = generation;
  checkpoint_lsn_ = lsn;
  checkpoint_entry_count_ = total;
  writes_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  AtCommitPoint(CommitPoint::kCheckpointDone);
}

void PersistenceManager::Crash() {
  stats_.records_lost_in_crash += buffer_.size();
  buffer_.clear();
}

void PersistenceManager::Recover(std::vector<LogRecord>* checkpoint,
                                 std::vector<LogRecord>* log_tail) {
  NotifyRecoveryPoint(RecoveryPoint::kStart);

  // Phase 1 — checkpoint load. Validate every segment of the current region;
  // a segment failing its CRC or generation check falls back to the
  // same-index segment of the previous generation (valid only if strictly
  // older — a *newer* generation there is a torn slice of an interrupted
  // checkpoint). A double failure degrades that slice to empty and replays
  // every retained record. Mixed-generation bases converge because the log
  // suffix from the oldest base is replayed in full: insert/remove records
  // carry absolute state and clear-mask records are idempotent.
  uint64_t load_us = 0;
  const std::vector<CheckpointSegment>& cur = regions_[current_region_];
  const std::vector<CheckpointSegment>& fallback = regions_[1 - current_region_];
  checkpoint->clear();
  uint64_t replay_from = checkpoint_lsn_;
  bool used_fallback = false;
  for (size_t i = 0; i < cur.size(); ++i) {
    ChargeReads(PagesFor(SegmentBytes(cur[i])), &load_us);
    if (SegmentCrc(cur[i]) == cur[i].crc && cur[i].generation == checkpoint_generation_) {
      checkpoint->insert(checkpoint->end(), cur[i].records.begin(), cur[i].records.end());
      continue;
    }
    ++stats_.segment_fallbacks;
    used_fallback = true;
    bool recovered = false;
    if (i < fallback.size()) {
      ChargeReads(PagesFor(SegmentBytes(fallback[i])), &load_us);
      if (SegmentCrc(fallback[i]) == fallback[i].crc &&
          fallback[i].generation < checkpoint_generation_) {
        checkpoint->insert(checkpoint->end(), fallback[i].records.begin(),
                           fallback[i].records.end());
        replay_from = std::min(replay_from, fallback[i].base_lsn);
        recovered = true;
      }
    }
    if (!recovered) {
      replay_from = 0;  // slice irrecoverable: replay all retained history
    }
  }
  if (used_fallback) {
    ++stats_.checkpoint_fallbacks;
  }
  stats_.checkpoint_load_us = load_us;
  NotifyRecoveryPoint(RecoveryPoint::kCheckpointLoaded);

  // Phase 2 — log scan: read the tail (and, when any segment fell back, the
  // previous log interval), dropping records the base already covers and
  // records whose CRC fails.
  uint64_t replay_us = 0;
  if (used_fallback) {
    ChargeReads(PagesFor(prev_log_.size() * kRecordBytes), &replay_us);
  }
  ChargeReads(PagesFor(durable_log_.size() * kRecordBytes), &replay_us);
  log_tail->clear();
  if (!skip_log_tail_replay_) {
    const auto consider = [&](const LogRecord& r) {
      if (r.lsn <= replay_from) {
        return;
      }
      if (RecordCrc(r) != r.crc) {
        // Bit-rot in the log region: the record cannot be trusted, so it is
        // dropped from replay rather than poisoning the rebuilt map.
        ++stats_.corrupt_records_skipped;
        return;
      }
      log_tail->push_back(r);
    };
    if (used_fallback) {
      prev_log_.ForEach(consider);
    }
    durable_log_.ForEach(consider);
  }
  stats_.log_replay_us = replay_us;
  NotifyRecoveryPoint(RecoveryPoint::kLogScanned);

  // Phase 3 — map rebuild — happens in the device layer, which reports its
  // time via RecordRebuildTime and fires kMapsRebuilt/kDone.
  stats_.rebuild_us = 0;
  stats_.last_recovery_us = load_us + replay_us;
  stats_.recovered_checkpoint_entries = checkpoint->size();
  stats_.replayed_log_records = log_tail->size();
}

void PersistenceManager::CorruptDurableRecordForTesting(size_t index) {
  if (index < durable_log_.size()) {
    durable_log_[index].ppn ^= 0xDEADBEEFull;  // payload rot; CRC left stale
  }
}

void PersistenceManager::CorruptLogTailForTesting(size_t count) {
  const size_t n = durable_log_.size();
  for (size_t i = n > count ? n - count : 0; i < n; ++i) {
    durable_log_[i].ppn ^= 0xDEADBEEFull;
  }
}

namespace {

// Payload rot with the stored CRC left stale, so only a checksum recomputed
// over the records can notice. An empty segment has no payload to rot; its
// stored CRC is flipped instead.
void RotSegment(std::vector<CheckpointSegment>* region, size_t segment) {
  if (segment >= region->size()) {
    return;
  }
  CheckpointSegment& seg = (*region)[segment];
  if (seg.records.empty()) {
    seg.crc ^= 0x5A5A5A5Au;
  } else {
    seg.records.front().ppn ^= 0xDEADBEEFull;
  }
}

}  // namespace

void PersistenceManager::CorruptCheckpointForTesting(size_t segment) {
  RotSegment(&regions_[current_region_], segment);
}

void PersistenceManager::CorruptPrevCheckpointForTesting(size_t segment) {
  RotSegment(&regions_[1 - current_region_], segment);
}

}  // namespace flashtier
