#include "src/disk/disk_model.h"

namespace flashtier {

void DiskModel::Charge(Lbn lbn, uint32_t blocks, bool is_write) {
  uint64_t us = static_cast<uint64_t>(blocks) * kTransferUsPer4k;
  const bool sequential = next_sequential_ != kInvalidLbn && lbn >= next_sequential_ &&
                          lbn - next_sequential_ < kSeqWindowBlocks;
  if (sequential) {
    us += kTrackSeekUs / 4;  // head settle only
  } else {
    us += kAvgSeekUs + kAvgRotationUs;
  }
  if (kSpindles > 1) {
    us = us / kSpindles + 1;
  }
  clock_->Advance(us);
  stats_.busy_us += us;
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  next_sequential_ = lbn + blocks;
}

void DiskModel::MaybeSlowIo(uint64_t op_ordinal) {
  if (InjectFault(faults_.slow_at, op_ordinal, faults_.slow_io_prob, fault_rng_)) {
    // The request eventually completes, 10-100x late: an overloaded or
    // error-recovering drive. Charged as busy time like any service time.
    clock_->Advance(DiskFaultPlan::kSlowIoExtraUs);
    stats_.busy_us += DiskFaultPlan::kSlowIoExtraUs;
    ++stats_.slow_ios;
  }
}

void DiskModel::RepairRange(Lbn start, uint32_t n) {
  if (latent_.empty()) {
    return;
  }
  // Sector remap on write: a successful write relocates the damaged sector,
  // so the LBN reads fine from then on. This is the physical mechanism the
  // cache-driven scrubber relies on.
  for (uint32_t i = 0; i < n; ++i) {
    if (latent_.erase(start + i) != 0) {
      ++stats_.sector_repairs;
    }
  }
}

Status DiskModel::Read(Lbn lbn, uint64_t* token) {
  Charge(lbn, 1, /*is_write=*/false);
  if (faults_.enabled) {
    if (!fault_injection_paused_) {
      const uint64_t ord = ++read_ordinal_;
      MaybeSlowIo(++op_ordinal_);
      if (!IsLatent(lbn) && InjectFault(faults_.latent_at, ord, faults_.latent_prob, fault_rng_)) {
        // The sector just went latently bad: this read fails, and so does
        // every later one until a write heals it.
        latent_.insert(lbn);
        ++stats_.latent_sectors;
      }
      if (!IsLatent(lbn) &&
          InjectFault(faults_.read_fail_at, ord, faults_.read_fail_prob, fault_rng_)) {
        ++stats_.read_faults;
        return Status::kIoError;
      }
    }
    if (IsLatent(lbn)) {
      // Sticky: latent sectors keep failing even while new draws are paused.
      ++stats_.latent_errors;
      return Status::kIoError;
    }
  }
  if (token != nullptr) {
    const auto it = contents_.find(lbn);
    *token = it != contents_.end() ? it->second : OriginalToken(lbn);
  }
  return Status::kOk;
}

Status DiskModel::Write(Lbn lbn, uint64_t token) {
  Charge(lbn, 1, /*is_write=*/true);
  if (faults_.enabled && !fault_injection_paused_) {
    const uint64_t ord = ++write_ordinal_;
    MaybeSlowIo(++op_ordinal_);
    if (InjectFault(faults_.write_fail_at, ord, faults_.write_fail_prob, fault_rng_)) {
      // Failure atomicity: the rejected write changes no content.
      ++stats_.write_faults;
      return Status::kIoError;
    }
  }
  RepairRange(lbn, 1);
  contents_[lbn] = token;
  return Status::kOk;
}

Status DiskModel::WriteRun(Lbn start, const std::vector<uint64_t>& tokens) {
  if (tokens.empty()) {
    return Status::kInvalidArgument;
  }
  Charge(start, static_cast<uint32_t>(tokens.size()), /*is_write=*/true);
  if (faults_.enabled && !fault_injection_paused_) {
    // One sequential access draws one write fault, like the single seek it
    // models; a hit rejects the whole run atomically.
    const uint64_t ord = ++write_ordinal_;
    MaybeSlowIo(++op_ordinal_);
    if (InjectFault(faults_.write_fail_at, ord, faults_.write_fail_prob, fault_rng_)) {
      ++stats_.write_faults;
      return Status::kIoError;
    }
  }
  RepairRange(start, static_cast<uint32_t>(tokens.size()));
  for (size_t i = 0; i < tokens.size(); ++i) {
    contents_[start + i] = tokens[i];
  }
  return Status::kOk;
}

template <typename Op>
Status DiskModel::Guarded(Op op) {
  RetrySession session(retry_, clock_);
  Status s = op();
  while (!IsOk(s) && session.BackoffBeforeRetry()) {
    ++stats_.retries;
    s = op();
  }
  if (!IsOk(s) && session.deadline_exceeded()) {
    ++stats_.timeouts;
    return Status::kTimeout;
  }
  return s;
}

Status DiskModel::GuardedRead(Lbn lbn, uint64_t* token) {
  return Guarded([&] { return Read(lbn, token); });
}

Status DiskModel::GuardedWrite(Lbn lbn, uint64_t token) {
  return Guarded([&] { return Write(lbn, token); });
}

Status DiskModel::GuardedWriteRun(Lbn start, const std::vector<uint64_t>& tokens) {
  return Guarded([&] { return WriteRun(start, tokens); });
}

}  // namespace flashtier
