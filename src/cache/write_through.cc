#include "src/cache/write_through.h"

namespace flashtier {

Status WriteThroughManager::Write(Lbn lbn, uint64_t token) {
  ++stats_.writes;
  policy_.OnAccess(lbn, /*is_write=*/true);
  if (Status ds = disk_->GuardedWrite(lbn, token); !IsOk(ds)) {
    // Write-through's contract is "the disk has the data before the host is
    // acked"; with the disk refusing past the retry bound there is nothing
    // to absorb into — refuse honestly. The cached copy (if any) still
    // matches the disk's unchanged content, so it stays valid.
    ++stats_.disk_io_errors;
    return ds;
  }
  if (BypassCache()) {
    return EvictAround(lbn, /*pass_through=*/true);
  }
  if (!policy_.ShouldAdmit(lbn, AdmissionOp::kWriteClean, AdmissionContext{})) {
    // Demoted to disk-only: same obligation as any other non-cached write —
    // the old version, if any, must go (Section 3.1).
    ++stats_.evicts;
    if (Status es = ssc_->Evict(lbn); !IsOk(es)) {
      return es;
    }
    policy_.OnReject(lbn);
    return Status::kOk;
  }
  const Status cs = ssc_->WriteClean(lbn, token);
  if (IsOk(cs)) {
    NoteCacheWriteSuccess();
    policy_.OnAdmit(lbn);
    return cs;
  }
  if (cs == Status::kNoSpace) {
    // Could not cache the new version: the old one, if any, must go (the
    // manager "must either evict the old data from the SSC or write the new
    // data to it", Section 3.1).
    return EvictAround(lbn, /*pass_through=*/false);
  }
  if (cs == Status::kBackpressure) {
    // The SSC's log region is full. Write-through holds no dirty state, so
    // there is nothing worth stalling for: the disk already has the data
    // (the evict's own log append drains through the forced checkpoint).
    return EvictAround(lbn, /*pass_through=*/true);
  }
  if (cs == Status::kIoError) {
    // Flash failure that survived the SSC's retries; the host write already
    // succeeded against the disk.
    NoteCacheWriteFailure();
    return EvictAround(lbn, /*pass_through=*/true);
  }
  return cs;
}

Status WriteThroughManager::EvictAround(Lbn lbn, bool pass_through) {
  if (pass_through) {
    ++stats_.pass_through_writes;
  }
  ++stats_.evicts;
  policy_.OnEvict(lbn);
  return ssc_->Evict(lbn);
}

}  // namespace flashtier
