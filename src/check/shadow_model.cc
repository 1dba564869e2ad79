#include "src/check/shadow_model.h"

#include <algorithm>

#include "src/check/invariant_checker.h"
#include "src/util/bitmap.h"
#include "src/util/rng.h"

namespace flashtier {

std::string FmtShadowViolation(const char* guarantee, Lbn lbn, const char* what) {
  return Fmt("%s: lbn %llu %s", guarantee, (unsigned long long)lbn, what);
}

std::vector<WorkloadOp> BuildWorkloadScript(uint64_t seed, uint32_t ops, uint64_t address_blocks,
                                            uint64_t* next_token) {
  Rng rng(seed);
  std::vector<WorkloadOp> script;
  script.reserve(ops);
  const uint64_t hot = std::max<uint64_t>(1, address_blocks / 8);
  for (uint32_t i = 0; i < ops; ++i) {
    WorkloadOp op;
    op.lbn = rng.Chance(0.5) ? rng.Below(hot) : rng.Below(address_blocks);
    const uint64_t roll = rng.Below(100);
    if (roll < 40) {
      op.kind = WorkloadOpKind::kWriteDirty;
      op.token = (*next_token)++;
    } else if (roll < 60) {
      op.kind = WorkloadOpKind::kWriteClean;
      op.token = (*next_token)++;
    } else if (roll < 75) {
      op.kind = WorkloadOpKind::kRead;
    } else if (roll < 87) {
      op.kind = WorkloadOpKind::kClean;
    } else if (roll < 95) {
      op.kind = WorkloadOpKind::kEvict;
    } else {
      op.kind = WorkloadOpKind::kCollect;
    }
    script.push_back(op);
  }
  return script;
}

void ApplyAcknowledged(WorkloadOpKind kind, Lbn lbn, uint64_t token_written, Status s,
                       uint64_t token_read, bool faults_on, std::unordered_set<Lbn>& lost,
                       ShadowEntry& entry, std::vector<std::string>* violations) {
  switch (kind) {
    case WorkloadOpKind::kWriteDirty:
      if (IsOk(s)) {
        entry = {ShadowState::kDirty, token_written};
        lost.erase(lbn);  // fresh acknowledged data: G1 fully re-attaches
      } else if (s == Status::kIoError && faults_on) {
        // The medium rejected the write even after the SSC's retries.
        // Failure atomicity: the cache state (and the shadow) is unchanged.
      } else if (s == Status::kBackpressure) {
        // Refused before any state change; the shadow is unchanged.
      } else if (s != Status::kNoSpace) {
        violations->push_back(FmtShadowViolation("pre-crash", lbn, "write-dirty failed"));
      }
      break;
    case WorkloadOpKind::kWriteClean:
      if (IsOk(s)) {
        entry = {ShadowState::kClean, token_written};
        lost.erase(lbn);
      } else if (s == Status::kIoError && faults_on) {
        // As above: a failed program leaves the previous version intact.
      } else if (s == Status::kBackpressure) {
        // As above: refused before any state change.
      } else if (s != Status::kNoSpace) {
        violations->push_back(FmtShadowViolation("pre-crash", lbn, "write-clean failed"));
      }
      break;
    case WorkloadOpKind::kRead:
      switch (entry.state) {
        case ShadowState::kNone:
        case ShadowState::kEvicted:
          if (s != Status::kNotPresent) {
            violations->push_back(
                FmtShadowViolation("pre-crash G3", lbn, "read hit after evict/never-written"));
          }
          break;
        case ShadowState::kDirty:
          if (IsOk(s)) {
            if (token_read != entry.token) {
              violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "stale dirty read"));
            }
          } else if (lost.count(lbn) != 0) {
            // The only copy was destroyed by an injected fault (possibly
            // detected by this very read); the block now behaves as gone.
            entry = {ShadowState::kEvicted, 0};
          } else {
            violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "dirty data lost"));
          }
          break;
        case ShadowState::kClean:
        case ShadowState::kCleaned:
          if (IsOk(s) ? token_read != entry.token : s != Status::kNotPresent) {
            violations->push_back(FmtShadowViolation("pre-crash G2", lbn, "stale clean read"));
          }
          break;
      }
      break;
    case WorkloadOpKind::kClean:
      if (IsOk(s)) {
        if (entry.state == ShadowState::kDirty) {
          entry.state = ShadowState::kCleaned;
        } else if (entry.state == ShadowState::kNone || entry.state == ShadowState::kEvicted) {
          violations->push_back(FmtShadowViolation("pre-crash G3", lbn, "clean hit after evict"));
        }
      } else if (s == Status::kNotPresent) {
        if (entry.state == ShadowState::kDirty) {
          if (lost.count(lbn) != 0) {
            entry = {ShadowState::kEvicted, 0};
          } else {
            violations->push_back(FmtShadowViolation("pre-crash G1", lbn, "dirty block vanished"));
          }
        }
      }
      break;
    case WorkloadOpKind::kEvict:
      entry = {ShadowState::kEvicted, 0};
      lost.erase(lbn);  // an acknowledged evict makes the loss moot
      break;
    case WorkloadOpKind::kCollect:
      break;
  }
}

void VerifyAgainstShadow(const std::vector<ShadowEntry>& shadow,
                         const std::function<SscDevice&(Lbn)>& dev,
                         const std::unordered_set<Lbn>& lost, const ShadowPendingOp& pending,
                         std::vector<std::string>* violations) {
  for (Lbn lbn = 0; lbn < shadow.size(); ++lbn) {
    const ShadowEntry& entry = shadow[lbn];
    const bool lbn_in_flight = pending.kind != ShadowPendingOp::Kind::kNone && pending.lbn == lbn;

    // Allowed outcomes for the *acknowledged* state.
    bool allow_not_present = false;
    bool require_dirty = false;
    uint64_t allowed_tokens[2] = {0, 0};
    int allowed_count = 0;
    switch (entry.state) {
      case ShadowState::kNone:
      case ShadowState::kEvicted:
        allow_not_present = true;
        break;
      case ShadowState::kDirty:
        allowed_tokens[allowed_count++] = entry.token;
        require_dirty = true;  // G1: still dirty, or it could be silently lost
        break;
      case ShadowState::kClean:
      case ShadowState::kCleaned:
        allowed_tokens[allowed_count++] = entry.token;
        allow_not_present = true;  // silent eviction may have dropped it
        break;
    }
    // An injected fault destroyed this block's only copy mid-run (surfaced
    // through the data-loss hook): it may be gone or unreadable, but a stale
    // token is still forbidden.
    if (lost.count(lbn) != 0) {
      require_dirty = false;
      allow_not_present = true;
    }
    // The in-flight operation may or may not have taken effect. Note the
    // caller reports the *effective* kind: a write the admission policy
    // rejected was executing an eviction when the crash hit, so its token
    // must never surface — only "gone or unchanged" is acceptable.
    if (lbn_in_flight) {
      require_dirty = false;
      switch (pending.kind) {
        case ShadowPendingOp::Kind::kWrite:
          allowed_tokens[allowed_count++] = pending.token;
          // The new version's record may be lost — but an overwrite of
          // acknowledged dirty data must not tear: recovery surfaces the old
          // version or the new one, never neither (the atomic remove+insert
          // batch in SscDevice::WriteInternal).
          if (entry.state != ShadowState::kDirty) {
            allow_not_present = true;
          }
          break;
        case ShadowPendingOp::Kind::kEvict:
          allow_not_present = true;
          break;
        case ShadowPendingOp::Kind::kClean:
        case ShadowPendingOp::Kind::kNone:
          break;
      }
    }

    uint64_t token = 0;
    const Status s = dev(lbn).Read(lbn, &token);
    if (s == Status::kNotPresent) {
      if (!allow_not_present) {
        violations->push_back(
            FmtShadowViolation(entry.state == ShadowState::kDirty ? "G1" : "recovery", lbn,
                               "acknowledged data missing after recovery"));
      }
      continue;
    }
    if (!IsOk(s)) {
      // A latent media fault may only be *detected* by this read, in which
      // case the loss hook has just fired; check membership after the read.
      if (lost.count(lbn) == 0) {
        violations->push_back(FmtShadowViolation("recovery", lbn, "read error after recovery"));
      }
      continue;
    }
    const bool token_allowed = (allowed_count > 0 && token == allowed_tokens[0]) ||
                               (allowed_count > 1 && token == allowed_tokens[1]);
    if (!token_allowed) {
      // Any unexpected token is stale data: the exact failure G2 forbids
      // (and for dirty blocks, a torn G1).
      violations->push_back(FmtShadowViolation(
          entry.state == ShadowState::kDirty ? "G1" : "G2", lbn,
          allowed_count == 0 ? "read returned data for an evicted/never-written block"
                             : "read returned stale data after recovery"));
      continue;
    }
    if (require_dirty) {
      Bitmap dirty_map;
      dev(lbn).Exists(lbn, 1, &dirty_map);
      if (!dirty_map.Test(0)) {
        violations->push_back(FmtShadowViolation(
            "G1", lbn, "acknowledged dirty block recovered clean (could be silently lost)"));
      }
    }
  }
}

}  // namespace flashtier
