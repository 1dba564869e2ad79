// Shadow model of acknowledged SSC operations: the block target of
// FlashCheck's crash-cycle engine (src/check/engine.h), which the crash
// explorer, the crash-storm soak and the aging harness drive.
//
// The shadow tracks, per LBN, the last *acknowledged* state a correct device
// must honor across a crash — the paper's G1-G3 contract:
//   * an acknowledged write-dirty must read back its exact data, dirty (G1);
//   * an acknowledged write-clean must read back its data or not-present,
//     never an older version (G2);
//   * an acknowledged evict must read not-present (G3);
//   * a cleaned block may revert to dirty, read its data, or be gone.
// The one operation in flight when power failed is special: both its before-
// and after-states are legal, anything else is a violation (in particular
// any stale token, which is how G2 breaks).
//
// This header also hosts the deterministic scripted workload the block
// target runs (so the soak and aging harnesses stress the same op mix the
// explorer proves crash-safe) and the acknowledged-state transition function
// itself, keeping exactly one source of truth for what each guarantee
// permits.

#ifndef FLASHTIER_CHECK_SHADOW_MODEL_H_
#define FLASHTIER_CHECK_SHADOW_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/ssc/ssc_device.h"

namespace flashtier {

// Deterministic mixed workload: write-dirty / write-clean / read / clean /
// evict / background GC, with half the traffic on a hot eighth of the
// address space so overwrites (the InvalidateOldVersion paths) are exercised
// as well as misses.
enum class WorkloadOpKind : uint8_t { kWriteDirty, kWriteClean, kRead, kClean, kEvict, kCollect };

struct WorkloadOp {
  WorkloadOpKind kind = WorkloadOpKind::kRead;
  Lbn lbn = 0;
  uint64_t token = 0;
};

// Builds `ops` scripted operations from `seed`. `next_token` is read for the
// first token and advanced past every token the script consumed, so
// successive scripts (soak cycles) never reuse a token.
std::vector<WorkloadOp> BuildWorkloadScript(uint64_t seed, uint32_t ops, uint64_t address_blocks,
                                            uint64_t* next_token);

// Shadow model: the last acknowledged state of one lbn.
enum class ShadowState : uint8_t {
  kNone,     // never written (or initial): must read not-present
  kDirty,    // acked write-dirty: must read exactly `token`, dirty (G1)
  kClean,    // acked write-clean: `token` or not-present (G2)
  kCleaned,  // dirty then acked clean: `token` or not-present; may re-dirty
  kEvicted,  // acked evict: not-present (G3)
};

struct ShadowEntry {
  ShadowState state = ShadowState::kNone;
  uint64_t token = 0;
};

std::string FmtShadowViolation(const char* guarantee, Lbn lbn, const char* what);

// Applies one *completed* (acknowledged) operation to the shadow, verifying
// read-backs on the way (a pre-crash stale read is a plain FTL bug, worth
// catching in the same harness). `token_written` is the op's payload for
// writes; `token_read` is what a kRead returned. `lost` is the set of lbns
// whose only copy an injected medium fault destroyed (those may
// legitimately be missing, but must never surface stale tokens).
void ApplyAcknowledged(WorkloadOpKind kind, Lbn lbn, uint64_t token_written, Status s,
                       uint64_t token_read, bool faults_on, std::unordered_set<Lbn>& lost,
                       ShadowEntry& entry, std::vector<std::string>* violations);

// The operation in flight at the crash, if any. `kWrite` covers write-dirty
// and write-clean (the sweep accepts old-or-new, and not-present unless the
// overwrite hit acknowledged dirty data, which must not tear); `kClean` only
// relaxes the still-dirty requirement; `kEvict` additionally accepts gone.
struct ShadowPendingOp {
  enum class Kind : uint8_t { kNone, kWrite, kClean, kEvict };
  Kind kind = Kind::kNone;
  Lbn lbn = 0;
  uint64_t token = 0;
};

// Reads every block of the address space back from the (recovered) device
// and appends one violation string per G1-G3 breach. `dev` routes an lbn to
// the shard that owns it; `lost` may grow *during* the sweep (a verification
// read can be the first to detect a latent fault), so it is consulted after
// each read.
void VerifyAgainstShadow(const std::vector<ShadowEntry>& shadow,
                         const std::function<SscDevice&(Lbn)>& dev,
                         const std::unordered_set<Lbn>& lost, const ShadowPendingOp& pending,
                         std::vector<std::string>* violations);

}  // namespace flashtier

#endif  // FLASHTIER_CHECK_SHADOW_MODEL_H_
