// Second-hit admission: a block enters the cache only on its second miss
// within a bounded LRU window of recently-missed LBNs (the "ghost" cache —
// metadata-only, no data). Single-touch cold tails (most prominent in the
// usr/proj traces) never earn a flash write; anything re-referenced within
// the window is admitted on its second miss.

#ifndef FLASHTIER_POLICY_GHOST_LRU_H_
#define FLASHTIER_POLICY_GHOST_LRU_H_

#include "src/policy/admission_policy.h"

namespace flashtier {

class GhostLruPolicy final : public AdmissionPolicy {
 public:
  // `ghost_entries`: the window of recently missed LBNs.
  GhostLruPolicy(size_t ghost_entries, size_t reject_ghost_entries)
      : AdmissionPolicy(reject_ghost_entries), ghost_(ghost_entries) {}

  size_t MemoryUsage() const override {
    return ghost_.size() * kWindowEntryBytes + AdmissionPolicy::MemoryUsage();
  }

  const LruSet& ghost() const { return ghost_; }

 protected:
  bool Decide(Lbn lbn, bool resident) override {
    if (resident) {
      return true;  // overwrites of cached data keep their slot
    }
    if (ghost_.Touch(lbn)) {
      ++stats_.ghost_hits;
      ghost_.Erase(lbn);  // admitted: the history has served its purpose
      return true;
    }
    return false;
  }

 private:
  LruSet ghost_;
};

}  // namespace flashtier

#endif  // FLASHTIER_POLICY_GHOST_LRU_H_
