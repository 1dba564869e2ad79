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
  struct Options {
    size_t ghost_entries = 16384;  // window of recently missed LBNs
  };

  GhostLruPolicy(const Options& options, size_t reject_ghost_entries)
      : AdmissionPolicy(reject_ghost_entries), ghost_(options.ghost_entries) {}

  std::string_view name() const override { return "ghost-lru"; }

  size_t MemoryUsage() const override {
    return ghost_.size() * kWindowEntryBytes + AdmissionPolicy::MemoryUsage();
  }
  size_t MemoryBound() const override {
    return ghost_.capacity() * kWindowEntryBytes + AdmissionPolicy::MemoryBound();
  }

  const LruSet& ghost() const { return ghost_; }

 protected:
  bool Decide(Lbn lbn, AdmissionOp, const AdmissionContext& ctx) override {
    if (ctx.resident) {
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
