// Tests for the admission-policy subsystem (DESIGN.md §5f): the LRU set under
// its windows and the write-back dirty table, each policy's decision rule, the
// regret counter, which policies read `resident`, the factory / CLI-name
// plumbing, the factory's per-shard splits, the rejected-block audit, and the
// managers' reject-path semantics (a rejected write must leave no stale cached
// copy behind).

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/write_back.h"
#include "src/cache/write_through.h"
#include "src/check/invariant_checker.h"
#include "src/disk/disk_model.h"
#include "src/policy/admission_policy.h"
#include "src/policy/frequency_sketch.h"
#include "src/policy/ghost_lru.h"
#include "src/policy/lru_set.h"
#include "src/policy/policy_factory.h"
#include "src/policy/write_rate_limiter.h"
#include "src/ssc/ssc_device.h"
#include "src/util/rng.h"

namespace flashtier {
namespace {

TEST(LruSetTest, TouchReportsPresenceAndEvictsLru) {
  LruSet set(3);
  EXPECT_FALSE(set.Touch(1));
  EXPECT_FALSE(set.Touch(2));
  EXPECT_TRUE(set.Touch(1));  // already present: bumped to most recent
  EXPECT_FALSE(set.Touch(3));
  EXPECT_EQ(set.size(), 3u);
  // The set is full; 2 is the least recent entry and must go.
  EXPECT_FALSE(set.Touch(4));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_FALSE(set.Contains(2));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Erase(1));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Erase(1));
}

TEST(LruSetTest, ForEachVisitsNewestFirst) {
  LruSet set(4);
  set.Touch(10);
  set.Touch(20);
  set.Touch(10);  // 10 becomes the most recent again
  std::vector<Lbn> order;
  set.ForEach([&order](Lbn lbn) { order.push_back(lbn); });
  EXPECT_EQ(order, (std::vector<Lbn>{10, 20}));
}

// The node-based LRU the flat LruSet replaced, kept as the reference: a
// std::list in recency order and an unordered_map into it.
class ReferenceLruSet {
 public:
  explicit ReferenceLruSet(size_t capacity) : capacity_(capacity) {}

  bool Touch(Lbn lbn) {
    auto it = index_.find(lbn);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(lbn);
    index_[lbn] = lru_.begin();
    return false;
  }

  bool Contains(Lbn lbn) const { return index_.count(lbn) != 0; }

  bool Erase(Lbn lbn) {
    auto it = index_.find(lbn);
    if (it == index_.end()) {
      return false;
    }
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  template <typename Pred>
  Lbn LruWhere(Pred pred) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (pred(*it)) {
        return *it;
      }
    }
    return kInvalidLbn;
  }

  size_t size() const { return lru_.size(); }

  // Most recent first.
  std::vector<Lbn> Entries() const { return {lru_.begin(), lru_.end()}; }

 private:
  size_t capacity_;
  std::list<Lbn> lru_;  // front = most recent
  std::unordered_map<Lbn, std::list<Lbn>::iterator> index_;
};

// Seeded random Touch/Erase/Contains/LruWhere calls on bounded windows, over
// about three times the capacity in keys, and on the write-back manager's
// unbounded table: every answer and size must match the reference, and so
// must the recency order, which fixes the eviction and cleaning victims.
TEST(LruSetTest, MatchesTheNodeBasedReference) {
  const auto any = [](Lbn) { return true; };
  const auto odd = [](Lbn lbn) { return lbn % 2 == 1; };
  const size_t unbounded = LruSet().capacity();
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{3}, size_t{64}, unbounded}) {
    LruSet set(capacity);
    ReferenceLruSet reference(capacity);
    Rng rng(capacity);
    const uint64_t keys = std::min<uint64_t>(3 * capacity + 1, 300);
    for (int call = 1; call <= 100'000; ++call) {
      const Lbn lbn = rng.Below(keys);
      switch (rng.Below(4)) {
        case 0:
          ASSERT_EQ(set.Touch(lbn), reference.Touch(lbn)) << "call " << call;
          break;
        case 1:
          ASSERT_EQ(set.Erase(lbn), reference.Erase(lbn)) << "call " << call;
          break;
        case 2:
          ASSERT_EQ(set.Contains(lbn), reference.Contains(lbn)) << "call " << call;
          break;
        default:
          ASSERT_EQ(set.LruWhere(any), reference.LruWhere(any)) << "call " << call;
          ASSERT_EQ(set.LruWhere(odd), reference.LruWhere(odd)) << "call " << call;
          break;
      }
      ASSERT_EQ(set.size(), reference.size()) << "call " << call;
      if (call % 1000 == 0) {
        std::vector<Lbn> entries;
        set.ForEach([&entries](Lbn l) { entries.push_back(l); });
        ASSERT_EQ(entries, reference.Entries()) << "capacity " << capacity << " call " << call;
      }
    }
  }
}

TEST(PolicyTest, AdmitAllAdmitsEverything) {
  AdmitAllPolicy policy(/*reject_ghost_entries=*/64);
  for (Lbn lbn = 0; lbn < 100; ++lbn) {
    EXPECT_TRUE(policy.ShouldAdmit(lbn, AdmissionOp::kWrite, /*resident=*/false));
    policy.OnAdmit(lbn);
  }
  EXPECT_EQ(policy.stats().admits, 100u);
  EXPECT_EQ(policy.stats().rejects, 0u);
}

// The regret window keeps its newest `capacity` rejects, each charged
// kWindowEntryBytes.
TEST(PolicyTest, RejectWindowStaysAtCapacity) {
  AdmitAllPolicy policy(/*reject_ghost_entries=*/8);
  for (Lbn lbn = 0; lbn < 1000; ++lbn) {
    policy.OnReject(lbn);
  }
  EXPECT_EQ(policy.recent_rejects().size(), 8u);
  EXPECT_EQ(policy.MemoryUsage(), 8 * kWindowEntryBytes);
}

TEST(PolicyTest, GhostLruAdmitsOnSecondMiss) {
  GhostLruPolicy policy(/*ghost_entries=*/128, /*reject_ghost_entries=*/64);
  // First miss: rejected, remembered in the ghost.
  EXPECT_FALSE(policy.ShouldAdmit(7, AdmissionOp::kReadFill, /*resident=*/false));
  policy.OnReject(7);
  EXPECT_TRUE(policy.ghost().Contains(7));
  // Second miss: admitted, and the ghost entry is consumed.
  EXPECT_TRUE(policy.ShouldAdmit(7, AdmissionOp::kReadFill, /*resident=*/false));
  policy.OnAdmit(7);
  EXPECT_FALSE(policy.ghost().Contains(7));
  EXPECT_EQ(policy.stats().ghost_hits, 1u);
}

TEST(PolicyTest, GhostLruRegretCountsRemissesOnRejectedBlocks) {
  GhostLruPolicy policy(/*ghost_entries=*/128, /*reject_ghost_entries=*/64);
  EXPECT_FALSE(policy.ShouldAdmit(5, AdmissionOp::kReadFill, /*resident=*/false));
  policy.OnReject(5);
  EXPECT_EQ(policy.stats().rejected_then_remissed, 0u);
  // The block comes back as a read miss: that is a hit the policy traded away.
  policy.ShouldAdmit(5, AdmissionOp::kReadFill, /*resident=*/false);
  EXPECT_EQ(policy.stats().rejected_then_remissed, 1u);
  EXPECT_EQ(policy.stats().flash_writes_saved, 1u);
}

// ghost-lru and freq-sketch admit a write the caller reports resident without
// touching their history; write-limit spends a token on it like on any other.
TEST(PolicyTest, ResidentWritesPerPolicy) {
  GhostLruPolicy ghost(/*ghost_entries=*/128, /*reject_ghost_entries=*/64);
  EXPECT_TRUE(ghost.ShouldAdmit(99, AdmissionOp::kWrite, /*resident=*/true));
  EXPECT_EQ(ghost.ghost().size(), 0u);
  EXPECT_EQ(ghost.stats().ghost_hits, 0u);

  FrequencySketchPolicy sketch(/*width=*/1024, /*admit_threshold=*/2, /*seed=*/1,
                               /*reject_ghost_entries=*/64);
  EXPECT_TRUE(sketch.ShouldAdmit(99, AdmissionOp::kWrite, /*resident=*/true));
  EXPECT_EQ(sketch.Estimate(99), 0u);
  EXPECT_EQ(sketch.stats().ghost_hits, 0u);

  SimClock clock;
  WriteRateLimiterPolicy limiter(/*rate_pages_per_sec=*/1000.0, /*burst_pages=*/1.0, &clock,
                                 /*reject_ghost_entries=*/64);
  EXPECT_TRUE(limiter.ShouldAdmit(99, AdmissionOp::kWrite, /*resident=*/true));
  EXPECT_FALSE(limiter.ShouldAdmit(99, AdmissionOp::kWrite, /*resident=*/true));
}

TEST(PolicyTest, FrequencySketchAdmitsAtThreshold) {
  FrequencySketchPolicy policy(/*width=*/1024, /*admit_threshold=*/2, /*seed=*/1,
                               /*reject_ghost_entries=*/64);
  EXPECT_EQ(policy.Estimate(42), 0u);
  EXPECT_FALSE(policy.ShouldAdmit(42, AdmissionOp::kReadFill, /*resident=*/false));
  policy.OnAccess(42);
  EXPECT_EQ(policy.Estimate(42), 1u);
  EXPECT_FALSE(policy.ShouldAdmit(42, AdmissionOp::kReadFill, /*resident=*/false));
  policy.OnAccess(42);
  EXPECT_EQ(policy.Estimate(42), 2u);
  EXPECT_TRUE(policy.ShouldAdmit(42, AdmissionOp::kReadFill, /*resident=*/false));
  EXPECT_EQ(policy.stats().ghost_hits, 1u);
}

TEST(PolicyTest, FrequencySketchHalvesCountersPeriodically) {
  const uint32_t width = 64;
  FrequencySketchPolicy policy(width, /*admit_threshold=*/2, /*seed=*/1,
                               /*reject_ghost_entries=*/64);
  for (int i = 0; i < 8; ++i) {
    policy.OnAccess(7);
  }
  EXPECT_GE(policy.Estimate(7), 8u);  // count-min may overestimate, never underestimate
  // Touch other blocks up to the access before the halving, which falls on
  // access kHalvingWidths x width (8 x 64).
  const uint64_t interval = FrequencySketchPolicy::kHalvingWidths * width;
  for (Lbn lbn = 100; lbn < 100 + interval - 9; ++lbn) {
    policy.OnAccess(lbn);
  }
  EXPECT_EQ(policy.halvings(), 0u);
  const uint32_t before = policy.Estimate(7);
  policy.OnAccess(99);
  EXPECT_EQ(policy.halvings(), 1u);
  EXPECT_LE(policy.Estimate(7), before / 2 + 1);
}

TEST(PolicyTest, FrequencySketchMemoryIsAConfigurationConstant) {
  // Width 1000 rounds up to 1024 counters per row.
  FrequencySketchPolicy policy(/*width=*/1000, /*admit_threshold=*/2, /*seed=*/1,
                               /*reject_ghost_entries=*/64);
  const size_t usage = policy.MemoryUsage();
  EXPECT_EQ(usage, FrequencySketchPolicy::kRows * 1024u);
  for (Lbn lbn = 0; lbn < 10'000; ++lbn) {
    policy.OnAccess(lbn);
  }
  // Accesses never grow the sketch; only rejects fill the regret window.
  EXPECT_EQ(policy.MemoryUsage(), usage);
}

TEST(PolicyTest, WriteRateLimiterSpendsBurstThenRefillsOnVirtualTime) {
  SimClock clock;
  const double burst_pages = 4.0;
  // 1,000 pages/s: one token per 1,000 us.
  WriteRateLimiterPolicy policy(/*rate_pages_per_sec=*/1000.0, burst_pages, &clock,
                                /*reject_ghost_entries=*/64);
  // The burst admits the first four insertions at time zero.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(policy.ShouldAdmit(i, AdmissionOp::kWrite, /*resident=*/false)) << i;
  }
  EXPECT_FALSE(policy.ShouldAdmit(99, AdmissionOp::kWrite, /*resident=*/false));
  // No wall-clock dependence: only advancing the virtual clock refills.
  clock.Advance(2'000);  // 2 ms -> 2 tokens
  EXPECT_TRUE(policy.ShouldAdmit(100, AdmissionOp::kWrite, /*resident=*/false));
  EXPECT_TRUE(policy.ShouldAdmit(101, AdmissionOp::kWrite, /*resident=*/false));
  EXPECT_FALSE(policy.ShouldAdmit(102, AdmissionOp::kWrite, /*resident=*/false));
  // Refill saturates at the burst depth.
  clock.Advance(1'000'000);
  EXPECT_NEAR(policy.tokens(), 0.0, 1e-9);  // not yet refilled (lazy)
  policy.ShouldAdmit(103, AdmissionOp::kWrite, /*resident=*/false);
  EXPECT_LE(policy.tokens(), burst_pages);
}

TEST(PolicyFactoryTest, NamesRoundTrip) {
  const AdmissionKind kinds[] = {AdmissionKind::kAdmitAll, AdmissionKind::kGhostLru,
                                 AdmissionKind::kFrequencySketch,
                                 AdmissionKind::kWriteRateLimiter};
  for (AdmissionKind kind : kinds) {
    AdmissionKind parsed{};
    ASSERT_TRUE(ParseAdmissionKind(AdmissionKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  AdmissionKind unused = AdmissionKind::kGhostLru;
  EXPECT_FALSE(ParseAdmissionKind("bogus", &unused));
  EXPECT_EQ(unused, AdmissionKind::kGhostLru);  // untouched on failure
  EXPECT_NE(std::string(KnownAdmissionNames()).find("ghost-lru"), std::string::npos);
}

TEST(PolicyFactoryTest, BuildsEveryKindWithMatchingName) {
  SimClock clock;
  PolicyConfig config;
  const auto build = [&](AdmissionKind kind) {
    config.kind = kind;
    return MakeAdmissionPolicy(config, 1, 0, &clock);
  };
  EXPECT_NE(dynamic_cast<AdmitAllPolicy*>(build(AdmissionKind::kAdmitAll).get()), nullptr);
  EXPECT_NE(dynamic_cast<GhostLruPolicy*>(build(AdmissionKind::kGhostLru).get()), nullptr);
  EXPECT_NE(dynamic_cast<FrequencySketchPolicy*>(build(AdmissionKind::kFrequencySketch).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<WriteRateLimiterPolicy*>(build(AdmissionKind::kWriteRateLimiter).get()),
            nullptr);
}

// Admits in a row until the policy first rejects.
uint32_t AdmitsInARow(AdmissionPolicy& policy) {
  uint32_t admits = 0;
  while (policy.ShouldAdmit(admits, AdmissionOp::kWrite, /*resident=*/false)) {
    ++admits;
  }
  return admits;
}

// Bytes of a sketch's counters: its usage less the regret window's.
size_t SketchBytes(const AdmissionPolicy& policy) {
  return policy.MemoryUsage() - policy.recent_rejects().size() * kWindowEntryBytes;
}

TEST(PolicyFactoryTest, SplitsTotalsAcrossShards) {
  SimClock clock;
  // Totals: 16,384 ghost entries and sketch counters, 2,000 pages/s, a
  // 256-page burst.
  PolicyConfig config;
  // The regret window: kRejectGhostEntries / shards, at least 64 entries.
  EXPECT_EQ(MakeAdmissionPolicy(config, 1, 0, &clock)->recent_rejects().capacity(),
            kRejectGhostEntries);
  EXPECT_EQ(MakeAdmissionPolicy(config, 8, 0, &clock)->recent_rejects().capacity(),
            kRejectGhostEntries / 8);
  EXPECT_EQ(MakeAdmissionPolicy(config, 128, 3, &clock)->recent_rejects().capacity(), 64u);

  config.kind = AdmissionKind::kGhostLru;
  const std::unique_ptr<AdmissionPolicy> ghost = MakeAdmissionPolicy(config, 8, 0, &clock);
  EXPECT_EQ(dynamic_cast<const GhostLruPolicy&>(*ghost).ghost().capacity(),
            config.ghost_entries / 8);

  config.kind = AdmissionKind::kFrequencySketch;
  const uint32_t rows = FrequencySketchPolicy::kRows;
  const std::unique_ptr<AdmissionPolicy> s0 = MakeAdmissionPolicy(config, 8, 0, &clock);
  const std::unique_ptr<AdmissionPolicy> s1 = MakeAdmissionPolicy(config, 8, 1, &clock);
  EXPECT_EQ(SketchBytes(*s0), rows * (config.sketch_width / 8));
  // Each shard hashes with its own seed: after the same accesses, the two
  // sketches' collisions, and so their estimates, differ.
  auto& sketch0 = dynamic_cast<FrequencySketchPolicy&>(*s0);
  auto& sketch1 = dynamic_cast<FrequencySketchPolicy&>(*s1);
  for (Lbn lbn = 0; lbn < 2048; ++lbn) {
    sketch0.OnAccess(lbn);
    sketch1.OnAccess(lbn);
  }
  uint32_t differing = 0;
  for (Lbn lbn = 2048; lbn < 4096; ++lbn) {
    differing += sketch0.Estimate(lbn) != sketch1.Estimate(lbn) ? 1 : 0;
  }
  EXPECT_GT(differing, 0u);

  config.kind = AdmissionKind::kWriteRateLimiter;
  const std::unique_ptr<AdmissionPolicy> limiter = MakeAdmissionPolicy(config, 8, 0, &clock);
  EXPECT_EQ(AdmitsInARow(*limiter), 256u / 8);  // the burst
  clock.Advance(100'000);  // 0.1 s at 2,000 / 8 pages/s
  EXPECT_EQ(AdmitsInARow(*limiter), 25u);

  // Floors: a tiny total still yields workable per-shard structures.
  PolicyConfig tiny;
  tiny.ghost_entries = 16;
  tiny.sketch_width = 128;
  tiny.write_rate_pages_per_sec = 2.0;
  tiny.kind = AdmissionKind::kGhostLru;
  const std::unique_ptr<AdmissionPolicy> tiny_ghost = MakeAdmissionPolicy(tiny, 8, 3, &clock);
  EXPECT_EQ(dynamic_cast<const GhostLruPolicy&>(*tiny_ghost).ghost().capacity(), 64u);
  tiny.kind = AdmissionKind::kFrequencySketch;
  EXPECT_EQ(SketchBytes(*MakeAdmissionPolicy(tiny, 8, 3, &clock)), rows * 1024u);
  // The write *rate* divides exactly (no floor): the per-shard budgets must
  // sum to the configured total, so 6 s at 2 / 8 pages/s earn 1.5 pages.
  tiny.kind = AdmissionKind::kWriteRateLimiter;
  SimClock tiny_clock;
  const std::unique_ptr<AdmissionPolicy> tiny_limiter =
      MakeAdmissionPolicy(tiny, 8, 3, &tiny_clock);
  EXPECT_EQ(AdmitsInARow(*tiny_limiter), 256u / 8);
  tiny_clock.Advance(6'000'000);
  EXPECT_EQ(AdmitsInARow(*tiny_limiter), 1u);
  // Only the burst depth is floored, so a shard can always admit at least
  // one insertion.
  tiny.write_burst_pages = 2.0;
  EXPECT_EQ(AdmitsInARow(*MakeAdmissionPolicy(tiny, 8, 3, &tiny_clock)), 1u);
}

// ---- Manager integration: the reject path must keep the G-guarantees ----

// A write-through manager with second-hit admission: a rejected write still
// completes against the disk, and any stale cached copy is evicted — a later
// read must see the new data, never the old version.
TEST(PolicyIntegrationTest, WriteThroughRejectEvictsStaleCopy) {
  SimClock clock;
  SscConfig ssc_config;
  ssc_config.capacity_pages = 1024;
  SscDevice ssc(ssc_config, &clock);
  DiskModel disk(&clock);
  GhostLruPolicy policy(/*ghost_entries=*/128, /*reject_ghost_entries=*/128);
  WriteThroughManager manager(&ssc, &disk, policy);

  // Earn admission for lbn 1 (two write misses), caching version 10.
  ASSERT_EQ(manager.Write(1, 5), Status::kOk);   // first miss: rejected
  ASSERT_EQ(manager.Write(1, 10), Status::kOk);  // second miss: admitted
  uint64_t token = 0;
  ASSERT_EQ(ssc.Read(1, &token), Status::kOk);
  ASSERT_EQ(token, 10u);

  // Now force rejections by filling the ghost history with other blocks so
  // lbn 1's next write is a first miss again: the write must evict the
  // cached version 10, not leave it to serve stale reads.
  for (Lbn lbn = 1000; lbn < 1200; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, lbn), Status::kOk);
  }
  ASSERT_FALSE(policy.ghost().Contains(1));
  ASSERT_EQ(manager.Write(1, 20), Status::kOk);  // rejected: bypass + evict
  EXPECT_EQ(ssc.Read(1, &token), Status::kNotPresent);
  token = 0;
  ASSERT_EQ(manager.Read(1, &token), Status::kOk);
  EXPECT_EQ(token, 20u);  // served from disk: the acknowledged version
  EXPECT_GT(policy.stats().rejects, 0u);

  const CheckReport report = InvariantChecker::CheckPolicy(policy, ssc);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Same property for the write-back manager: a rejected dirty write goes to
// disk (write-around), the dirty table entry and cached copy disappear, and
// reads return the new version from disk.
TEST(PolicyIntegrationTest, WriteBackRejectWritesAroundDurably) {
  SimClock clock;
  SscConfig ssc_config;
  ssc_config.capacity_pages = 1024;
  SscDevice ssc(ssc_config, &clock);
  DiskModel disk(&clock);
  GhostLruPolicy policy(/*ghost_entries=*/128, /*reject_ghost_entries=*/128);
  WriteBackManager manager(&ssc, &disk, policy);

  ASSERT_EQ(manager.Write(2, 7), Status::kOk);   // first miss: write-around
  EXPECT_EQ(ssc.Read(2, nullptr), Status::kNotPresent);
  uint64_t token = 0;
  ASSERT_EQ(disk.Read(2, &token), Status::kOk);
  EXPECT_EQ(token, 7u);  // the reject path persisted the data to disk

  ASSERT_EQ(manager.Write(2, 8), Status::kOk);  // second miss: admitted dirty
  ASSERT_EQ(ssc.Read(2, &token), Status::kOk);
  EXPECT_EQ(token, 8u);

  // ghost-lru re-admits a resident dirty block (no forced eviction of dirty
  // data just because the ghost window moved on).
  for (Lbn lbn = 2000; lbn < 2200; ++lbn) {
    ASSERT_EQ(manager.Write(lbn, lbn), Status::kOk);
  }
  ASSERT_EQ(manager.Write(2, 9), Status::kOk);
  ASSERT_EQ(ssc.Read(2, &token), Status::kOk);
  EXPECT_EQ(token, 9u);

  const CheckReport wb_report = InvariantChecker::Check(manager);
  EXPECT_TRUE(wb_report.ok()) << wb_report.ToString();
  const CheckReport policy_report = InvariantChecker::CheckPolicy(policy, ssc);
  EXPECT_TRUE(policy_report.ok()) << policy_report.ToString();
}

// The rejected-block-absent audit must flag a planted violation: put a
// rejected LBN into the SSC behind the policy's back.
TEST(PolicyIntegrationTest, CheckPolicyFlagsRejectedBlockPresent) {
  SimClock clock;
  SscConfig config;
  config.capacity_pages = 256;
  SscDevice ssc(config, &clock);
  AdmitAllPolicy policy(/*reject_ghost_entries=*/64);
  policy.OnReject(123);  // policy believes 123 was bypassed...
  ASSERT_EQ(ssc.WriteClean(123, 1), Status::kOk);  // ...but it is cached
  const CheckReport report = InvariantChecker::CheckPolicy(policy, ssc);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].invariant, "policy.rejected-present");
}

}  // namespace
}  // namespace flashtier
