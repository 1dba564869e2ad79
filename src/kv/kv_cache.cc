#include "src/kv/kv_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace flashtier {

namespace {

// The victim heap is rebuilt from the directory once stale entries grow it
// past this multiple of the sealed-slab count (plus slack for tiny shards).
constexpr uint64_t kVictimHeapGrowth = 2;
constexpr uint64_t kVictimHeapSlack = 16;

// Slab spans must divide the 64-page logical erase block (so SE-GC drops
// whole slabs) and keep byte offsets inside PackSlotMeta's 16-bit field.
uint32_t SanitizeSlabPages(uint32_t slab_pages) {
  uint32_t valid = 1;
  for (uint32_t candidate : {1u, 2u, 4u, 8u, 16u}) {
    if (candidate <= slab_pages) {
      valid = candidate;
    }
  }
  return valid;
}

KvCacheConfig ShardSlice(const KvCacheConfig& config, uint32_t shards, uint32_t index) {
  KvCacheConfig slice = config;
  slice.shards = 1;
  slice.slab_pages = SanitizeSlabPages(config.slab_pages);
  slice.ssc = ShardSscConfig(config.ssc, shards, index);
  return slice;
}

}  // namespace

// ---------------------------------------------------------------------------
// KvShard
// ---------------------------------------------------------------------------

KvShard::KvShard(const KvCacheConfig& config, uint32_t shard_index)
    : config_(ShardSlice(config, config.shards, shard_index)) {
  slab_capacity_bytes_ = config_.slab_pages * kKvPageBytes;
  ssc_ = std::make_unique<SscDevice>(config_.ssc, &clock_);
  policy_ = MakeAdmissionPolicy(config.admission, config.shards, shard_index, &clock_);
  ssc_->set_kv_snapshot_source([this](std::vector<LogRecord>* out) { SnapshotSlots(out); });
}

Status KvShard::AdmitWithDrain() {
  PersistenceManager* pm = ssc_->persist();
  for (uint32_t attempt = 0; attempt < SscDevice::kBackpressureDrainLimit; ++attempt) {
    if (pm->AdmitHostOp()) {
      return Status::kOk;
    }
    ++stats_.backpressure_stalls;
    ssc_->DrainLog();
  }
  return pm->AdmitHostOp() ? Status::kOk : Status::kBackpressure;
}

void KvShard::CreateOpenSlab() {
  open_seq_ = next_slab_seq_++;
  slabs_.emplace(open_seq_, KvSlab{});
}

Status KvShard::EnsureRoomFor(uint32_t charge) {
  // Loops because SealOpenSlab may trigger a compaction that leaves a new,
  // partially filled open slab behind; each pass either finds room or seals
  // again, and compaction strictly shrinks the dead-byte pool, so the loop
  // converges (the bound is a backstop, not a budget).
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (open_seq_ == kNoSlab) {
      CreateOpenSlab();
    }
    KvSlab& slab = slabs_.at(open_seq_);
    if (slab.used_bytes + charge <= slab_capacity_bytes_) {
      return Status::kOk;
    }
    const Status sealed = SealOpenSlab();
    if (!IsOk(sealed)) {
      return sealed;
    }
  }
  return Status::kNoSpace;
}

Status KvShard::SealOpenSlab() {
  if (open_seq_ == kNoSlab) {
    return Status::kOk;
  }
  const uint64_t seq = open_seq_;
  KvSlab& slab = slabs_.at(seq);
  if (slab.live_count == 0) {
    // Everything packed here was overwritten or deleted before the slab ever
    // reached flash; the delete records are already logged, so just forget it.
    slabs_.erase(seq);
    open_seq_ = kNoSlab;
    return Status::kOk;
  }
  const uint32_t pages = std::max<uint32_t>(1, (slab.used_bytes + kKvPageBytes - 1) / kKvPageBytes);
  const bool dirty_any = slab.dirty_live > 0;
  for (uint32_t p = 0; p < pages; ++p) {
    const Lbn lbn = SlabBaseLbn(seq) + p;
    const uint64_t token = SlabPageToken(seq, p);
    Status st = Status::kOk;
    uint32_t drains = 0;
    while (true) {
      st = dirty_any ? ssc_->WriteDirty(lbn, token) : ssc_->WriteClean(lbn, token);
      if (st == Status::kNoSpace) {
        // Evictions are bounded by the sealed-slab count, so this loop
        // terminates; it may take several to free a whole erase block.
        if (EvictCleanSlab()) {
          continue;
        }
        break;  // every remaining sealed slab still holds dirty objects
      }
      if (st == Status::kBackpressure && drains < SscDevice::kBackpressureDrainLimit) {
        ++drains;
        ++stats_.backpressure_stalls;
        ssc_->DrainLog();
        continue;
      }
      break;
    }
    if (!IsOk(st)) {
      // The slab cannot reach flash. Unwind the pages already written and
      // leave the slab open: its objects stay readable from device RAM and
      // the dirty ones are already durable in the log.
      for (uint32_t q = 0; q < p; ++q) {
        AssertOk(ssc_->Evict(SlabBaseLbn(seq) + q));
      }
      return st;
    }
  }
  slab.sealed = true;
  slab.dirty_written = dirty_any;
  slab.pages_spanned = pages;
  IndexSealed(seq, slab);
  ++stats_.slab_fills;
  stats_.slab_page_writes += pages;
  open_seq_ = kNoSlab;
  MaybeCompact();
  return Status::kOk;
}

bool KvShard::EvictCleanSlab() {
  uint64_t victim = kNoSlab;
  for (const auto& [seq, slab] : slabs_) {
    if (!slab.sealed || slab.dirty_live != 0 || seq == compacting_seq_) {
      continue;
    }
    victim = seq;  // lowest sequence number: oldest data first
    break;
  }
  if (victim == kNoSlab) {
    return false;
  }
  DropSlab(victim, &stats_.evicted_slots);
  ++stats_.slab_evictions;
  return true;
}

void KvShard::DropSlab(uint64_t seq, uint64_t* slot_counter) {
  KvSlab& slab = slabs_.at(seq);
  {
    PersistenceManager::AtomicBatchScope batch(ssc_->persist());
    for (uint32_t i = 0; i < slab.slots.size(); ++i) {
      KvSlot& slot = slab.slots[i];
      if (!slot.live) {
        continue;
      }
      if (slot.dirty) {
        // A healthy system never drops a dirty object this way; the counter
        // makes any such loss visible instead of silent.
        ++stats_.lost_objects;
      }
      key_map_.Erase(slot.key);
      ssc_->persist()->Append(SlotRecord(LogOpType::kKvDeleteSlot, seq, i, slot), /*sync=*/false);
      slot.live = false;
      ++*slot_counter;
    }
  }
  const uint32_t pages = slab.sealed ? slab.pages_spanned : 0;
  IndexErased(slab);
  slabs_.erase(seq);
  if (open_seq_ == seq) {
    open_seq_ = kNoSlab;
  }
  EvictSlabPages(seq, pages);
}

void KvShard::EvictSlabPages(uint64_t seq, uint32_t pages) {
  for (uint32_t p = 0; p < pages; ++p) {
    const Status st = ssc_->Evict(SlabBaseLbn(seq) + p);
    if (!IsOk(st) && st != Status::kNotPresent) {
      // The mapping is gone either way (silent eviction may have beaten us);
      // a medium refusal here cannot strand data, only stale flash pages.
      ++stats_.read_errors;
    }
  }
}

uint64_t KvShard::InvalidateKey(uint64_t key, bool sync) {
  uint64_t* packed = key_map_.Find(key);
  assert(packed != nullptr);
  const uint64_t seq = LocSeq(*packed);
  const uint32_t slot_idx = LocSlot(*packed);
  KvSlab& slab = slabs_.at(seq);
  KvSlot& slot = slab.slots[slot_idx];
  slot.live = false;
  slab.live_bytes -= KvSlotBytes(slot.size);
  IndexDeadGrew(seq, slab, KvSlotBytes(slot.size));
  --slab.live_count;
  if (slot.dirty) {
    --slab.dirty_live;
  }
  key_map_.Erase(key);
  ssc_->persist()->Append(SlotRecord(LogOpType::kKvDeleteSlot, seq, slot_idx, slot), sync);
  return seq;
}

void KvShard::HandleSlabQuiescence(uint64_t seq) {
  auto it = slabs_.find(seq);
  if (it == slabs_.end() || !it->second.sealed) {
    return;
  }
  KvSlab& slab = it->second;
  if (slab.live_count == 0) {
    const uint32_t pages = slab.pages_spanned;
    IndexErased(slab);
    slabs_.erase(it);
    EvictSlabPages(seq, pages);
    ++stats_.dead_slab_reclaims;
    return;
  }
  if (slab.dirty_written && slab.dirty_live == 0) {
    // The slab's last dirty object is gone; hand its pages back to silent
    // eviction (a crash may revert the clean marks, which is G1-safe — the
    // dirty slots' delete records are durable).
    for (uint32_t p = 0; p < slab.pages_spanned; ++p) {
      const Status st = ssc_->Clean(SlabBaseLbn(seq) + p);
      if (!IsOk(st) && st != Status::kNotPresent) {
        ++stats_.read_errors;
      }
    }
    slab.dirty_written = false;
    ++stats_.slab_cleans;
  }
}

Status KvShard::Set(uint64_t key, uint64_t token, uint32_t size, bool dirty) {
  if (size < kKvMinObjectBytes || size > kKvMaxObjectBytes ||
      KvSlotBytes(size) > slab_capacity_bytes_) {
    return Status::kInvalidArgument;
  }
  policy_->OnAccess(key);
  ++stats_.sets;
  const bool resident = key_map_.Contains(key);
  const bool admit =
      (dirty && resident) || policy_->ShouldAdmit(key, AdmissionOp::kWrite, resident);
  if (!admit) {
    if (resident) {
      // The backing store now holds newer data than the cached copy; evicting
      // the stale version keeps G2 for objects (miss, never stale).
      const uint64_t seq = InvalidateKey(key, /*sync=*/true);
      HandleSlabQuiescence(seq);
    }
    // OnReject only once the bypass eviction completed: the rejects-window
    // audit (key must be absent) may otherwise indict a crash mid-eviction.
    policy_->OnReject(key);
    ++stats_.rejected_sets;
    return Status::kOk;  // the write went around the cache
  }
  const Status gate = AdmitWithDrain();
  if (!IsOk(gate)) {
    return gate;
  }
  const uint32_t charge = KvSlotBytes(size);
  const Status room = EnsureRoomFor(charge);
  if (!IsOk(room)) {
    if (room == Status::kNoSpace) {
      ++stats_.sets_refused_full;
    }
    return room;
  }
  KvSlab& slab = slabs_.at(open_seq_);
  // Sealing/eviction above may have already dropped the old version; re-look
  // it up now that the open slab is settled.
  uint64_t old_seq = kNoSlab;
  {
    PersistenceManager::AtomicBatchScope batch(ssc_->persist());
    if (key_map_.Contains(key)) {
      old_seq = InvalidateKey(key, /*sync=*/false);
      ++stats_.overwrites;
    }
    const auto slot_idx = static_cast<uint32_t>(slab.slots.size());
    KvSlot slot;
    slot.key = key;
    slot.token = token;
    slot.size = size;
    slot.offset = slab.used_bytes;
    slot.dirty = dirty;
    slot.live = true;
    slab.slots.push_back(slot);
    slab.used_bytes += charge;
    slab.live_bytes += charge;
    ++slab.live_count;
    if (dirty) {
      ++slab.dirty_live;
    }
    key_map_.Insert(key, PackLoc(open_seq_, slot_idx));
    // Same commit rule as the SSC's WriteInternal: dirty data and mapping
    // replacements are durable before the ack; fresh clean inserts group-
    // commit (kFull logs those synchronously too).
    const bool sync = dirty || old_seq != kNoSlab ||
                      ssc_->persist()->mode() == ConsistencyMode::kFull;
    ssc_->persist()->Append(SlotRecord(LogOpType::kKvInsertSlot, open_seq_, slot_idx, slot), sync);
  }
  stats_.set_bytes += size;
  policy_->OnAdmit(key);
  if (old_seq != kNoSlab && old_seq != open_seq_) {
    HandleSlabQuiescence(old_seq);
  }
  if (!config_.packing) {
    // Naive baseline: one object per slab, sealed (programmed) immediately.
    const Status sealed = SealOpenSlab();
    if (!IsOk(sealed)) {
      return sealed;
    }
  }
  ssc_->persist()->MaybeCheckpoint();
  return Status::kOk;
}

LogRecord KvShard::SlotRecord(LogOpType type, uint64_t seq, uint32_t slot_idx,
                              const KvSlot& slot) {
  return {.type = type,
          .key = slot.key,
          .ppn = seq,
          .present_bits = PackSlotMeta(slot_idx, slot.size, slot.offset, slot.dirty),
          .dirty_bits = type == LogOpType::kKvInsertSlot ? slot.token : 0};
}

Status KvShard::Get(uint64_t key, uint64_t* token_out) {
  policy_->OnAccess(key);
  ++stats_.gets;
  const uint64_t* packed = key_map_.Find(key);
  if (packed == nullptr) {
    ++stats_.misses;
    return Status::kNotPresent;
  }
  const uint64_t seq = LocSeq(*packed);
  const uint32_t slot_idx = LocSlot(*packed);
  KvSlab& slab = slabs_.at(seq);
  KvSlot& slot = slab.slots[slot_idx];
  if (!slab.sealed) {
    ++stats_.hits;
    ++stats_.open_slab_hits;
    *token_out = slot.token;
    return Status::kOk;
  }
  // An object may straddle slab pages; the hit requires every page it
  // touches (a torn seal or a medium fault can take just one of them).
  const uint32_t first_page = slot.offset / kKvPageBytes;
  const uint32_t last_page = (slot.offset + KvSlotBytes(slot.size) - 1) / kKvPageBytes;
  Status st = Status::kOk;
  for (uint32_t p = first_page; p <= last_page && IsOk(st); ++p) {
    uint64_t page_token = 0;
    st = ssc_->Read(SlabBaseLbn(seq) + p, &page_token);
  }
  if (IsOk(st)) {
    ++stats_.hits;
    *token_out = slot.token;
    return Status::kOk;
  }
  if (st == Status::kNotPresent) {
    // Silent eviction took the slab's pages; retire every slot it still
    // mapped — the same legal G2 miss a block cache sees after SE-GC.
    ++stats_.lazy_slab_drops;
    DropSlab(seq, &stats_.dropped_slots);
    ++stats_.misses;
    return Status::kNotPresent;
  }
  // Medium error (injected fault): the page — and the dirty object on it —
  // is gone. Report the loss honestly and unmap the slot.
  ++stats_.read_errors;
  const uint64_t dead_seq = InvalidateKey(key, /*sync=*/true);
  HandleSlabQuiescence(dead_seq);
  return st;
}

Status KvShard::Delete(uint64_t key) {
  policy_->OnAccess(key);
  ++stats_.deletes;
  if (!key_map_.Contains(key)) {
    ++stats_.delete_misses;
    return Status::kNotPresent;
  }
  const Status gate = AdmitWithDrain();
  if (!IsOk(gate)) {
    return gate;
  }
  // Synchronous commit: an acknowledged delete stays deleted across a crash
  // (the object analog of G3).
  const uint64_t seq = InvalidateKey(key, /*sync=*/true);
  HandleSlabQuiescence(seq);
  return Status::kOk;
}

Status KvShard::Flush() {
  const Status sealed = SealOpenSlab();
  if (!IsOk(sealed)) {
    return sealed;
  }
  ssc_->persist()->Flush();
  return Status::kOk;
}

void KvShard::MaybeCompact() {
  if (in_compaction_ || !config_.packing) {
    return;
  }
  if (sealed_.slabs < kCompactMinSealedSlabs || sealed_.used_bytes == 0) {
    return;
  }
  if (static_cast<double>(sealed_.dead_bytes) <
      kCompactDeadRatio * static_cast<double>(sealed_.used_bytes)) {
    return;
  }
  const uint64_t victim = CompactionVictim();
  if (victim == kNoSlab) {
    return;
  }
  in_compaction_ = true;
  compacting_seq_ = victim;
  const Status st = CompactSlab(victim);
  if (!IsOk(st)) {
    ++stats_.compaction_aborts;
  }
  compacting_seq_ = kNoSlab;
  in_compaction_ = false;
}

Status KvShard::CompactSlab(uint64_t victim_seq) {
  KvSlab& victim = slabs_.at(victim_seq);
  uint64_t reclaimed = 0;
  for (const KvSlot& s : victim.slots) {
    if (!s.live) {
      ++reclaimed;
    }
  }
  for (uint32_t i = 0; i < victim.slots.size(); ++i) {
    if (!victim.slots[i].live) {
      continue;
    }
    const uint32_t charge = KvSlotBytes(victim.slots[i].size);
    const Status room = EnsureRoomFor(charge);
    if (!IsOk(room)) {
      // Moves so far are each durable as atomic pairs; the victim keeps its
      // remaining slots and stays sealed. Retry at the next trigger.
      return room;
    }
    KvSlab& open = slabs_.at(open_seq_);
    KvSlot moved = victim.slots[i];
    {
      // delete-old + insert-new must reach the log together: if the batch is
      // lost in a crash, the pre-move state (still on the victim's flash
      // pages until the post-loop flush) remains fully valid.
      PersistenceManager::AtomicBatchScope batch(ssc_->persist());
      ssc_->persist()->Append(SlotRecord(LogOpType::kKvDeleteSlot, victim_seq, i, moved),
                              /*sync=*/false);
      victim.slots[i].live = false;
      victim.live_bytes -= charge;
      IndexDeadGrew(victim_seq, victim, charge);
      --victim.live_count;
      if (moved.dirty) {
        --victim.dirty_live;
      }
      const auto slot_idx = static_cast<uint32_t>(open.slots.size());
      moved.offset = open.used_bytes;
      open.slots.push_back(moved);
      open.used_bytes += charge;
      open.live_bytes += charge;
      ++open.live_count;
      if (moved.dirty) {
        ++open.dirty_live;
      }
      key_map_.Insert(moved.key, PackLoc(open_seq_, slot_idx));
      ssc_->persist()->Append(SlotRecord(LogOpType::kKvInsertSlot, open_seq_, slot_idx, moved),
                              /*sync=*/false);
    }
    ++stats_.slots_moved;
  }
  // The moves must be durable before the medium forgets the victim; only
  // then is dropping its pages safe under any crash.
  ssc_->persist()->Flush();
  const uint32_t pages = victim.pages_spanned;
  IndexErased(victim);
  slabs_.erase(victim_seq);
  EvictSlabPages(victim_seq, pages);
  ++stats_.compactions;
  stats_.slots_reclaimed += reclaimed;
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Compaction index
// ---------------------------------------------------------------------------

void KvShard::IndexSealed(uint64_t seq, const KvSlab& slab) {
  ++sealed_.slabs;
  sealed_.used_bytes += slab.used_bytes;
  sealed_.dead_bytes += slab.dead_bytes();
  PushVictimCandidate(seq, slab);
}

void KvShard::IndexDeadGrew(uint64_t seq, const KvSlab& slab, uint32_t bytes) {
  if (!slab.sealed) {
    return;
  }
  sealed_.dead_bytes += bytes;
  PushVictimCandidate(seq, slab);
}

void KvShard::IndexErased(const KvSlab& slab) {
  if (!slab.sealed) {
    return;
  }
  --sealed_.slabs;
  sealed_.used_bytes -= slab.used_bytes;
  sealed_.dead_bytes -= slab.dead_bytes();
}

void KvShard::PushVictimCandidate(uint64_t seq, const KvSlab& slab) {
  if (slab.dead_bytes() == 0) {
    return;
  }
  victim_heap_.push_back({slab.dead_bytes(), seq});
  std::push_heap(victim_heap_.begin(), victim_heap_.end());
  if (victim_heap_.size() > kVictimHeapGrowth * sealed_.slabs + kVictimHeapSlack) {
    RebuildVictimHeap();
  }
}

void KvShard::RebuildVictimHeap() {
  victim_heap_.clear();
  for (const auto& [seq, slab] : slabs_) {
    if (slab.sealed && slab.dead_bytes() != 0) {
      victim_heap_.push_back({slab.dead_bytes(), seq});
    }
  }
  std::make_heap(victim_heap_.begin(), victim_heap_.end());
}

void KvShard::RebuildCompactionIndex() {
  sealed_ = {};
  for (const auto& [seq, slab] : slabs_) {
    if (slab.sealed) {
      ++sealed_.slabs;
      sealed_.used_bytes += slab.used_bytes;
      sealed_.dead_bytes += slab.dead_bytes();
    }
  }
  RebuildVictimHeap();
}

bool KvShard::IsCurrent(const VictimCandidate& c) const {
  const auto it = slabs_.find(c.seq);
  return it != slabs_.end() && it->second.sealed && it->second.dead_bytes() == c.dead_bytes;
}

uint64_t KvShard::CompactionVictim() {
  while (!victim_heap_.empty()) {
    if (IsCurrent(victim_heap_.front())) {
      return victim_heap_.front().seq;
    }
    std::pop_heap(victim_heap_.begin(), victim_heap_.end());
    victim_heap_.pop_back();
  }
  return kNoSlab;
}

uint64_t KvShard::PeekCompactionVictim() const {
  const VictimCandidate* best = nullptr;
  for (const VictimCandidate& c : victim_heap_) {
    if ((best == nullptr || *best < c) && IsCurrent(c)) {
      best = &c;
    }
  }
  return best == nullptr ? kNoSlab : best->seq;
}

// ---------------------------------------------------------------------------
// Checkpoint / crash / recovery
// ---------------------------------------------------------------------------

void KvShard::SnapshotSlots(std::vector<LogRecord>* out) const {
  out->reserve(out->size() + key_map_.size());
  for (const auto& [seq, slab] : slabs_) {
    for (uint32_t i = 0; i < slab.slots.size(); ++i) {
      if (slab.slots[i].live) {
        out->push_back(SlotRecord(LogOpType::kKvInsertSlot, seq, i, slab.slots[i]));
      }
    }
  }
}

void KvShard::SimulateCrash() {
  ssc_->SimulateCrash();
  // The slot directory and open slab live in device RAM; they are gone.
  slabs_.clear();
  key_map_.Clear();
  open_seq_ = kNoSlab;
  sealed_ = {};
  victim_heap_.clear();
}

void KvShard::ApplyRecoveredInsert(uint64_t key, uint64_t seq, uint64_t meta, uint64_t token) {
  if (key_map_.Contains(key)) {
    ApplyRecoveredDelete(key);  // a newer version supersedes the old slot
  }
  KvSlab& slab = slabs_[seq];
  const uint32_t slot_idx = MetaSlot(meta);
  if (slab.slots.size() <= slot_idx) {
    slab.slots.resize(slot_idx + 1);
  }
  KvSlot& slot = slab.slots[slot_idx];
  slot.key = key;
  slot.token = token;
  slot.size = MetaSize(meta);
  slot.offset = MetaOffset(meta);
  slot.dirty = MetaDirty(meta);
  slot.live = true;
  key_map_.Insert(key, PackLoc(seq, slot_idx));
  next_slab_seq_ = std::max(next_slab_seq_, seq + 1);
}

void KvShard::ApplyRecoveredDelete(uint64_t key) {
  const uint64_t* packed = key_map_.Find(key);
  if (packed == nullptr) {
    return;
  }
  slabs_.at(LocSeq(*packed)).slots[LocSlot(*packed)].live = false;
  key_map_.Erase(key);
}

Status KvShard::Recover() {
  ++stats_.recoveries;
  const Status device = ssc_->Recover();
  if (!IsOk(device)) {
    return device;
  }
  slabs_.clear();
  key_map_.Clear();
  open_seq_ = kNoSlab;
  next_slab_seq_ = 0;
  for (const LogRecord& r : ssc_->TakeRecoveredKv()) {
    if (r.type == LogOpType::kKvInsertSlot) {
      ApplyRecoveredInsert(r.key, r.ppn, r.present_bits, r.dirty_bits);
    } else {
      ApplyRecoveredDelete(r.key);
    }
  }
  // Reconcile the rebuilt directory against the medium. Every recovered slab
  // is treated as sealed: slots whose page survived stay served from flash;
  // clean slots whose page is gone become misses (G2); dirty slots whose
  // page is gone — an open slab at the crash, or a seal the log outran — are
  // re-staged into a fresh open slab so acknowledged data stays readable (G1).
  std::vector<KvSlot> restage;
  std::vector<uint64_t> dead_slabs;
  for (auto& [seq, slab] : slabs_) {
    uint32_t used = 0;
    uint32_t live_bytes = 0;
    uint32_t live_count = 0;
    uint32_t dirty_live = 0;
    for (const KvSlot& s : slab.slots) {
      if (!s.live) {
        continue;
      }
      used = std::max(used, s.offset + KvSlotBytes(s.size));
      live_bytes += KvSlotBytes(s.size);
      ++live_count;
      if (s.dirty) {
        ++dirty_live;
      }
    }
    slab.used_bytes = used;
    slab.live_bytes = live_bytes;
    slab.live_count = live_count;
    slab.dirty_live = dirty_live;
    slab.sealed = true;
    slab.pages_spanned = std::max<uint32_t>(1, (used + kKvPageBytes - 1) / kKvPageBytes);
    std::vector<SscDevice::BlockInfo> infos;
    ssc_->ExistsDetail(SlabBaseLbn(seq), slab.pages_spanned, &infos);
    for (KvSlot& s : slab.slots) {
      if (!s.live) {
        continue;
      }
      const uint32_t first = s.offset / kKvPageBytes;
      const uint32_t last = (s.offset + KvSlotBytes(s.size) - 1) / kKvPageBytes;
      bool all_present = true;
      for (uint32_t p = first; p <= last; ++p) {
        all_present = all_present && infos[p].present;
      }
      if (all_present) {
        ++stats_.recovered_slots;
        continue;
      }
      key_map_.Erase(s.key);
      s.live = false;
      slab.live_bytes -= KvSlotBytes(s.size);
      --slab.live_count;
      if (s.dirty) {
        --slab.dirty_live;
        restage.push_back(s);
      } else {
        ++stats_.dropped_clean_slots;
      }
    }
    slab.dirty_written = slab.dirty_live > 0;
    if (!slab.dirty_written) {
      // The slab's last dirty object died in the log tail (its delete record
      // is durable), but the medium still carries the dirty marks. Hand the
      // surviving pages back to silent eviction exactly like
      // HandleSlabQuiescence would have before the crash.
      bool medium_dirty = false;
      for (uint32_t p = 0; p < slab.pages_spanned; ++p) {
        medium_dirty = medium_dirty || (infos[p].present && infos[p].dirty);
      }
      if (medium_dirty) {
        for (uint32_t p = 0; p < slab.pages_spanned; ++p) {
          const Status cleaned = ssc_->Clean(SlabBaseLbn(seq) + p);
          if (!IsOk(cleaned) && cleaned != Status::kNotPresent) {
            ++stats_.read_errors;
          }
        }
        ++stats_.slab_cleans;
      }
    }
    if (slab.live_count == 0) {
      dead_slabs.push_back(seq);
    }
  }
  for (const uint64_t seq : dead_slabs) {
    const uint32_t pages = slabs_.at(seq).pages_spanned;
    slabs_.erase(seq);
    // Pages may still be cached (live slots all deleted in the log tail);
    // evict them so no orphan flash pages outlive their directory entry.
    EvictSlabPages(seq, pages);
  }
  // Re-staging may seal a slab and so run MaybeCompact: index first.
  RebuildCompactionIndex();
  for (const KvSlot& s : restage) {
    const Status room = EnsureRoomFor(KvSlotBytes(s.size));
    if (!IsOk(room)) {
      return room;
    }
    KvSlab& open = slabs_.at(open_seq_);
    const auto slot_idx = static_cast<uint32_t>(open.slots.size());
    KvSlot staged = s;
    staged.live = true;  // `s` was marked dead in its lost slab above
    staged.offset = open.used_bytes;
    open.slots.push_back(staged);
    open.used_bytes += KvSlotBytes(staged.size);
    open.live_bytes += KvSlotBytes(staged.size);
    ++open.live_count;
    ++open.dirty_live;
    key_map_.Insert(staged.key, PackLoc(open_seq_, slot_idx));
    ssc_->persist()->Append(SlotRecord(LogOpType::kKvInsertSlot, open_seq_, slot_idx, staged),
                            /*sync=*/true);
    ++stats_.restaged_dirty_slots;
  }
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// KvCache
// ---------------------------------------------------------------------------

KvCache::KvCache(const KvCacheConfig& config) : config_(config) {
  config_.shards = std::max<uint32_t>(1, config_.shards);
  config_.slab_pages = SanitizeSlabPages(config_.slab_pages);
  router_.shards = config_.shards;
  shards_.reserve(config_.shards);
  for (uint32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<KvShard>(config_, i));
  }
}

Status KvCache::Flush() {
  Status first = Status::kOk;
  for (auto& shard : shards_) {
    const Status st = shard->Flush();
    if (!IsOk(st) && IsOk(first)) {
      first = st;
    }
  }
  return first;
}

void KvCache::SimulateCrash() {
  for (auto& shard : shards_) {
    shard->SimulateCrash();
  }
}

Status KvCache::Recover() {
  Status first = Status::kOk;
  for (auto& shard : shards_) {
    const Status st = shard->Recover();
    if (!IsOk(st) && IsOk(first)) {
      first = st;
    }
  }
  return first;
}

KvStats KvCache::AggregateStats() const {
  return MergeShards<KvStats>(shards_, [](const KvShard& s) { return &s.stats(); });
}

PolicyStats KvCache::AggregatePolicyStats() const {
  return MergeShards<PolicyStats>(shards_, [](const KvShard& s) { return &s.policy().stats(); });
}

PersistStats KvCache::AggregatePersistStats() const {
  return MergeShards<PersistStats>(shards_,
                                   [](const KvShard& s) { return &s.ssc().persist_stats(); });
}

FlashStats KvCache::AggregateFlashStats() const {
  return MergeShards<FlashStats>(shards_, [](const KvShard& s) { return &s.ssc().flash_stats(); });
}

double KvCache::FlashWritesPerSet() const {
  const KvStats kv = AggregateStats();
  const FlashStats flash = AggregateFlashStats();
  const uint64_t admitted = kv.sets - kv.rejected_sets;
  return admitted == 0 ? 0.0
                       : static_cast<double>(flash.page_writes) / static_cast<double>(admitted);
}

}  // namespace flashtier
