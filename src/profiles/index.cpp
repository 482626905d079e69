#include "profiles/index.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <utility>

#include "obs/profiler.h"

namespace gsalert::profiles {

namespace {

// Macro slot whose value a slot usually repeats: origin_host and
// origin_ref equal host and ref unless the event was renamed.
constexpr std::array<std::size_t, kMacroCount> kUsuallySameAs = {0, 1, 2,
                                                                 3, 0, 2};

// Access-key rank per macro slot, most specific first: a ref names one
// collection, a collection name recurs on a few hosts, a host serves many
// collections, and an event type is shared by everything. A conjunction
// is filed under its best-ranked equality key. The rank is fixed, not
// drawn from cluster sizes, so replay and restore rebuild the same
// clusters whatever order profiles arrive in.
constexpr std::array<std::uint8_t, kMacroCount> kAccessRank = {
    /*host=*/3, /*collection=*/2, /*ref=*/0,
    /*type=*/5, /*origin_host=*/4, /*origin_ref=*/1};

std::uint8_t access_rank(std::string_view attribute) {
  const auto it = std::find(kMacroAttributes.begin(), kMacroAttributes.end(),
                            attribute);
  return kAccessRank[static_cast<std::size_t>(it - kMacroAttributes.begin())];
}

/// splitmix64 finalizer: packed symbol pairs are near-sequential, so they
/// need real mixing before masking into a power-of-two table.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

// --- shared residual predicate table -----------------------------------

ProfileIndex::PredId ProfileIndex::intern_predicate(const Predicate& pred) {
  std::string key = shared_predicate_key(pred);
  const auto it = pred_by_key_.find(key);
  if (it != pred_by_key_.end()) {
    preds_[it->second].refs += 1;
    return it->second;
  }
  Predicate positive = is_negative_op(pred.op) ? pred.negated() : pred;
  PredId id;
  if (!pred_free_.empty()) {
    id = pred_free_.back();
    pred_free_.pop_back();
    preds_[id] = SharedPred{std::move(positive), 1};
  } else {
    id = static_cast<PredId>(preds_.size());
    preds_.push_back(SharedPred{std::move(positive), 1});
    pred_epoch_.push_back(0);
    pred_value_.push_back(0);
  }
  pred_by_key_.emplace(std::move(key), id);
  ++live_preds_;
  return id;
}

void ProfileIndex::release_predicate(PredId id) {
  SharedPred& sp = preds_[id];
  if (--sp.refs > 0) return;
  // Stored predicates are positive-form, so their str() IS the shared key.
  pred_by_key_.erase(sp.pred.str());
  sp = SharedPred{};
  pred_free_.push_back(id);
  --live_preds_;
}

// --- flat eq table + posting arena --------------------------------------

std::size_t ProfileIndex::find_slot(std::uint64_t key) const {
  if (slots_.empty()) return kNoSlot;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix64(key) & mask;
  while (true) {
    const EqSlot& slot = slots_[i];
    if (slot.bucket == kEmptySlot) return kNoSlot;
    if (slot.bucket != kTombstone && slot.key == key) return i;
    i = (i + 1) & mask;
  }
}

void ProfileIndex::rehash_slots(std::size_t min_capacity) {
  std::size_t size = 16;
  // Size so the post-rehash load factor stays under ~50%.
  while (size < min_capacity * 2) size <<= 1;
  std::vector<EqSlot> fresh(size);
  const std::size_t mask = size - 1;
  for (const EqSlot& slot : slots_) {
    if (slot.bucket == kEmptySlot || slot.bucket == kTombstone) continue;
    std::size_t i = mix64(slot.key) & mask;
    while (fresh[i].bucket != kEmptySlot) i = (i + 1) & mask;
    fresh[i] = slot;
  }
  slots_ = std::move(fresh);
  slot_tombstones_ = 0;
}

std::uint32_t ProfileIndex::bucket_for_insert(std::uint64_t key) {
  // Tombstones count toward load: a churn-heavy table would otherwise
  // degrade every probe chain without ever triggering growth.
  if ((slot_live_ + slot_tombstones_ + 1) * 4 >= slots_.size() * 3) {
    rehash_slots(slot_live_ + 1);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix64(key) & mask;
  std::size_t insert_at = kNoSlot;
  while (true) {
    EqSlot& slot = slots_[i];
    if (slot.bucket == kEmptySlot) {
      if (insert_at == kNoSlot) insert_at = i;
      break;
    }
    if (slot.bucket == kTombstone) {
      if (insert_at == kNoSlot) insert_at = i;
    } else if (slot.key == key) {
      return slot.bucket;
    }
    i = (i + 1) & mask;
  }
  std::uint32_t bucket_id;
  if (!bucket_free_.empty()) {
    bucket_id = bucket_free_.back();
    bucket_free_.pop_back();
    buckets_[bucket_id] = Bucket{};
  } else {
    bucket_id = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  EqSlot& slot = slots_[insert_at];
  if (slot.bucket == kTombstone) --slot_tombstones_;
  slot.key = key;
  slot.bucket = bucket_id;
  ++slot_live_;
  return bucket_id;
}

void ProfileIndex::posting_add(std::uint32_t bucket_id, ConjIdx idx) {
  Bucket& b = buckets_[bucket_id];
  if (b.len == b.cap) {
    // Relocate to the arena tail with doubled capacity; the old run
    // becomes waste until the next compaction.
    const std::uint32_t cap = std::max<std::uint32_t>(2, b.cap * 2);
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    arena_.resize(arena_.size() + cap);
    std::copy_n(arena_.begin() + b.offset, b.len, arena_.begin() + offset);
    b.offset = offset;
    b.cap = cap;
  }
  arena_[b.offset + b.len] = idx;
  b.len += 1;
  ++arena_live_;
}

void ProfileIndex::posting_remove(std::uint64_t key, ConjIdx idx) {
  const std::size_t slot_idx = find_slot(key);
  if (slot_idx == kNoSlot) return;
  const std::uint32_t bucket_id = slots_[slot_idx].bucket;
  Bucket& b = buckets_[bucket_id];
  const auto begin = arena_.begin() + b.offset;
  const auto end = begin + b.len;
  const auto it = std::find(begin, end, idx);
  if (it == end) return;
  // Shift left instead of swap-with-last: postings stay in add order, so
  // match output order is insertion order regardless of churn history.
  std::copy(it + 1, end, it);
  b.len -= 1;
  --arena_live_;
  if (b.len == 0) {
    // Last posting gone: retire the bucket and tombstone the slot.
    buckets_[bucket_id] = Bucket{};
    bucket_free_.push_back(bucket_id);
    slots_[slot_idx].bucket = kTombstone;
    --slot_live_;
    ++slot_tombstones_;
  }
}

void ProfileIndex::maybe_compact_arena() {
  // Compact when under half the arena is live: keeps memory proportional
  // to live postings under remove/re-add churn, while small or mostly-full
  // arenas are left alone (the 64-entry floor makes tiny tables free).
  if (arena_.size() < 64 || arena_.size() <= arena_live_ * 2) return;
  std::vector<ConjIdx> fresh;
  fresh.reserve(arena_live_);
  for (EqSlot& slot : slots_) {
    if (slot.bucket == kEmptySlot || slot.bucket == kTombstone) continue;
    Bucket& b = buckets_[slot.bucket];
    const auto offset = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), arena_.begin() + b.offset,
                 arena_.begin() + b.offset + b.len);
    b.offset = offset;
    b.cap = b.len;  // tight; the next add relocates (amortized O(1))
  }
  arena_ = std::move(fresh);
  ++compactions_;
}

// --- public API ----------------------------------------------------------

Status ProfileIndex::add(const Profile& profile) {
  if (profile.id == 0) {
    return Status{ErrorCode::kInvalidArgument, "profile id must be non-zero"};
  }
  if (by_profile_.contains(profile.id)) {
    return Status{ErrorCode::kAlreadyExists,
                  "profile " + std::to_string(profile.id) + " already indexed"};
  }
  ProfileEntry entry;
  if (!slot_free_list_.empty()) {
    entry.slot = slot_free_list_.back();
    slot_free_list_.pop_back();
  } else {
    entry.slot = static_cast<Slot>(profile_slots_.size());
    profile_slots_.emplace_back();
  }
  profile_slots_[entry.slot].id = profile.id;
  for (const Conjunction& conj : profile.dnf) {
    ConjIdx idx;
    if (!free_list_.empty()) {
      idx = free_list_.back();
      free_list_.pop_back();
      conjunctions_[idx] = ConjEntry{};
    } else {
      idx = static_cast<ConjIdx>(conjunctions_.size());
      conjunctions_.emplace_back();
    }
    ConjEntry& ce = conjunctions_[idx];
    ce.owner_slot = entry.slot;
    // The first equality with the best rank is the access key; a key it
    // displaces joins the others.
    std::uint8_t best_rank = kMacroCount;
    for (const Predicate& pred : conj.preds) {
      if (pred.is_hashable_eq()) {
        const std::uint32_t attr_sym = interner_.intern(pred.attribute);
        const std::uint32_t value_sym = interner_.intern(pred.value);
        std::uint64_t key = pack_key(attr_sym, value_sym);
        if (const std::uint8_t rank = access_rank(pred.attribute);
            rank < best_rank) {
          best_rank = rank;
          std::swap(key, ce.access_key);
        }
        if (key != kNoKey) ce.other_keys.push_back(key);
      } else {
        const PredId pid = intern_predicate(pred);
        ce.residual.push_back((pid << 1) |
                              (is_negative_op(pred.op) ? 1u : 0u));
      }
    }
    if (ce.access_key == kNoKey) {
      zero_eq_.push_back(idx);
    } else {
      posting_add(bucket_for_insert(ce.access_key), idx);
    }
    entry.conjunctions.push_back(idx);
    ++live_conjunctions_;
  }
  by_profile_.emplace(profile.id, std::move(entry));
  return Status::ok();
}

void ProfileIndex::unlink_conjunction(ConjIdx idx) {
  ConjEntry& ce = conjunctions_[idx];
  if (ce.access_key == kNoKey) {
    std::erase(zero_eq_, idx);
  } else {
    posting_remove(ce.access_key, idx);
  }
  for (const std::uint32_t ref : ce.residual) release_predicate(ref >> 1);
  ce = ConjEntry{};
  free_list_.push_back(idx);
  --live_conjunctions_;
}

Status ProfileIndex::remove(ProfileId id) {
  const auto it = by_profile_.find(id);
  if (it == by_profile_.end()) {
    return Status{ErrorCode::kNotFound,
                  "profile " + std::to_string(id) + " not indexed"};
  }
  for (ConjIdx idx : it->second.conjunctions) unlink_conjunction(idx);
  profile_slots_[it->second.slot].id = 0;
  slot_free_list_.push_back(it->second.slot);
  by_profile_.erase(it);
  maybe_compact_arena();
  return Status::ok();
}

ProfileIndex::Slot ProfileIndex::slot_of(ProfileId id) const {
  const auto it = by_profile_.find(id);
  return it == by_profile_.end() ? kNoProfileSlot : it->second.slot;
}

std::vector<ProfileIndex::Slot> ProfileIndex::match_slots(
    const EventContext& ctx, MatchStats* stats) const {
  GSALERT_PROFILE("profiles.match");
  ++epoch_;
  std::vector<ConjIdx> candidates;

  // Phase 1 — access-cluster probes. The event's macro attributes are
  // translated to packed symbol keys first, each distinct value looked up
  // once (all string hashing lives in that step); each probe below is
  // one integer hash into the flat table. A pair whose attribute or value
  // the interner never saw is dropped: no profile can match it.
  if (macro_attr_syms_size_ != interner_.size()) {
    for (std::size_t i = 0; i < kMacroCount; ++i) {
      macro_attr_syms_[i] = interner_.find(kMacroAttributes[i]);
    }
    macro_attr_syms_size_ = interner_.size();
  }
  const auto& macros = ctx.macros();
  std::array<std::uint32_t, kMacroCount> value_syms{};
  std::array<std::uint64_t, kMacroCount> keys;
  std::size_t n_keys = 0;
  for (std::size_t i = 0; i < kMacroCount; ++i) {
    if (macro_attr_syms_[i] == StringInterner::kNoSymbol) continue;
    const std::size_t same = kUsuallySameAs[i];
    value_syms[i] = same < i && macro_attr_syms_[same] !=
                                    StringInterner::kNoSymbol &&
                            macros[same] == macros[i]
                        ? value_syms[same]
                        : interner_.find(macros[i]);
    if (value_syms[i] == StringInterner::kNoSymbol) continue;
    keys[n_keys++] = pack_key(macro_attr_syms_[i], value_syms[i]);
  }
  const auto event_has = [&](std::uint64_t key) {
    return std::find(keys.begin(), keys.begin() + n_keys, key) !=
           keys.begin() + n_keys;
  };
  const std::uint64_t hashes_before = interner_.hash_count();
  for (std::size_t k = 0; k < n_keys; ++k) {
    const std::size_t slot_idx = find_slot(keys[k]);
    if (slot_idx == kNoSlot) continue;
    const Bucket& b = buckets_[slots_[slot_idx].bucket];
    if (stats != nullptr) stats->eq_probe_hits += b.len;
    for (std::uint32_t i = 0; i < b.len; ++i) {
      const ConjIdx idx = arena_[b.offset + i];
      const std::vector<std::uint64_t>& others = conjunctions_[idx].other_keys;
      if (std::all_of(others.begin(), others.end(), event_has)) {
        candidates.push_back(idx);
      }
    }
  }
  // Conjunctions with no equality predicate are always candidates.
  candidates.insert(candidates.end(), zero_eq_.begin(), zero_eq_.end());

  // Phase 2 — residual evaluation on candidates only, memoized: each
  // distinct shared predicate is evaluated at most once per event, and
  // negative users read their positive twin's answer flipped.
  const std::uint64_t query_hits_before = ctx.query_cache_hits();
  std::vector<Slot> matched;
  for (ConjIdx idx : candidates) {
    const ConjEntry& ce = conjunctions_[idx];
    if (stats != nullptr) stats->candidates += 1;
    bool all = true;
    for (const std::uint32_t ref : ce.residual) {
      const PredId pid = ref >> 1;
      bool value;
      if (pred_epoch_[pid] == epoch_) {
        value = pred_value_[pid] != 0;
        if (stats != nullptr) stats->predicate_cache_hits += 1;
      } else {
        value = preds_[pid].pred.eval(ctx);
        pred_epoch_[pid] = epoch_;
        pred_value_[pid] = value ? 1 : 0;
        if (stats != nullptr) {
          stats->residual_evals += 1;
          stats->predicate_cache_misses += 1;
        }
      }
      if ((ref & 1u) != 0) value = !value;
      if (!value) {
        all = false;
        break;
      }
    }
    // Epoch-stamped per-profile dedup: a profile with several matching
    // conjunctions is reported once, in first-match order.
    if (all && profile_slots_[ce.owner_slot].epoch != epoch_) {
      profile_slots_[ce.owner_slot].epoch = epoch_;
      matched.push_back(ce.owner_slot);
    }
  }
  if (stats != nullptr) {
    stats->distinct_residuals = live_preds_;
    stats->query_cache_hits += ctx.query_cache_hits() - query_hits_before;
    stats->eq_probe_string_hashes += interner_.hash_count() - hashes_before;
  }
  return matched;
}

std::vector<ProfileId> ProfileIndex::match(const EventContext& ctx,
                                           MatchStats* stats) const {
  const std::vector<Slot> slots = match_slots(ctx, stats);
  std::vector<ProfileId> ids;
  ids.reserve(slots.size());
  for (const Slot slot : slots) ids.push_back(profile_at(slot));
  return ids;
}

}  // namespace gsalert::profiles
