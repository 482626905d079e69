// The equality-preferred profile matching index (paper §5, after Fabret
// et al.): profiles' DNF conjunctions are split into hashable macro-level
// equality predicates and residual predicates. Each conjunction with
// equality predicates is filed under exactly one of them, its access
// key, chosen by a fixed specificity rank over the macro attributes
// (`ref` and `origin_ref` first, `type` last), so a replay or snapshot
// restore rebuilds the same clusters. Matching probes the clusters of the
// event's ≤6 macro keys; a conjunction found there is a candidate when
// its other equality keys are among the event's keys too, and only
// candidates pay for residual evaluation (wildcards, inequalities, ID
// lists, document queries).
//
// Matching cost scales with the number of *distinct* predicates, not the
// number of profiles, via three sharing layers:
//   1. Symbol interning: attribute/value strings map to dense uint32
//      symbols; the access table is one flat open-addressed table over
//      packed (attr_sym, value_sym) keys whose postings live in a
//      CSR-style contiguous arena. A probe is one integer hash — the
//      event's strings are hashed once per event, never per posting.
//   2. Predicate sharing: structurally identical residual predicates
//      dedupe into a global table (negatives alias their positive twin);
//      each distinct residual is evaluated at most once per event, in an
//      epoch-stamped memo cache.
//   3. Query-result caching (in EventContext): profiles sharing a filter
//      query cost one engine search / document scan per event.
//
// Each indexed profile owns a dense slot, reused after removal: matching
// yields slots, so a caller that keeps its per-profile state in a
// slot-indexed table reads a hit with one array index.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/interner.h"
#include "profiles/event_context.h"
#include "profiles/profile.h"

namespace gsalert::profiles {

struct MatchStats {
  std::uint64_t eq_probe_hits = 0;    // access-cluster postings walked
  std::uint64_t candidates = 0;       // conjunctions whose eq keys all hit
  std::uint64_t residual_evals = 0;   // Predicate::eval calls actually run
  // Residual checks answered from the per-event memo instead of an eval.
  std::uint64_t predicate_cache_hits = 0;
  std::uint64_t predicate_cache_misses = 0;  // == residual_evals, by layer
  // Engine searches / document scans reused via the event's query cache.
  std::uint64_t query_cache_hits = 0;
  // Live entries in the shared residual-predicate table (assigned, not
  // accumulated: per match it bounds residual_evals for that event).
  std::uint64_t distinct_residuals = 0;
  // String hashes spent inside the eq probe loop — 0 by construction;
  // the perf-smoke budget pins it there.
  std::uint64_t eq_probe_string_hashes = 0;
};

class ProfileIndex {
 public:
  using Slot = std::uint32_t;

  /// Index a parsed profile. The profile's id must be unique and non-zero.
  /// The index keeps only what matching needs, not the profile itself.
  Status add(const Profile& profile);
  Status remove(ProfileId id);
  bool contains(ProfileId id) const { return by_profile_.contains(id); }

  std::size_t profile_count() const { return by_profile_.size(); }
  std::size_t conjunction_count() const { return live_conjunctions_; }

  /// The dense slot of an indexed profile, held until the profile is
  /// removed and then reused; kNoProfileSlot when `id` is not indexed.
  Slot slot_of(ProfileId id) const;
  /// The profile in `slot` (0 when the slot is free).
  ProfileId profile_at(Slot slot) const { return profile_slots_[slot].id; }
  static constexpr Slot kNoProfileSlot = 0xFFFFFFFFu;

  /// Slots of the profiles matching the event, unique, in first-match
  /// order: the access clusters of the event's macro keys in
  /// kMacroAttributes order, each in insertion order, then the
  /// conjunctions without equality predicates (dedup is epoch-stamped per
  /// profile slot, so no sort pass). `stats` (optional) receives
  /// instrumentation for the ablation bench.
  std::vector<Slot> match_slots(const EventContext& ctx,
                                MatchStats* stats = nullptr) const;
  /// match_slots as profile ids, in the same order.
  std::vector<ProfileId> match(const EventContext& ctx,
                               MatchStats* stats = nullptr) const;

  // --- introspection (leak/churn tests, perf budget) ----------------------
  /// Live entries in the shared residual-predicate table.
  std::size_t shared_predicate_count() const { return live_preds_; }
  /// Strings ever interned (append-only; bounded by the distinct
  /// attribute/value strings seen, not by churn volume).
  std::size_t interned_symbol_count() const { return interner_.size(); }
  /// Live posting entries in the access arena.
  std::size_t arena_live_entries() const { return arena_live_; }
  /// Total arena capacity (live + slack + dead awaiting compaction).
  std::size_t arena_size() const { return arena_.size(); }
  /// Arena compactions triggered by the small-churn policy.
  std::size_t compaction_count() const { return compactions_; }

 private:
  using ConjIdx = std::uint32_t;
  using PredId = std::uint32_t;

  struct ConjEntry {
    // Packed (attr_sym, value_sym) key of the cluster this conjunction is
    // filed under; kNoKey when it has no hashable equality.
    std::uint64_t access_key = kNoKey;
    Slot owner_slot = 0;
    // Its other eq keys (repeats and contradictions included), checked
    // against the event's keys when the access key hits.
    std::vector<std::uint64_t> other_keys;
    // Shared residual refs: (pred_id << 1) | negated.
    std::vector<std::uint32_t> residual;
  };

  struct ProfileEntry {
    Slot slot = 0;
    std::vector<ConjIdx> conjunctions;
  };

  // A profile slot: its owner, and the epoch of the last match that
  // reported it (dedups a profile whose conjunctions match several
  // times, without a sort+unique pass over the result).
  struct ProfileSlot {
    ProfileId id = 0;
    std::uint64_t epoch = 0;
  };

  // One shared residual predicate (stored in positive form; negative
  // users flip the memoized answer).
  struct SharedPred {
    Predicate pred;
    std::uint32_t refs = 0;
  };

  // Open-addressed slot of the flat access table. `bucket` doubles as the
  // occupancy state (kEmptySlot / kTombstone sentinels).
  struct EqSlot {
    std::uint64_t key = 0;
    std::uint32_t bucket = kEmptySlot;
  };
  // Contiguous posting run inside the arena.
  struct Bucket {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  // No interned attribute has this symbol, so no real key equals it.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  static std::uint64_t pack_key(std::uint32_t attr_sym,
                                std::uint32_t value_sym) {
    return (static_cast<std::uint64_t>(attr_sym) << 32) | value_sym;
  }

  void unlink_conjunction(ConjIdx idx);

  // Shared predicate table.
  PredId intern_predicate(const Predicate& pred);
  void release_predicate(PredId id);

  // Flat access table + arena.
  std::size_t find_slot(std::uint64_t key) const;
  std::uint32_t bucket_for_insert(std::uint64_t key);
  void rehash_slots(std::size_t min_capacity);
  void posting_add(std::uint32_t bucket_id, ConjIdx idx);
  void posting_remove(std::uint64_t key, ConjIdx idx);
  void maybe_compact_arena();

  std::vector<ConjEntry> conjunctions_;
  std::vector<ConjIdx> free_list_;
  std::size_t live_conjunctions_ = 0;

  // Layer 1: interned symbols, flat probe table, CSR posting arena.
  StringInterner interner_;
  std::vector<EqSlot> slots_;  // power-of-two, linear probing
  std::size_t slot_live_ = 0;
  std::size_t slot_tombstones_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> bucket_free_;
  // Waste (slack + capacity orphaned by relocation or bucket frees) is
  // arena_.size() - arena_live_; the compaction policy bounds it.
  std::vector<ConjIdx> arena_;
  std::size_t arena_live_ = 0;  // live posting entries
  std::size_t compactions_ = 0;

  std::vector<ConjIdx> zero_eq_;  // conjunctions with no hashable equality

  // Layer 2: global residual predicate table + per-event memo cache.
  std::vector<SharedPred> preds_;
  std::vector<PredId> pred_free_;
  std::unordered_map<std::string, PredId> pred_by_key_;
  std::size_t live_preds_ = 0;
  mutable std::vector<std::uint64_t> pred_epoch_;
  mutable std::vector<std::uint8_t> pred_value_;

  std::unordered_map<ProfileId, ProfileEntry> by_profile_;
  mutable std::vector<ProfileSlot> profile_slots_;
  std::vector<Slot> slot_free_list_;

  // Symbols of the macro attribute names, resolved once per interner
  // size (the interner only grows, so an unchanged size is an unchanged
  // answer).
  mutable std::array<std::uint32_t, kMacroCount> macro_attr_syms_{};
  mutable std::size_t macro_attr_syms_size_ = kNoSlot;  // never resolved

  // Per-match epoch for the residual memo and the slot dedup.
  mutable std::uint64_t epoch_ = 0;
};

}  // namespace gsalert::profiles
