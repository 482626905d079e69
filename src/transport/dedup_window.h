// Duplicate suppression in bounded state: per origin, a cumulative floor
// and a fixed window of kWidth bits above it — the anti-replay window of
// RFC 4303 §3.4.3. Every seq at or below the floor
// counts as handled; the window records exactly which seqs above it have
// been seen. A seq arriving more than kWidth above the floor forces the
// floor up to make room: the unseen seqs it passes are counted as gaps,
// not remembered, and a late arrival of one of them is refused as if it
// were a duplicate. So state grows with origins, not with events, and
// decisions are exact for any arrival within kWidth of its origin's
// newest seq.
//
// The one dedup shape behind the GDS broadcast ledger, the alerting
// service's event and forward ledgers and the flooding baselines.
//
// Durability: a journaled owner appends one seen record (origin str,
// seq u64) per fresh arrival — the log carries the same records as a
// per-key ledger would — and snapshots one floor record (origin str,
// floor u64, passed u64) per origin plus a seen record for each seq
// still held above that floor. Replaying either rebuilds the same window.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "journal/journal.h"
#include "wire/codec.h"

namespace gsalert::transport {

class DedupWindow {
 public:
  /// Seqs tracked exactly above each origin's floor. At least 4x the
  /// largest reorder distance (newest seq minus a fresh arrival's seq)
  /// measured over the chaos sweep, the soak test and the flood world.
  static constexpr std::uint64_t kWidth = 64;

  /// A window whose owner does not journal it.
  DedupWindow() = default;
  /// A journaled window writing `seen_type` and `floor_type` records.
  DedupWindow(std::uint8_t seen_type, std::uint8_t floor_type)
      : seen_type_(seen_type), floor_type_(floor_type) {}

  /// Admit (origin, seq): true the first time it is seen, false for a
  /// duplicate or a seq at or below the origin's floor. A fresh arrival
  /// appends its seen record to `log`. No allocation once the origin is
  /// known.
  bool insert(std::string_view origin, std::uint64_t seq,
              const journal::RecordSink& log = nullptr);

  /// Unseen seqs at or below each origin's newest seen seq: the holes in
  /// the windows plus the seqs passed by forced floor moves.
  std::uint64_t gaps() const;
  std::size_t origin_count() const { return slots_.size(); }

  /// Full state as records, origins in name order: each origin's floor
  /// record, then a seen record per seq held above the floor.
  void snapshot(const journal::RecordSink& out) const;
  /// Apply one seen or floor record. False when `type` is not ours or
  /// the payload does not decode.
  bool replay(std::uint8_t type, wire::Reader& r);
  void clear() { slots_.clear(); }

  struct Missing {
    std::string origin;
    std::uint64_t seq = 0;
  };
  /// Whether every seq `other` has seen or passed is seen or passed here
  /// too. When not, `missing` (if given) names the first such seq, in
  /// (origin, seq) order.
  bool covers(const DedupWindow& other, Missing* missing = nullptr) const;

 private:
  struct Slot {
    std::uint64_t floor = 0;   // every seq <= floor is handled
    std::uint64_t bits = 0;    // bit i: seq floor + 1 + i seen; bit 0 clear
    std::uint64_t passed = 0;  // unseen seqs a forced floor move skipped
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using Slots = std::unordered_map<std::string, Slot, Hash, std::equal_to<>>;

  static bool admit(Slot& slot, std::uint64_t seq);
  static bool holds(const Slot& slot, std::uint64_t seq);

  Slots slots_;
  std::uint8_t seen_type_ = 0;
  std::uint8_t floor_type_ = 0;
};

}  // namespace gsalert::transport
