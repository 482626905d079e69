#include "transport/dedup_window.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>
#include <vector>

namespace gsalert::transport {

// One machine word per origin holds the window.
static_assert(DedupWindow::kWidth == 64);

namespace {

using journal::str_wire;

void put_seen(const journal::RecordSink& out, std::uint8_t type,
              std::string_view origin, std::uint64_t seq) {
  out.put(type, str_wire(origin) + 8, [&](wire::Writer& w) {
    w.str(origin);
    w.u64(seq);
  });
}

/// Slots in origin order: snapshots and covers() must be deterministic.
template <typename Slots>
std::vector<const typename Slots::value_type*> by_origin(const Slots& slots) {
  std::vector<const typename Slots::value_type*> out;
  out.reserve(slots.size());
  for (const auto& entry : slots) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

}  // namespace

bool DedupWindow::admit(Slot& slot, std::uint64_t seq) {
  if (seq <= slot.floor) return false;
  std::uint64_t offset = seq - slot.floor - 1;
  if (offset >= kWidth) {
    // Move the floor up so `seq` lands on the window's top bit; the
    // unseen seqs it passes are counted, not remembered.
    const std::uint64_t shift = offset - (kWidth - 1);
    const std::uint64_t kept = shift >= kWidth ? 0 : slot.bits >> shift;
    slot.passed += shift - static_cast<std::uint64_t>(
                               std::popcount(slot.bits) - std::popcount(kept));
    slot.bits = kept;
    slot.floor += shift;
    offset = kWidth - 1;
  }
  const std::uint64_t bit = std::uint64_t{1} << offset;
  if ((slot.bits & bit) != 0) return false;
  slot.bits |= bit;
  // Slide the floor over the run of seen seqs at the window's bottom.
  const int run = std::countr_one(slot.bits);
  slot.floor += static_cast<std::uint64_t>(run);
  slot.bits = run >= 64 ? 0 : slot.bits >> run;
  return true;
}

bool DedupWindow::holds(const Slot& slot, std::uint64_t seq) {
  if (seq <= slot.floor) return true;
  const std::uint64_t offset = seq - slot.floor - 1;
  return offset < kWidth && ((slot.bits >> offset) & 1) != 0;
}

bool DedupWindow::insert(std::string_view origin, std::uint64_t seq,
                         const journal::RecordSink& log) {
  auto it = slots_.find(origin);
  if (it == slots_.end()) {
    if (seq == 0) return false;  // at the floor of an empty slot
    it = slots_.emplace(std::string{origin}, Slot{}).first;
  }
  if (!admit(it->second, seq)) return false;
  put_seen(log, seen_type_, origin, seq);
  return true;
}

std::uint64_t DedupWindow::gaps() const {
  std::uint64_t total = 0;
  for (const auto& [origin, slot] : slots_) {
    // Bit 0 is always clear, so every clear bit below the newest seen
    // seq is a hole.
    total += slot.passed + static_cast<std::uint64_t>(
                               std::bit_width(slot.bits) -
                               std::popcount(slot.bits));
  }
  return total;
}

void DedupWindow::snapshot(const journal::RecordSink& out) const {
  for (const auto* entry : by_origin(slots_)) {
    const std::string& origin = entry->first;
    const Slot& slot = entry->second;
    out.put(floor_type_, str_wire(origin) + 8 + 8, [&](wire::Writer& w) {
      w.str(origin);
      w.u64(slot.floor);
      w.u64(slot.passed);
    });
    for (std::uint64_t bits = slot.bits; bits != 0; bits &= bits - 1) {
      put_seen(out, seen_type_, origin,
               slot.floor + 1 + static_cast<std::uint64_t>(
                                    std::countr_zero(bits)));
    }
  }
}

bool DedupWindow::replay(std::uint8_t type, wire::Reader& r) {
  if (type != seen_type_ && type != floor_type_) return false;
  std::string origin = r.str();
  const std::uint64_t value = r.u64();
  if (type == seen_type_) {
    if (!r.ok()) return false;
    insert(origin, value);
    return true;
  }
  const std::uint64_t passed = r.u64();
  // A floor cannot have passed more seqs than lie below it.
  if (!r.ok() || passed > value) return false;
  slots_[std::move(origin)] = Slot{.floor = value, .bits = 0, .passed = passed};
  return true;
}

bool DedupWindow::covers(const DedupWindow& other, Missing* missing) const {
  for (const auto* entry : by_origin(other.slots_)) {
    const Slot& theirs = entry->second;
    const auto it = slots_.find(entry->first);
    const Slot mine = it == slots_.end() ? Slot{} : it->second;
    std::optional<std::uint64_t> lost;
    if (theirs.floor > mine.floor) {
      lost = mine.floor + 1;  // bit 0 is clear: the first seq not held here
    } else {
      for (std::uint64_t bits = theirs.bits; bits != 0; bits &= bits - 1) {
        const std::uint64_t seq =
            theirs.floor + 1 +
            static_cast<std::uint64_t>(std::countr_zero(bits));
        if (!holds(mine, seq)) {
          lost = seq;
          break;
        }
      }
    }
    if (lost) {
      if (missing != nullptr) *missing = Missing{entry->first, *lost};
      return false;
    }
  }
  return true;
}

}  // namespace gsalert::transport
