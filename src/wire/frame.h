// An immutable, refcounted byte buffer. The flood fan-out path encodes a
// message body once and shares the frame across every destination (and
// across chaos-injected duplicates): copying a Frame bumps a refcount
// instead of memcpy-ing the payload, and immutability is enforced by the
// type so an aliased receiver can never corrupt another's view.
//
// Header-only and dependency-free so sim::Packet can embed one without a
// library cycle (gsalert_wire links gsalert_sim, not the reverse).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace gsalert::wire {

class Frame {
 public:
  Frame() = default;

  /// Wrap an owned byte vector: one move, no copy. Implicit so the many
  /// `body = writer.take()` / `decode(frame)` sites keep reading naturally.
  Frame(std::vector<std::byte> bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<const std::vector<std::byte>>(
                        std::move(bytes))),
        len_(data_ ? data_->size() : 0) {}

  std::span<const std::byte> span() const {
    return data_ ? std::span<const std::byte>(data_->data() + off_, len_)
                 : std::span<const std::byte>{};
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::byte>() const { return span(); }

  const std::byte* data() const {
    return data_ ? data_->data() + off_ : nullptr;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// How many Frames alias this buffer (1 = sole owner, 0 = empty).
  long use_count() const { return data_.use_count(); }

  /// A sub-view sharing the same underlying buffer (clamped to bounds).
  Frame slice(std::size_t off, std::size_t n) const {
    Frame out;
    if (off >= len_) return out;
    out.data_ = data_;
    out.off_ = off_ + off;
    out.len_ = std::min(n, len_ - off);
    return out;
  }

  friend bool operator==(const Frame& a, const Frame& b) {
    const auto sa = a.span(), sb = b.span();
    return sa.size() == sb.size() &&
           std::equal(sa.begin(), sa.end(), sb.begin());
  }

 private:
  std::shared_ptr<const std::vector<std::byte>> data_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace gsalert::wire
