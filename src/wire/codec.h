// Tagged little-endian binary codec. This replaces the paper's XML/SOAP
// messaging: the envelope semantics (asynchronous, anonymous, best-effort)
// are preserved; only the encoding differs (documented in DESIGN.md §4).
//
// Writer appends primitives to a byte buffer; Reader consumes them with
// bounds checks and a latched error flag, so decode functions can read a
// whole struct and test ok() once at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gsalert::wire {

/// Global allocation counters for the encode path (reset per measurement
/// window by benches and the perf-smoke test). Single-threaded sim, so
/// plain counters suffice.
struct WriterStats {
  std::uint64_t writers = 0;             // Writer instances created
  std::uint64_t grows = 0;               // buffer (re)allocations
  std::uint64_t reserve_shortfalls = 0;  // grows after an explicit reserve
};
WriterStats& writer_stats();
void reset_writer_stats();

class Writer {
 public:
  Writer();

  /// Pre-size the buffer for `n` more bytes so encoding performs at most
  /// one allocation. Growing past a reserve is counted (and asserted
  /// against in debug on the broadcast path) via writer_stats().
  void reserve(std::size_t n);
  /// True if the buffer reallocated after reserve() — the estimate lied.
  bool grew_after_reserve() const { return shortfall_; }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view v);
  void bytes(std::span<const std::byte> v);
  /// Append raw bytes without a length prefix (flattening pre-encoded
  /// regions that already carry their own framing).
  void raw(std::span<const std::byte> v);
  /// Overwrite the u32 written at offset `at` (a length emitted as a
  /// placeholder before the bytes it counts were encoded).
  void patch_u32(std::size_t at, std::uint32_t v);

  /// Write a length-prefixed sequence using a per-element callback.
  template <typename Range, typename Fn>
  void seq(const Range& range, Fn&& fn) {
    u32(static_cast<std::uint32_t>(range.size()));
    for (const auto& item : range) fn(*this, item);
  }

  const std::vector<std::byte>& buffer() const { return buffer_; }
  std::vector<std::byte> take() && { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  void note_growth(std::size_t extra);

  std::vector<std::byte> buffer_;
  bool reserved_ = false;
  bool shortfall_ = false;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  std::vector<std::byte> bytes();

  /// Read a length-prefixed sequence; fn(Reader&) produces each element.
  /// On malformed length the error latch trips and an empty vector returns.
  template <typename T, typename Fn>
  std::vector<T> seq(Fn&& fn) {
    const std::uint32_t n = u32();
    std::vector<T> out;
    // Guard against absurd lengths from corrupt input: each element needs
    // at least one byte of encoding.
    if (!ok() || n > remaining()) {
      fail();
      return out;
    }
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) out.push_back(fn(*this));
    return out;
  }

  bool ok() const { return ok_; }
  /// True when decoding succeeded AND all bytes were consumed.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  void fail() { ok_ = false; }

 private:
  bool take(std::size_t n, const std::byte** out);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gsalert::wire
