#include "wire/codec.h"

#include <bit>
#include <cstring>

namespace gsalert::wire {

namespace {
template <typename T>
void append_le(std::vector<std::byte>& buffer, T v) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buffer.push_back(
        static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
T read_le(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

WriterStats g_writer_stats;
}  // namespace

WriterStats& writer_stats() { return g_writer_stats; }
void reset_writer_stats() { g_writer_stats = WriterStats{}; }

Writer::Writer() { g_writer_stats.writers += 1; }

void Writer::reserve(std::size_t n) {
  buffer_.reserve(buffer_.size() + n);
  reserved_ = true;
}

void Writer::note_growth(std::size_t extra) {
  if (buffer_.size() + extra <= buffer_.capacity()) return;
  g_writer_stats.grows += 1;
  if (reserved_) {
    g_writer_stats.reserve_shortfalls += 1;
    shortfall_ = true;
  }
}

void Writer::u8(std::uint8_t v) {
  note_growth(1);
  append_le(buffer_, v);
}
void Writer::u16(std::uint16_t v) {
  note_growth(2);
  append_le(buffer_, v);
}
void Writer::u32(std::uint32_t v) {
  note_growth(4);
  append_le(buffer_, v);
}
void Writer::u64(std::uint64_t v) {
  note_growth(8);
  append_le(buffer_, v);
}
void Writer::i64(std::int64_t v) {
  note_growth(8);
  append_le(buffer_, static_cast<std::uint64_t>(v));
}
void Writer::f64(double v) {
  note_growth(8);
  append_le(buffer_, std::bit_cast<std::uint64_t>(v));
}
void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::str(std::string_view v) {
  note_growth(4 + v.size());
  u32(static_cast<std::uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  buffer_.insert(buffer_.end(), p, p + v.size());
}

void Writer::bytes(std::span<const std::byte> v) {
  note_growth(4 + v.size());
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Writer::raw(std::span<const std::byte> v) {
  note_growth(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Writer::patch_u32(std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < sizeof(v); ++i) {
    buffer_[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

bool Reader::take(std::size_t n, const std::byte** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t Reader::u8() {
  const std::byte* p = nullptr;
  if (!take(1, &p)) return 0;
  return static_cast<std::uint8_t>(*p);
}
std::uint16_t Reader::u16() {
  const std::byte* p = nullptr;
  if (!take(2, &p)) return 0;
  return read_le<std::uint16_t>(p);
}
std::uint32_t Reader::u32() {
  const std::byte* p = nullptr;
  if (!take(4, &p)) return 0;
  return read_le<std::uint32_t>(p);
}
std::uint64_t Reader::u64() {
  const std::byte* p = nullptr;
  if (!take(8, &p)) return 0;
  return read_le<std::uint64_t>(p);
}
std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }
double Reader::f64() { return std::bit_cast<double>(u64()); }
bool Reader::boolean() { return u8() != 0; }

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::vector<std::byte> Reader::bytes() {
  const std::uint32_t n = u32();
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return {};
  }
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace gsalert::wire
