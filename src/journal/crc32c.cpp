#include "journal/crc32c.h"

#include <array>

namespace gsalert::journal {

namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold one 8-byte word into the state at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load, independent of host byte order (compiles to one
// unaligned load on little-endian targets).
std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32c::update_byte(std::uint8_t b) {
  state_ = kTables[0][(state_ ^ b) & 0xFFu] ^ (state_ >> 8);
}

void Crc32c::update(std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t crc = state_;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  state_ = crc;
  for (; n > 0; ++p, --n) update_byte(static_cast<std::uint8_t>(*p));
}

std::uint32_t crc32c(std::span<const std::byte> bytes) {
  Crc32c crc;
  crc.update(bytes);
  return crc.value();
}

}  // namespace gsalert::journal
