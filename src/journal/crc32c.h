// CRC32C (Castagnoli polynomial), portable slicing-by-8 table kernel (eight
// table lookups per 8-byte word, bytewise for the tail) — the checksum
// guarding every journal record. Streaming interface so framed fields can
// be folded in without materializing a contiguous buffer:
//
//   Crc32c crc;
//   crc.u32(len); crc.u64(lsn); crc.u8(type); crc.update(payload);
//   frame.u32(crc.value());
//
// CRC32C detects all single-bit errors and all burst errors up to 32
// bits — exactly the torn-write / bit-flip corruption the sim storage
// injects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gsalert::journal {

class Crc32c {
 public:
  void update(std::span<const std::byte> bytes);

  // Integer fields folded in little-endian, matching wire::Writer.
  void u8(std::uint8_t v) { update_byte(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::uint32_t value() const { return ~state_; }

 private:
  void update_byte(std::uint8_t b);

  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience.
std::uint32_t crc32c(std::span<const std::byte> bytes);

}  // namespace gsalert::journal
