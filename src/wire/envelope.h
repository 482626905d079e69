// The wire envelope: every simulated packet is one encoded Envelope.
// src/dst are *names*, not addresses — the GDS forwards messages between
// servers "without the servers having to be aware of the identity of the
// recipient" (paper §6); an empty dst means broadcast/hop-local.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "sim/node.h"
#include "wire/codec.h"
#include "wire/frame.h"
#include "wire/message_types.h"

namespace gsalert::wire {

struct Envelope {
  MessageType type = MessageType::kInvalid;
  std::string src;            // logical name of the originating server
  std::string dst;            // logical destination name ("" = hop-local)
  std::uint64_t msg_id = 0;   // per-sender unique id (dedup / acks)
  std::uint16_t ttl = 64;     // hop budget; decremented by forwarders
  // Reliable-channel window base (transport/channel.h): the sender's
  // lowest unacked sequence, 0 on non-channel traffic. Re-stamped per
  // retransmit — a header field so the body frame stays immutable.
  std::uint64_t chan_base = 0;
  // Trace context (see obs/trace.h): which logical event this packet
  // belongs to and which span caused it. All zero when untraced.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint16_t hop = 0;      // network hops since the root span
  // Immutable, refcounted: forwarding an envelope aliases the body frame
  // and rewrites only the per-hop header fields above.
  Frame body;

  /// Exact byte count pack() writes into Packet::header.
  std::size_t header_wire_size() const;

  /// Encode into a Packet: the mutable per-hop fields land in
  /// Packet::header (exactly one allocation, see Writer::reserve); the
  /// body frame is shared, never copied.
  sim::Packet pack() const;

  /// Byte count of flatten(): header_wire_size() + body size.
  std::size_t flat_size() const { return header_wire_size() + body.size(); }

  /// One contiguous buffer, byte-identical to Packet::header + body —
  /// for embedding a whole envelope as a payload inside another message
  /// (store-and-forward relay, acks).
  std::vector<std::byte> flatten() const;
  /// Append the flatten() bytes to `w` (flat_size() of them) without an
  /// intermediate buffer: journal records embed envelopes this way.
  void flatten_into(Writer& w) const;
};

Result<Envelope> unpack(const sim::Packet& packet);
/// Decode a flatten()ed envelope (copies the body out of `flat`).
Result<Envelope> unpack(std::span<const std::byte> flat);

/// Helper: build an envelope around an already-encoded body.
Envelope make_envelope(MessageType type, std::string src, std::string dst,
                       std::uint64_t msg_id, Writer body);
/// Same, around an existing (possibly shared) body frame.
Envelope make_envelope(MessageType type, std::string src, std::string dst,
                       std::uint64_t msg_id, Frame body);

}  // namespace gsalert::wire
