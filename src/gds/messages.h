// Payload structs for the GDS protocol (paper §4.1, §6). Envelope types
// are in wire/message_types.h; these are the bodies.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "wire/codec.h"

namespace gsalert::gds {

/// GS server -> its GDS node: register under a network-internal name.
struct RegisterBody {
  std::string server_name;

  void encode(wire::Writer& w) const;
  static Result<RegisterBody> decode(std::span<const std::byte> body);
};

/// Broadcast payload flooded through the tree. The (origin_server, seq)
/// pair is the duplicate-suppression key; payload_type tags the inner
/// message so receivers can dispatch without the GDS understanding it
/// (the GDS is an anonymous forwarding network).
struct BroadcastBody {
  std::string origin_server;
  std::uint64_t seq = 0;
  std::uint16_t payload_type = 0;
  std::vector<std::byte> payload;

  void encode(wire::Writer& w) const;
  /// Exact encoded size (for Writer::reserve).
  std::size_t wire_size() const;
  static Result<BroadcastBody> decode(std::span<const std::byte> body);
  /// The body's one encoder, over a payload held elsewhere: a broadcast
  /// writes its payload once, straight from the sender's buffer.
  static void encode(wire::Writer& w, std::string_view origin_server,
                     std::uint64_t seq, std::uint16_t payload_type,
                     std::span<const std::byte> payload);
  static std::size_t wire_size(std::string_view origin_server,
                               std::size_t payload_size);
};

/// Zero-copy view of an encoded BroadcastBody: the routing fields are
/// decoded, the payload stays a span into the input buffer (valid only
/// while that buffer lives). The payload is the final field, so a hop can
/// read the dedup key and hand the payload onward without copying it.
struct BroadcastView {
  std::string origin_server;
  std::uint64_t seq = 0;
  std::uint16_t payload_type = 0;
  std::span<const std::byte> payload;

  static Result<BroadcastView> peek(std::span<const std::byte> body);
};

/// Point-to-point message routed through the tree by name.
struct RelayBody {
  std::string origin_server;
  std::string dst_server;
  std::uint16_t payload_type = 0;
  std::vector<std::byte> payload;

  void encode(wire::Writer& w) const;
  static Result<RelayBody> decode(std::span<const std::byte> body);
};

/// Multicast to an explicit set of server names. Forwarders split the
/// target list per next hop, so each tree edge carries the payload once.
struct MulticastBody {
  std::string origin_server;
  std::uint64_t seq = 0;
  std::vector<std::string> targets;
  std::uint16_t payload_type = 0;
  std::vector<std::byte> payload;

  void encode(wire::Writer& w) const;
  /// Encode without materializing a MulticastBody: forwarders split the
  /// target list per next hop and re-encode straight from the decoded
  /// fields, copying the payload once into each edge's buffer and never
  /// into an intermediate struct.
  static void encode_fields(wire::Writer& w, const std::string& origin,
                            std::uint64_t seq,
                            const std::vector<std::string>& targets,
                            std::uint16_t payload_type,
                            std::span<const std::byte> payload);
  static Result<MulticastBody> decode(std::span<const std::byte> body);
};

/// Name lookup (the DNS-like naming service).
struct ResolveBody {
  std::uint64_t query_id = 0;
  std::string server_name;

  void encode(wire::Writer& w) const;
  static Result<ResolveBody> decode(std::span<const std::byte> body);
};

struct ResolveReplyBody {
  std::uint64_t query_id = 0;
  std::string server_name;
  bool found = false;
  std::string owner_gds;  // name of the GDS node holding the registration

  void encode(wire::Writer& w) const;
  static Result<ResolveReplyBody> decode(std::span<const std::byte> body);
};

/// Child GDS node -> parent: announce itself and advertise subtree names.
/// Sent with full=true on (re)connect carrying the whole subtree name set;
/// incremental updates use full=false with adds/removes deltas.
struct ChildHelloBody {
  std::uint16_t stratum = 0;
  bool full = false;
  std::vector<std::string> adds;
  std::vector<std::string> removes;

  void encode(wire::Writer& w) const;
  static Result<ChildHelloBody> decode(std::span<const std::byte> body);
};

}  // namespace gsalert::gds
