#include "gds/messages.h"

namespace gsalert::gds {

namespace {
Error malformed(const char* what) {
  return Error{ErrorCode::kDecodeFailure, what};
}
}  // namespace

void RegisterBody::encode(wire::Writer& w) const { w.str(server_name); }

Result<RegisterBody> RegisterBody::decode(std::span<const std::byte> body) {
  wire::Reader r{body};
  RegisterBody out;
  out.server_name = r.str();
  if (!r.done()) return malformed("RegisterBody");
  return out;
}

void BroadcastBody::encode(wire::Writer& w) const {
  encode(w, origin_server, seq, payload_type, payload);
}

std::size_t BroadcastBody::wire_size() const {
  return wire_size(origin_server, payload.size());
}

void BroadcastBody::encode(wire::Writer& w, std::string_view origin_server,
                           std::uint64_t seq, std::uint16_t payload_type,
                           std::span<const std::byte> payload) {
  w.str(origin_server);
  w.u64(seq);
  w.u16(payload_type);
  w.bytes(payload);
}

std::size_t BroadcastBody::wire_size(std::string_view origin_server,
                                     std::size_t payload_size) {
  // str(4+n) + u64 + u16 + bytes(4+n)
  return 4 + origin_server.size() + 8 + 2 + 4 + payload_size;
}

Result<BroadcastView> BroadcastView::peek(std::span<const std::byte> body) {
  wire::Reader r{body};
  BroadcastView out;
  out.origin_server = r.str();
  out.seq = r.u64();
  out.payload_type = r.u16();
  const std::uint32_t payload_len = r.u32();
  if (!r.ok() || r.remaining() != payload_len) {
    return malformed("BroadcastBody");
  }
  out.payload = body.subspan(body.size() - payload_len);
  return out;
}

Result<BroadcastBody> BroadcastBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  BroadcastBody out;
  out.origin_server = r.str();
  out.seq = r.u64();
  out.payload_type = r.u16();
  out.payload = r.bytes();
  if (!r.done()) return malformed("BroadcastBody");
  return out;
}

void RelayBody::encode(wire::Writer& w) const {
  w.str(origin_server);
  w.str(dst_server);
  w.u16(payload_type);
  w.bytes(payload);
}

Result<RelayBody> RelayBody::decode(std::span<const std::byte> body) {
  wire::Reader r{body};
  RelayBody out;
  out.origin_server = r.str();
  out.dst_server = r.str();
  out.payload_type = r.u16();
  out.payload = r.bytes();
  if (!r.done()) return malformed("RelayBody");
  return out;
}

void MulticastBody::encode(wire::Writer& w) const {
  encode_fields(w, origin_server, seq, targets, payload_type, payload);
}

void MulticastBody::encode_fields(wire::Writer& w, const std::string& origin,
                                  std::uint64_t seq,
                                  const std::vector<std::string>& targets,
                                  std::uint16_t payload_type,
                                  std::span<const std::byte> payload) {
  std::size_t estimate = 4 + origin.size() + 8 + 4 + 2 + 4 + payload.size();
  for (const std::string& t : targets) estimate += 4 + t.size();
  w.reserve(estimate);
  w.str(origin);
  w.u64(seq);
  w.seq(targets, [](wire::Writer& w2, const std::string& t) { w2.str(t); });
  w.u16(payload_type);
  w.bytes(payload);
}

Result<MulticastBody> MulticastBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  MulticastBody out;
  out.origin_server = r.str();
  out.seq = r.u64();
  out.targets = r.seq<std::string>([](wire::Reader& r2) { return r2.str(); });
  out.payload_type = r.u16();
  out.payload = r.bytes();
  if (!r.done()) return malformed("MulticastBody");
  return out;
}

void ResolveBody::encode(wire::Writer& w) const {
  w.u64(query_id);
  w.str(server_name);
}

Result<ResolveBody> ResolveBody::decode(std::span<const std::byte> body) {
  wire::Reader r{body};
  ResolveBody out;
  out.query_id = r.u64();
  out.server_name = r.str();
  if (!r.done()) return malformed("ResolveBody");
  return out;
}

void ResolveReplyBody::encode(wire::Writer& w) const {
  w.u64(query_id);
  w.str(server_name);
  w.boolean(found);
  w.str(owner_gds);
}

Result<ResolveReplyBody> ResolveReplyBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  ResolveReplyBody out;
  out.query_id = r.u64();
  out.server_name = r.str();
  out.found = r.boolean();
  out.owner_gds = r.str();
  if (!r.done()) return malformed("ResolveReplyBody");
  return out;
}

void ChildHelloBody::encode(wire::Writer& w) const {
  w.u16(stratum);
  w.boolean(full);
  w.seq(adds, [](wire::Writer& w2, const std::string& s) { w2.str(s); });
  w.seq(removes, [](wire::Writer& w2, const std::string& s) { w2.str(s); });
}

Result<ChildHelloBody> ChildHelloBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  ChildHelloBody out;
  out.stratum = r.u16();
  out.full = r.boolean();
  out.adds = r.seq<std::string>([](wire::Reader& r2) { return r2.str(); });
  out.removes = r.seq<std::string>([](wire::Reader& r2) { return r2.str(); });
  if (!r.done()) return malformed("ChildHelloBody");
  return out;
}

}  // namespace gsalert::gds
