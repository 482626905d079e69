#include "wire/envelope.h"

#include <cassert>

#include "obs/trace.h"

namespace gsalert::wire {

namespace {

// Fixed header cost: type(2) + 2 string length prefixes (4+4) + msg_id(8)
// + ttl(2) + chan_base(8) + trace_id(8) + span_id(8) + hop(2) + body
// length(4).
constexpr std::size_t kHeaderFixed = 50;

void encode_header(Writer& w, const Envelope& env) {
  w.u16(static_cast<std::uint16_t>(env.type));
  w.str(env.src);
  w.str(env.dst);
  w.u64(env.msg_id);
  w.u16(env.ttl);
  w.u64(env.chan_base);
  w.u64(env.trace_id);
  w.u64(env.span_id);
  w.u16(env.hop);
  w.u32(static_cast<std::uint32_t>(env.body.size()));
}

/// Decode the header region; returns the declared body length.
std::uint32_t decode_header(Reader& r, Envelope& env) {
  env.type = static_cast<MessageType>(r.u16());
  env.src = r.str();
  env.dst = r.str();
  env.msg_id = r.u64();
  env.ttl = r.u16();
  env.chan_base = r.u64();
  env.trace_id = r.u64();
  env.span_id = r.u64();
  env.hop = r.u16();
  return r.u32();
}

}  // namespace

std::size_t Envelope::header_wire_size() const {
  return kHeaderFixed + src.size() + dst.size();
}

sim::Packet Envelope::pack() const {
  Writer w;
  w.reserve(header_wire_size());
  encode_header(w, *this);
  assert(!w.grew_after_reserve());
  sim::Packet packet;
  packet.header = std::move(w).take();
  packet.body = body;
  // Mirror the trace context into packet metadata: the sim layer treats
  // bytes as opaque but still wants to attribute drops to traces.
  packet.trace_id = trace_id;
  packet.span_id = span_id;
  packet.hop = hop;
  return packet;
}

std::vector<std::byte> Envelope::flatten() const {
  Writer w;
  w.reserve(flat_size());
  flatten_into(w);
  assert(!w.grew_after_reserve());
  return std::move(w).take();
}

void Envelope::flatten_into(Writer& w) const {
  encode_header(w, *this);
  w.raw(body);
}

Result<Envelope> unpack(const sim::Packet& packet) {
  Reader r{packet.header};
  Envelope env;
  const std::uint32_t body_len = decode_header(r, env);
  if (!r.done() || body_len != packet.body.size()) {
    return Error{ErrorCode::kDecodeFailure, "malformed envelope"};
  }
  env.body = packet.body;  // zero-copy: alias the shared frame
  return env;
}

Result<Envelope> unpack(std::span<const std::byte> flat) {
  Reader r{flat};
  Envelope env;
  const std::uint32_t body_len = decode_header(r, env);
  if (!r.ok() || r.remaining() != body_len) {
    return Error{ErrorCode::kDecodeFailure, "malformed envelope"};
  }
  const std::span<const std::byte> rest = flat.subspan(flat.size() - body_len);
  env.body = std::vector<std::byte>(rest.begin(), rest.end());
  return env;
}

Envelope make_envelope(MessageType type, std::string src, std::string dst,
                       std::uint64_t msg_id, Writer body) {
  return make_envelope(type, std::move(src), std::move(dst), msg_id,
                       Frame{std::move(body).take()});
}

Envelope make_envelope(MessageType type, std::string src, std::string dst,
                       std::uint64_t msg_id, Frame body) {
  Envelope env;
  env.type = type;
  env.src = std::move(src);
  env.dst = std::move(dst);
  env.msg_id = msg_id;
  env.body = std::move(body);
  // New envelopes inherit the context of the message being handled (one
  // hop further along); a send outside any TraceScope stays untraced.
  const obs::TraceContext ctx = obs::current_context();
  if (ctx.traced()) {
    env.trace_id = ctx.trace_id;
    env.span_id = ctx.span_id;
    env.hop = static_cast<std::uint16_t>(ctx.hop + 1);
  }
  return env;
}

}  // namespace gsalert::wire
