#include "alerting/messages.h"

namespace gsalert::alerting {

namespace {
Error malformed(const char* what) {
  return Error{ErrorCode::kDecodeFailure, what};
}

void encode_ref(wire::Writer& w, const CollectionRef& ref) {
  w.str(ref.host);
  w.str(ref.name);
}

CollectionRef decode_ref(wire::Reader& r) {
  CollectionRef ref;
  ref.host = r.str();
  ref.name = r.str();
  return ref;
}
}  // namespace

void SubscribeBody::encode(wire::Writer& w) const { w.str(profile_text); }

Result<SubscribeBody> SubscribeBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  SubscribeBody out;
  out.profile_text = r.str();
  if (!r.done()) return malformed("SubscribeBody");
  return out;
}

void SubscribeAckBody::encode(wire::Writer& w) const {
  w.u64(request_id);
  w.boolean(ok);
  w.u64(subscription_id);
  w.str(error);
}

Result<SubscribeAckBody> SubscribeAckBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  SubscribeAckBody out;
  out.request_id = r.u64();
  out.ok = r.boolean();
  out.subscription_id = r.u64();
  out.error = r.str();
  if (!r.done()) return malformed("SubscribeAckBody");
  return out;
}

void CancelBody::encode(wire::Writer& w) const { w.u64(subscription_id); }

Result<CancelBody> CancelBody::decode(std::span<const std::byte> body) {
  wire::Reader r{body};
  CancelBody out;
  out.subscription_id = r.u64();
  if (!r.done()) return malformed("CancelBody");
  return out;
}

void NotificationBody::encode(wire::Writer& w) const {
  w.u64(subscription_id);
  event.encode(w);
}

Result<NotificationBody> NotificationBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  NotificationBody out;
  out.subscription_id = r.u64();
  out.event = docmodel::Event::decode(r);
  if (!r.done()) return malformed("NotificationBody");
  return out;
}

void NotificationDigestBody::encode(wire::Writer& w) const {
  std::size_t estimate = 8 + 4;  // digest_seq + entry count
  for (const Entry& e : entries) estimate += 8 + 4 + e.event.size();
  w.reserve(estimate);
  w.u64(digest_seq);
  w.seq(entries, [](wire::Writer& w2, const Entry& e) {
    w2.u64(e.subscription_id);
    w2.bytes(e.event);
  });
}

Result<NotificationDigestBody> NotificationDigestBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  NotificationDigestBody out;
  out.digest_seq = r.u64();
  out.entries = r.seq<Entry>([](wire::Reader& r2) {
    Entry e;
    e.subscription_id = r2.u64();
    e.event = r2.view_bytes();
    return e;
  });
  if (!r.done()) return malformed("NotificationDigestBody");
  return out;
}

void AuxProfileBody::encode(wire::Writer& w) const {
  encode_ref(w, super);
  encode_ref(w, sub);
}

Result<AuxProfileBody> AuxProfileBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  AuxProfileBody out;
  out.super = decode_ref(r);
  out.sub = decode_ref(r);
  if (!r.done()) return malformed("AuxProfileBody");
  return out;
}

void EventForwardBody::encode(wire::Writer& w) const {
  encode_ref(w, super);
  event.encode(w);
}

Result<EventForwardBody> EventForwardBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  EventForwardBody out;
  out.super = decode_ref(r);
  out.event = docmodel::Event::decode(r);
  if (!r.done()) return malformed("EventForwardBody");
  return out;
}

std::vector<std::byte> encode_event(const docmodel::Event& event) {
  wire::Writer w;
  event.encode(w);
  return std::move(w).take();
}

Result<docmodel::Event> decode_event(std::span<const std::byte> payload) {
  wire::Reader r{payload};
  docmodel::Event event = docmodel::Event::decode(r);
  if (!r.done()) return malformed("Event payload");
  return event;
}

void EventBatchBody::encode(wire::Writer& w) const {
  std::size_t estimate = 4;  // entry count
  for (const Entry& e : entries) estimate += 8 + 8 + 2 + 4 + e.event.size();
  w.reserve(estimate);
  w.seq(entries, [](wire::Writer& w2, const Entry& e) {
    w2.u64(e.trace_id);
    w2.u64(e.span_id);
    w2.u16(e.hop);
    w2.bytes(e.event);
  });
}

Result<EventBatchBody> EventBatchBody::decode(
    std::span<const std::byte> body) {
  wire::Reader r{body};
  EventBatchBody out;
  out.entries = r.seq<Entry>([](wire::Reader& r2) {
    Entry e;
    e.trace_id = r2.u64();
    e.span_id = r2.u64();
    e.hop = r2.u16();
    e.event = r2.bytes();
    return e;
  });
  if (!r.done()) return malformed("EventBatchBody");
  return out;
}

}  // namespace gsalert::alerting
