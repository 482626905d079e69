// Payloads of the alerting protocols: the client protocol
// (subscribe/cancel/notify), the auxiliary-profile protocol over the GS
// network, the event-forward protocol (paper §4.2, Figure 3), and the
// event announcement flooded over the GDS.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "docmodel/event.h"
#include "wire/codec.h"

namespace gsalert::alerting {

// --- client protocol ---------------------------------------------------

struct SubscribeBody {
  std::string profile_text;

  void encode(wire::Writer& w) const;
  static Result<SubscribeBody> decode(std::span<const std::byte> body);
};

struct SubscribeAckBody {
  std::uint64_t request_id = 0;  // msg_id of the Subscribe envelope
  bool ok = false;
  SubscriptionId subscription_id = 0;
  std::string error;

  void encode(wire::Writer& w) const;
  static Result<SubscribeAckBody> decode(std::span<const std::byte> body);
};

struct CancelBody {
  SubscriptionId subscription_id = 0;

  void encode(wire::Writer& w) const;
  static Result<CancelBody> decode(std::span<const std::byte> body);
};

struct NotificationBody {
  SubscriptionId subscription_id = 0;
  docmodel::Event event;

  void encode(wire::Writer& w) const;
  static Result<NotificationBody> decode(std::span<const std::byte> body);
};

/// Several notifications for one client coalesced into a single message
/// (delivery stage coalesce-window / periodic-digest modes). Entries carry
/// pre-encoded event bytes so the sender can alias the encode-once frame
/// without a re-encode. The body carries no identity of its own: the
/// envelope's msg_id names the digest (the channel seq of a
/// credit-managed digest, the server's msg id of an unmanaged one), and
/// the client drops a retransmitted digest wholesale by (sender, msg_id).
///
/// Entry bytes are views, never copies: the sender's point at its queued
/// event frames, and decode()'s point into the decoded buffer, which must
/// outlive the body.
struct NotificationDigestBody {
  struct Entry {
    SubscriptionId subscription_id = 0;
    std::span<const std::byte> event;  // encode_event() bytes
  };
  std::vector<Entry> entries;

  void encode(wire::Writer& w) const;
  static Result<NotificationDigestBody> decode(std::span<const std::byte> body);
};

// --- auxiliary profiles (GS network) ----------------------------------------

/// Installs (or removes) an auxiliary profile at the sub-collection's
/// host: "when <sub> changes, forward the event to <super>'s host"
/// (paper §4.2). The client of this profile is a Greenstone server, not a
/// user (paper §7).
struct AuxProfileBody {
  CollectionRef super;  // e.g. Hamilton.D
  CollectionRef sub;    // e.g. London.E

  void encode(wire::Writer& w) const;
  static Result<AuxProfileBody> decode(std::span<const std::byte> body);
};

/// Event forwarded from the sub-collection's host to the super-collection's
/// host; the receiver renames the origin and re-broadcasts via the GDS.
struct EventForwardBody {
  CollectionRef super;  // which super-collection to attribute the event to
  docmodel::Event event;

  void encode(wire::Writer& w) const;
  static Result<EventForwardBody> decode(std::span<const std::byte> body);
};

// --- GDS event announcement ----------------------------------------------------

std::vector<std::byte> encode_event(const docmodel::Event& event);
Result<docmodel::Event> decode_event(std::span<const std::byte> payload);

}  // namespace gsalert::alerting
