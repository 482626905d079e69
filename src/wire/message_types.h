// Registry of all message types on the wire. Payload structs live next to
// the modules that own them; this header only assigns stable tags so the
// envelope can dispatch.
#pragma once

#include <cstdint>

namespace gsalert::wire {

enum class MessageType : std::uint16_t {
  kInvalid = 0,

  // --- GDS protocol (directory tree) ------------------------------------
  kGdsRegister = 10,        // GS server -> its GDS node
  kGdsRegisterAck = 11,
  kGdsUnregister = 12,
  kGdsResolve = 13,         // name lookup request
  kGdsResolveReply = 14,
  kGdsBroadcast = 15,       // flooded through the tree
  kGdsDeliver = 16,         // GDS node -> registered GS server
  kGdsRelay = 17,           // point-to-point via the tree
  kGdsMulticast = 18,       // to an explicit set of server names
  kGdsChildHello = 19,      // child GDS node -> parent (tree maintenance)
  kGdsHeartbeat = 20,
  kGdsHeartbeatAck = 21,
  kGdsRttProbe = 22,        // latency probe to a candidate parent
  kGdsRttProbeAck = 23,     // stateless echo (no child state created)

  // --- Greenstone protocol (DL servers & receptionists) ------------------
  kGsCollRequest = 40,      // collection data request
  kGsCollResponse = 41,
  kGsSearchRequest = 42,    // federated search across sub-collections
  kGsSearchResponse = 43,
  kGsMediatorQuery = 44,    // query-mediator scatter to one member server
  kGsMediatorReply = 45,

  // --- Alerting over the GS network (distributed collections) ------------
  kAuxProfileAdd = 60,
  kAuxProfileRemove = 61,
  kAuxProfileAck = 62,
  kEventForward = 63,       // sub-collection host -> super-collection host
  kEventForwardAck = 64,

  // --- Alerting client protocol ------------------------------------------
  kSubscribe = 80,
  kSubscribeAck = 81,
  kCancelSubscription = 82,
  kNotification = 83,
  kNotificationDigest = 84,  // coalesced/periodic batch of notifications
  kNotificationAck = 85,     // client ack for channel-managed delivery

  // --- Alerting event payload (wrapped in GDS broadcast / forwards) ------
  kEventAnnounce = 90,

  // --- Baseline protocols -------------------------------------------------
  kCentralPublish = 100,    // B1: event -> central server
  kCentralNotify = 101,     // B1: central server -> home server
  kProfileFlood = 110,      // B2: profile propagation
  kProfileUnflood = 111,
  kFloodNotify = 112,       // B2: notification routed back to owner broker
  kRvSubscribe = 120,       // B3: store profile at rendezvous node
  kRvUnsubscribe = 121,
  kRvPublish = 122,         // B3: event -> rendezvous node
  kRvNotify = 123,
  kRvAck = 124,             // B1/B3: broker acks a (un)subscribe control msg
  kGsFlood = 130,           // B4: naive flooding on the GS network
};

}  // namespace gsalert::wire
