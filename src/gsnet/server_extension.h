// Extension point through which the alerting service (and the baseline
// backends) attach to a Greenstone server without gsnet depending on them.
// The server invokes these hooks synchronously from its build pipeline and
// message loop.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "docmodel/collection.h"
#include "docmodel/event.h"
#include "wire/codec.h"
#include "wire/envelope.h"
#include "wire/frame.h"

namespace gsalert::journal {
class RecordSink;
}  // namespace gsalert::journal

namespace gsalert::gsnet {

class GreenstoneServer;

class ServerExtension {
 public:
  virtual ~ServerExtension() = default;

  /// Called once when installed on a server.
  virtual void attach(GreenstoneServer& server) { server_ = &server; }

  /// An envelope the server itself did not consume. Return true if handled.
  virtual bool handle_envelope(NodeId /*from*/, const wire::Envelope&) {
    return false;
  }

  /// A message delivered through the GDS (broadcast, multicast or relay).
  /// The payload is a slice of the delivery packet's shared, immutable
  /// body frame. The extension may retain it (copying a Frame bumps a
  /// refcount); a retained slice keeps the deliver body alive, which is
  /// the payload plus the broadcast framing (origin name, seq, type). The
  /// alerting service sends and queues a flooded event's received bytes
  /// as the notification body.
  virtual void on_gds_message(std::uint16_t /*payload_type*/,
                              const wire::Frame& /*payload*/) {}

  /// A local collection (re)build produced an event. Runs synchronously as
  /// the paper's "additional step in the build process" — its cost is what
  /// experiment E4 measures. A rebuild raising several events calls it
  /// once per event.
  virtual void on_local_event(const docmodel::Event& /*event*/) {}

  /// A collection was added or its configuration changed (sub-collection
  /// links added/removed). The alerting layer diffs against its own
  /// auxiliary-profile registry.
  virtual void on_collection_configured(const docmodel::Collection&) {}
  virtual void on_collection_removed(const CollectionRef&) {}

  virtual void on_started() {}
  virtual void on_restarted() {}

  /// --- durability (server write-ahead journal) --------------------------
  /// The extension journals its own records (types 64..254) through
  /// GreenstoneServer::journal(); the server owns the file, the group
  /// commit and the snapshot cadence. Restart phase 1 calls on_recovered
  /// (wipe journaled state, re-attach channels) before the server replays
  /// the snapshot's and the log's records through replay_journal; phase 2
  /// still calls on_restarted to re-announce and re-arm timers (the crash
  /// killed every earlier one). The server commits after each packet; an
  /// extension's own timer handler commits the records it appends.
  virtual void on_recovered() {}
  /// Emit full durable state into a journal snapshot, as the same records
  /// the extension appends live.
  virtual void encode_durable(const journal::RecordSink&) const {}
  /// Apply one record (types 64..254) from the log or a snapshot. Return
  /// false when the type is not the extension's or the record does not
  /// apply (unknown types are ignored — forward compatibility).
  virtual bool replay_journal(std::uint8_t /*type*/, wire::Reader&) {
    return false;
  }

 protected:
  GreenstoneServer* server_ = nullptr;
};

}  // namespace gsalert::gsnet
