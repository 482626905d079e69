// Base class for all simulated actors (Greenstone servers, GDS servers,
// receptionists, clients, baseline brokers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "wire/frame.h"

namespace gsalert::sim {

class Network;

/// A packet is an opaque byte payload — upper layers serialize wire
/// envelopes into it. The simulator charges bytes for accounting but never
/// inspects the content. The payload is split into a small per-destination
/// `header` region (owned, rewritten at every hop: src, ttl, trace
/// context) and an immutable `body` frame that fan-out and chaos
/// duplication alias instead of copying (see wire/frame.h). The trace
/// fields mirror the envelope's context (wire::Envelope::pack fills them)
/// so the network can attribute drops and duplications to traces without
/// decoding; all-zero = untraced.
struct Packet {
  std::vector<std::byte> header;
  wire::Frame body;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint16_t hop = 0;

  std::size_t size() const { return header.size() + body.size(); }
};

class Node {
 public:
  virtual ~Node() = default;

  /// Called once when the simulation starts (Network::start).
  virtual void on_start() {}

  /// A packet arrived from `from` (delivery already paid latency/loss).
  /// A timer needs no hook: its owner hands Network::set_timer the
  /// closure that handles it.
  virtual void on_packet(NodeId from, const Packet& packet) = 0;

  /// The node was restarted after a crash. The default sequences the two
  /// phases every stateful node shares: first recover durable state
  /// (reopen the journal, replay), then rejoin the network (hellos,
  /// timers, retransmits). Every timer set before the crash is gone, so
  /// a pending request is either dropped at recover or re-armed at
  /// rejoin. Stateless test doubles may still override on_restart
  /// wholesale; production nodes override the phases so the restart
  /// path is uniform across node types.
  virtual void on_restart() {
    on_recover();
    on_rejoin();
  }

  /// Phase 1 of restart: rebuild in-memory state from stable storage.
  /// Volatile state is NOT cleared automatically — subclasses model
  /// their own durability semantics. Must not send packets.
  virtual void on_recover() {}

  /// Phase 2 of restart: re-announce to peers and re-arm timers.
  virtual void on_rejoin() {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

 protected:
  Network& network() const { return *network_; }
  /// Registered with a network yet? Lazy storage-backed members (journals)
  /// must wait until the node is added to one.
  bool has_network() const { return network_ != nullptr; }

 private:
  friend class Network;
  NodeId id_{};
  std::string name_;
  Network* network_ = nullptr;
};

}  // namespace gsalert::sim
