// Client-side access to the GDS, embedded in every Greenstone server (and
// in baseline brokers). Handles registration (with periodic refresh, so a
// restarted GDS node re-learns its servers), broadcast/multicast/relay
// submission, and name resolution through a transport::Endpoint (so
// resolve queries retransmit with backoff and report not-found on
// deadline instead of never firing).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "gds/messages.h"
#include "sim/network.h"
#include "transport/endpoint.h"
#include "wire/envelope.h"

namespace gsalert::gds {

class GdsClient {
 public:
  GdsClient() = default;

  /// Attach to the owner node and its GDS node. Call before Network::start.
  void attach(sim::Network* net, NodeId self, std::string self_name,
              NodeId gds_node);

  bool attached() const { return gds_node_.valid(); }
  NodeId gds_node() const { return gds_node_; }

  /// Register now and arm the periodic refresh.
  void start();
  /// After the owner restarts: drop the resolves pending at the crash
  /// (their timers died with it; callbacks do not fire), then start().
  void restart() {
    endpoint_.cancel_all();
    start();
  }

  void unregister();

  /// Broadcast a payload to all servers in the directory; returns the
  /// sequence number used (the dedup key together with our name).
  /// Broadcasts are numbered densely from their own counter, so a hole
  /// in a GDS node's per-origin window is a lost broadcast.
  std::uint64_t broadcast(std::uint16_t payload_type,
                          std::span<const std::byte> payload);

  /// Point-to-point relay by name through the tree.
  void relay(const std::string& dst, std::uint16_t payload_type,
             std::vector<std::byte> payload);

  /// Multicast to an explicit set of names.
  std::uint64_t multicast(std::vector<std::string> targets,
                          std::uint16_t payload_type,
                          std::vector<std::byte> payload);

  using ResolveCallback = std::function<void(bool found, const std::string&
                                                             owner_gds)>;
  /// Resolve a name; the callback fires exactly once — with the reply,
  /// or with found=false when the transport deadline expires.
  void resolve(const std::string& server_name, ResolveCallback callback);

  /// The owner forwards kGdsResolveReply envelopes here. Returns true if
  /// the envelope matched a pending resolve.
  bool handle_resolve_reply(const wire::Envelope& env);

  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

 private:
  /// Refresh period for registrations.
  static constexpr SimTime kRefreshInterval = SimTime::seconds(2);
  /// Retry/deadline policy for resolve queries.
  static constexpr transport::RetryPolicy kResolvePolicy{
      .deadline = SimTime::seconds(3), .max_retransmits = 2};

  void send_register();
  /// The refresh timer fired: register again and re-arm.
  void on_refresh_timer();

  sim::Network* net_ = nullptr;
  NodeId self_;
  std::string self_name_;
  NodeId gds_node_;
  std::uint64_t next_seq_ = 1;  // every other envelope's msg_id
  std::uint64_t next_broadcast_seq_ = 1;
  std::uint64_t next_query_ = 1;
  transport::Endpoint endpoint_;
};

}  // namespace gsalert::gds
