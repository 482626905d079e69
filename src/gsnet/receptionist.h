// A receptionist (paper §3, Figure 1): the user-facing access point that
// can reach one or more Greenstone hosts and presents their collections as
// a single homogeneous structure. Storage and distribution stay transparent
// to the user: the receptionist just issues a GS-protocol request to the
// entry collection's host.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/types.h"
#include "gsnet/messages.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/endpoint.h"
#include "wire/envelope.h"

namespace gsalert::gsnet {

class Receptionist : public sim::Node {
 public:
  /// Grant access to a host (Receptionist I in Figure 1 reaches Hamilton
  /// and London; II only London).
  void add_host(const std::string& host, NodeId server);

  /// Fetch the documents of a (possibly distributed) collection on behalf
  /// of a user. Fails locally if this receptionist has no access to the
  /// entry collection's host.
  void open_collection(const CollectionRef& ref,
                       std::function<void(CollResult)> done);

  /// Federated search: run a query over a collection and all of its
  /// (possibly remote) sub-collections.
  void search_collection(const CollectionRef& ref,
                         const std::string& query_text,
                         std::function<void(SearchResult)> done);

  /// Retransmit/timeout counters for user-facing requests.
  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

  void on_start() override;
  /// Requests pending at a crash are dropped: their timers died with it.
  void on_recover() override { endpoint_.cancel_all(); }
  void on_packet(NodeId from, const sim::Packet& packet) override;

 private:
  /// Deadline of one user-facing request, retransmits included.
  static constexpr SimTime kRequestTimeout = SimTime::seconds(5);

  void ensure_endpoint();

  std::unordered_map<std::string, NodeId> hosts_;
  // Outstanding requests (data + search share the id space) live in the
  // endpoint, which retransmits with backoff until kRequestTimeout.
  transport::Endpoint endpoint_;
  std::uint64_t next_request_ = 1;
};

}  // namespace gsalert::gsnet
