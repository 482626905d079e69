// Query mediator for distributed ("virtual") collections, after Dushay &
// French's mediator architecture for federated digital libraries: a
// virtual collection names member collections scattered over many DL
// servers, and a query against it fans out to every member in parallel
// over the request/reply endpoint. Each member gets its own deadline;
// members that answer in time merge into one hit set, members that miss
// it are dropped and the result is marked partial — the mediator degrades
// instead of blocking on the slowest library.
//
// The alerting layer uses this for micro-filter queries: a stored profile
// whose scope is a virtual collection is evaluated by scattering its
// query to the member hosts rather than shipping the documents around.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "gsnet/messages.h"
#include "obs/metrics_registry.h"
#include "transport/endpoint.h"
#include "wire/envelope.h"

namespace gsalert::gsnet {

class GreenstoneServer;

/// Partial-tolerant merge of one scattered query.
struct MediatedQueryResult {
  bool ok = false;        // at least one member answered
  bool partial = false;   // >=1 member missing from the merge
  std::string error;      // first member error observed, when any
  std::vector<DocumentId> hits;  // merged, sorted, deduplicated
  std::uint32_t peers_total = 0;
  std::uint32_t peers_answered = 0;
  std::uint32_t peers_timed_out = 0;
  std::uint32_t peers_failed = 0;
};

/// Counters exported as query.mediator.* (docs/OBSERVABILITY.md).
struct MediatorStats {
  std::uint64_t queries = 0;
  std::uint64_t fanout = 0;        // remote member sub-queries issued
  std::uint64_t local_answers = 0; // members answered in-process
  std::uint64_t replies = 0;       // remote answers inside the deadline
  std::uint64_t timeouts = 0;
  std::uint64_t failures = 0;      // member errors / unknown hosts
  std::uint64_t partials = 0;      // queries that completed incomplete
};

class QueryMediator {
 public:
  /// Bind to the owning server (idempotent; re-binds the endpoint lazily
  /// once the server is on a network).
  void attach(GreenstoneServer* server);
  bool attached() const { return server_ != nullptr; }

  /// Register or replace a virtual collection's member list.
  void define_virtual(std::string name, std::vector<CollectionRef> members);

  /// Scatter `query_text` to every member of virtual collection `vname`.
  /// `done` fires once, after every member answered or timed out.
  void query(const std::string& vname, const std::string& query_text,
             std::function<void(MediatedQueryResult)> done);
  /// Same, over an explicit member list.
  void query_members(const std::vector<CollectionRef>& members,
                     const std::string& query_text,
                     std::function<void(MediatedQueryResult)> done);

  /// Owner hooks: packet dispatch routes through the hosting
  /// GreenstoneServer.
  void handle_query(NodeId from, const wire::Envelope& env);
  void handle_reply(const wire::Envelope& env);
  /// Pending scatters are volatile: dropped on crash (callers re-query).
  void cancel_all() { endpoint_.cancel_all(); }

  const MediatorStats& stats() const { return stats_; }
  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }
  /// Export query.mediator.* under the owning node's label.
  void collect_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Per-peer answer deadline: a member that misses it is dropped from
  /// the merge (with retransmits inside the window) and the query result
  /// is marked partial rather than failed.
  static constexpr SimTime kPeerDeadline = SimTime::seconds(2);

  void ensure_endpoint();
  /// Answer one member query against a local collection's index.
  MediatorReplyBody answer_local(const std::string& collection_name,
                                 const std::string& query_text) const;

  GreenstoneServer* server_ = nullptr;
  std::map<std::string, std::vector<CollectionRef>> virtuals_;
  transport::Endpoint endpoint_;
  MediatorStats stats_;
};

}  // namespace gsalert::gsnet
