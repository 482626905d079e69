// A Greenstone DL server (paper §3): hosts collections, builds/rebuilds
// them (emitting alerting events through the extension hook), serves the
// GS protocol — including recursive resolution of distributed
// sub-collections on other hosts — and participates in the GDS as a
// registered client.
//
// One server per host, as in the paper; the node name is the host name.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "docmodel/collection.h"
#include "docmodel/event.h"
#include "gds/gds_client.h"
#include "gsnet/messages.h"
#include "gsnet/query_mediator.h"
#include "journal/journal.h"
#include "gsnet/server_extension.h"
#include "retrieval/engine.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/endpoint.h"

namespace gsalert::gsnet {

struct ServerConfig {
  /// How long a server-to-server collection request may stay unanswered.
  SimTime request_timeout = SimTime::seconds(5);
  /// Write-ahead journal for the server's extension state (profiles,
  /// aux registries, channel custody). Collections and the event/msg id
  /// counters are modeled durable-in-memory (real Greenstone keeps them
  /// on disk); snapshots carry the counters, max-merged on recovery.
  journal::JournalPolicy journal;
};

class GreenstoneServer : public sim::Node {
 public:
  explicit GreenstoneServer(ServerConfig config = {}) : config_(config) {}

  // --- administration / build pipeline ---------------------------------
  /// Install a new collection: index it and emit kCollectionBuilt.
  Status add_collection(docmodel::CollectionConfig config,
                        docmodel::DataSet data);
  /// Replace a collection's data set, re-index, emit kCollectionRebuilt
  /// carrying the documents that were not present before.
  Status rebuild_collection(const std::string& name, docmodel::DataSet data);
  /// Incrementally add documents, emit kDocumentsAdded.
  Status add_documents(const std::string& name,
                       std::vector<docmodel::Document> docs);
  /// Remove a collection entirely, emit kCollectionDeleted.
  Status remove_collection(const std::string& name);
  /// Add/remove a sub-collection link (possibly to another host); fires
  /// on_collection_configured so the alerting layer can manage auxiliary
  /// profiles.
  Status add_sub_collection(const std::string& super_name,
                            const CollectionRef& sub);
  Status remove_sub_collection(const std::string& super_name,
                               const CollectionRef& sub);

  // --- local queries ------------------------------------------------------
  const docmodel::Collection* collection(const std::string& name) const;
  const retrieval::Engine* engine(const std::string& name) const;

  /// Resolve a collection's full document set, following sub-collection
  /// links across hosts (asynchronous; callback fires when every branch
  /// answered or timed out).
  void resolve_collection(const std::string& name,
                          std::vector<std::string> chain,
                          bool as_subcollection,
                          std::function<void(CollResult)> done);

  /// Federated search: run the query on this collection and all of its
  /// sub-collections (remote ones via the GS protocol), aggregating hits.
  void resolve_search(const std::string& name, const std::string& query_text,
                      std::vector<std::string> chain, bool as_subcollection,
                      std::function<void(SearchResult)> done);

  // --- topology ------------------------------------------------------------
  /// Record the direct reference to another host's server (the link a
  /// config file with a remote sub-collection implies).
  void set_host_ref(const std::string& host, NodeId node);
  NodeId host_ref(const std::string& host) const;

  void attach_gds(NodeId gds_node);
  gds::GdsClient& gds() { return gds_; }

  /// Query mediator for distributed/virtual collections (Dushay &
  /// French): define member lists, scatter micro-filter queries with
  /// per-peer deadlines, merge partial results.
  QueryMediator& mediator() {
    mediator_.attach(this);
    return mediator_;
  }

  void set_extension(std::unique_ptr<ServerExtension> extension);
  ServerExtension* extension() const { return extension_.get(); }

  /// The node's write-ahead journal, opened lazily over its sim storage.
  /// Null when the server is not yet on a network. The extension appends
  /// records (types 64..254) here; the server group commits once per sim
  /// event.
  journal::Journal* journal();
  /// Flush buffered journal records (one fsync). No-op when clean —
  /// extensions call this from their own public entry points.
  void commit_journal() {
    if (journal_) journal_->commit();
  }

  /// Retransmit/timeout counters for server-to-server requests.
  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

  /// Allocate the next event sequence number (per-origin unique).
  std::uint64_t next_event_seq() { return event_seq_++; }
  /// Allocate a request/message id.
  std::uint64_t next_msg_id() { return msg_id_++; }

  /// Send an envelope to another node (exposed for the extension).
  void send_to(NodeId to, const wire::Envelope& env);

  sim::Network& net() { return network(); }

  // --- sim::Node -------------------------------------------------------------
  void on_start() override;
  void on_recover() override;
  void on_rejoin() override;
  void on_packet(NodeId from, const sim::Packet& packet) override;

 private:
  struct Entry {
    docmodel::Collection collection;
    retrieval::Engine engine;
  };

  void ensure_endpoint();
  void ensure_journal();
  void dispatch_packet(NodeId from, const sim::Packet& packet);
  void handle_coll_request(NodeId from, const wire::Envelope& env);
  void handle_coll_response(const wire::Envelope& env);
  void handle_search_request(NodeId from, const wire::Envelope& env);
  void handle_search_response(const wire::Envelope& env);
  docmodel::Event make_event(docmodel::EventType type,
                             const docmodel::Collection& coll,
                             std::vector<docmodel::Document> docs);
  void emit(const docmodel::Event& event);

  ServerConfig config_;
  std::map<std::string, Entry> collections_;
  std::unordered_map<std::string, NodeId> host_refs_;
  gds::GdsClient gds_;
  QueryMediator mediator_;
  std::unique_ptr<ServerExtension> extension_;
  std::uint64_t event_seq_ = 1;
  std::uint64_t msg_id_ = 1;
  std::unique_ptr<journal::Journal> journal_;

  // Outstanding server-to-server requests (collection + search): retries,
  // backoff and the request_timeout deadline all live in the endpoint.
  transport::Endpoint endpoint_;
};

}  // namespace gsalert::gsnet
