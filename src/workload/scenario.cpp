#include "workload/scenario.h"

#include <algorithm>
#include <cassert>

#include "journal/journal.h"
#include "obs/metrics_registry.h"
#include "profiles/event_context.h"
#include "profiles/parser.h"

namespace gsalert::workload {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kGsAlert:
      return "gsalert";
    case Strategy::kCentralized:
      return "centralized";
    case Strategy::kProfileFlooding:
      return "profile-flood";
    case Strategy::kRendezvous:
      return "rendezvous";
    case Strategy::kGsFlooding:
      return "gs-flood";
  }
  return "?";
}

namespace {
// Uniquely identifies a logical announcement as one client should see it:
// the attribution ref plus the via chain plus the physical rebuild behind
// it. Without the via/physical parts, a renamed event can collide with a
// direct rebuild of the super (or with a rename from a different sub)
// that happens to share the same (ref, build_version) pair.
std::string expect_key(std::size_t client, const docmodel::Event& event) {
  std::string via;
  for (const std::string& hop : event.via) via += hop + ">";
  return std::to_string(client) + "#" + event.collection.str() + "#" + via +
         "#" + event.physical_origin.str() + "#" +
         std::to_string(event.build_version);
}
std::string event_key(const std::string& ref, std::uint64_t version) {
  return ref + "#" + std::to_string(version);
}
}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : config_(config), rng_(config.seed), net_(config.seed ^ 0x5CE) {
  net_.set_default_path(config_.path);
  if (!config_.sim_topology.empty()) {
    std::optional<sim::Topology> topo =
        sim::topology_by_name(config_.sim_topology);
    if (!topo.has_value()) {
      throw std::invalid_argument("unknown sim_topology: " +
                                  config_.sim_topology);
    }
    net_.set_topology(*std::move(topo));
  }
  build_world();
  net_.start();
  settle(SimTime::millis(200));
}

void Scenario::build_world() {
  const int n = config_.n_servers;
  topology_ = config_.explicit_topology.has_value()
                  ? *config_.explicit_topology
                  : make_topology(rng_, n, config_.topology);
  assert(topology_.n_servers == n);

  // Strategy-specific infrastructure first, so servers can reference it.
  if (config_.strategy == Strategy::kGsAlert) {
    const int fanout = std::max(2, config_.gds_fanout);
    int leaves_needed = std::max(1, (n + 3) / 4);
    int depth = 1, leaves = 1;
    while (leaves < leaves_needed) {
      leaves *= fanout;
      ++depth;
    }
    depth = std::max(depth, 2);
    gds::GdsConfig gds_config;
    gds_config.dedup_enabled = config_.gds_dedup;
    gds_config.adaptive_parent = config_.adaptive_tree;
    if (config_.journal_compact_bytes != 0) {
      gds_config.journal.compact_threshold_bytes =
          config_.journal_compact_bytes;
    }
    gds_tree_ = gds::build_tree(net_, fanout, depth, gds_config);
  } else if (config_.strategy == Strategy::kCentralized) {
    central_ = net_.make_node<baselines::CentralServer>("central");
  } else if (config_.strategy == Strategy::kRendezvous) {
    for (int i = 0; i < config_.n_rendezvous; ++i) {
      rv_brokers_.push_back(net_.make_node<baselines::RendezvousBroker>(
          "rv" + std::to_string(i)));
    }
  }

  std::vector<NodeId> rv_ids;
  for (auto* b : rv_brokers_) rv_ids.push_back(b->id());

  for (int i = 0; i < n; ++i) {
    const std::string host = host_name(i);
    hosts_.push_back(host);
    gsnet::ServerConfig server_config;
    if (config_.journal_compact_bytes != 0) {
      server_config.journal.compact_threshold_bytes =
          config_.journal_compact_bytes;
    }
    auto* server =
        net_.make_node<gsnet::GreenstoneServer>(host, server_config);
    switch (config_.strategy) {
      case Strategy::kGsAlert: {
        auto ext =
            std::make_unique<alerting::AlertingService>(config_.alerting);
        gsalert_.push_back(ext.get());
        server->set_extension(std::move(ext));
        server->attach_gds(
            gds_tree_.leaf_for(static_cast<std::size_t>(i))->id());
        break;
      }
      case Strategy::kCentralized:
        server->set_extension(
            std::make_unique<baselines::CentralizedAlerting>(central_->id()));
        break;
      case Strategy::kProfileFlooding: {
        auto ext = std::make_unique<baselines::ProfileFloodAlerting>(
            config_.b2_covering);
        pflood_.push_back(ext.get());
        server->set_extension(std::move(ext));
        break;
      }
      case Strategy::kRendezvous:
        server->set_extension(
            std::make_unique<baselines::RendezvousAlerting>(rv_ids));
        break;
      case Strategy::kGsFlooding: {
        // gds_dedup doubles as the dedup ablation switch for B4.
        auto ext =
            std::make_unique<baselines::GsFloodAlerting>(config_.gds_dedup);
        gsflood_.push_back(ext.get());
        server->set_extension(std::move(ext));
        break;
      }
    }
    servers_.push_back(server);
    schemas_.push_back(MetadataSchema::for_host(host, config_.seed));
    collgens_.push_back(std::make_unique<CollectionGen>(
        rng_, schemas_.back(), config_.collection));
    collections_.emplace_back();

    for (int c = 0; c < config_.clients_per_server; ++c) {
      auto* client = net_.make_node<alerting::Client>(
          "client-" + std::to_string(i) + "-" + std::to_string(c));
      client->set_home(server->id());
      clients_.push_back(client);
    }
  }
  wire_links();
}

void Scenario::wire_links() {
  // Every server can unicast to every other by name (internet semantics);
  // the overlay links below are what the flooding strategies route along.
  for (auto* a : servers_) {
    for (auto* b : servers_) {
      if (a != b) a->set_host_ref(b->name(), b->id());
    }
  }
  for (const auto& [x, y] : topology_.links) {
    const auto sx = static_cast<std::size_t>(x);
    const auto sy = static_cast<std::size_t>(y);
    if (config_.strategy == Strategy::kProfileFlooding) {
      pflood_[sx]->add_neighbor(servers_[sy]->name(), servers_[sy]->id());
      pflood_[sy]->add_neighbor(servers_[sx]->name(), servers_[sx]->id());
    } else if (config_.strategy == Strategy::kGsFlooding) {
      gsflood_[sx]->add_neighbor(servers_[sy]->name(), servers_[sy]->id());
      gsflood_[sy]->add_neighbor(servers_[sx]->name(), servers_[sx]->id());
    }
  }
}

void Scenario::setup_collections() {
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    for (int c = 0; c < config_.collections_per_server; ++c) {
      std::string name = "C";
      name += std::to_string(c);
      docmodel::CollectionConfig cfg = collgens_[s]->make_config(name);
      docmodel::DataSet data =
          collgens_[s]->make_data_set(next_doc_id_, config_.collection.docs);
      next_doc_id_ += static_cast<DocumentId>(config_.collection.docs);
      CollState state{name, data.docs()};
      collections_[s].push_back(std::move(state));
      all_collections_.push_back(CollectionRef{servers_[s]->name(), name});
      const Status st = servers_[s]->add_collection(std::move(cfg),
                                                    std::move(data));
      assert(st.is_ok());
      (void)st;
    }
  }
  settle(SimTime::seconds(1));
}

void Scenario::setup_distributed(int links) {
  assert(config_.strategy == Strategy::kGsAlert);
  if (servers_.size() < 2) return;
  for (int attempt = 0; links > 0 && attempt < links * 8; ++attempt) {
    // Super on a lower-indexed server than the sub keeps the include
    // graph acyclic even across chained links.
    const std::size_t sub_server =
        1 + rng_.index(servers_.size() - 1);
    const std::size_t super_server = rng_.index(sub_server);
    const CollectionRef super{
        servers_[super_server]->name(),
        collections_[super_server]
            [rng_.index(collections_[super_server].size())].name};
    const CollectionRef sub{
        servers_[sub_server]->name(),
        collections_[sub_server][rng_.index(collections_[sub_server].size())]
            .name};
    const Status st = servers_[super_server]->add_sub_collection(super.name,
                                                                 sub);
    if (!st.is_ok()) continue;  // duplicate link drawn; redraw
    dist_links_.emplace_back(super, sub);
    --links;
  }
  // Let the auxiliary profiles install (reliable, so one retry interval
  // is plenty in the healthy setup phase).
  settle(SimTime::seconds(3));
}

void Scenario::subscribe(std::size_t client_index, const std::string& text) {
  auto parsed = profiles::parse_profile(text);
  assert(parsed.ok());
  TrackedSub sub;
  sub.client_index = client_index;
  sub.text = text;
  sub.parsed = std::move(parsed).take();
  const std::size_t slot = subs_.size();
  subs_.push_back(std::move(sub));
  clients_[client_index]->subscribe(
      text, [this, slot](Result<SubscriptionId> r) {
        if (r.ok()) subs_[slot].id = r.value();
      });
}

void Scenario::subscribe_all(int n) {
  ProfileGen gen{rng_, config_.profile};
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (int k = 0; k < n; ++k) {
      subscribe(c, gen.make_profile(hosts_, all_collections_, schemas_));
    }
  }
}

bool Scenario::cancel_random() {
  // Only subscriptions whose home server is currently reachable from its
  // client are candidates: the paper's model has the user interacting
  // with *their* server (profiles live at the server the user talks to),
  // so a cancellation is a local, synchronous act — not a message that
  // can be silently lost to a partition.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const TrackedSub& sub = subs_[i];
    if (!sub.active || sub.id == 0) continue;
    const NodeId client = clients_[sub.client_index]->id();
    const NodeId home = clients_[sub.client_index]->home();
    if (!net_.is_up(home) || !net_.is_up(client) ||
        net_.is_blocked(client, home)) {
      continue;
    }
    active.push_back(i);
  }
  if (active.empty()) return false;
  TrackedSub& sub = subs_[active[rng_.index(active.size())]];
  clients_[sub.client_index]->cancel(sub.id);
  sub.active = false;
  sub.cancelled_at = net_.now();
  return true;
}

void Scenario::publish_rebuild(std::size_t server_index,
                               const std::string& coll, int fresh_docs) {
  auto& states = collections_[server_index];
  const auto it = std::find_if(states.begin(), states.end(),
                               [&](const CollState& s) {
                                 return s.name == coll;
                               });
  assert(it != states.end());
  std::vector<docmodel::Document> fresh;
  for (int i = 0; i < fresh_docs; ++i) {
    fresh.push_back(collgens_[server_index]->make_document(next_doc_id_++));
  }
  docmodel::DataSet data{it->docs};
  for (const auto& d : fresh) data.add(d);
  it->docs = data.docs();

  gsnet::GreenstoneServer* server = servers_[server_index];
  const Status st = server->rebuild_collection(coll, std::move(data));
  assert(st.is_ok());
  (void)st;
  const std::uint64_t version = server->collection(coll)->build_version;

  // Ground truth: what every active, acked profile should receive.
  docmodel::Event expected_event;
  expected_event.type = docmodel::EventType::kCollectionRebuilt;
  expected_event.collection = CollectionRef{server->name(), coll};
  expected_event.physical_origin = expected_event.collection;
  expected_event.build_version = version;
  expected_event.docs = fresh;

  auto record_expectations = [&](const docmodel::Event& event) {
    const profiles::EventContext ctx = profiles::EventContext::from(event);
    for (const TrackedSub& sub : subs_) {
      if (!sub.active || sub.id == 0) continue;
      if (sub.parsed.matches(ctx)) {
        expected_[expect_key(sub.client_index, event)] += 1;
      }
    }
    publish_time_.try_emplace(event_key(event.collection.str(), version),
                              net_.now());
  };
  record_expectations(expected_event);

  // Rename cascade (paper §4.2): every transitive super-collection of the
  // rebuilt collection re-announces the event attributed to itself. The
  // include graph is acyclic by construction (setup_distributed), and the
  // service's via-chain guard mirrors the cut conditions here.
  std::vector<docmodel::Event> frontier{expected_event};
  while (!frontier.empty()) {
    const docmodel::Event current = std::move(frontier.back());
    frontier.pop_back();
    for (const auto& [super, sub] : dist_links_) {
      if (sub != current.collection) continue;
      if (super == current.collection ||
          std::find(current.via.begin(), current.via.end(), super.str()) !=
              current.via.end()) {
        continue;
      }
      docmodel::Event renamed = current;
      renamed.collection = super;
      renamed.via.push_back(current.collection.str());
      record_expectations(renamed);
      frontier.push_back(std::move(renamed));
    }
  }
  events_published_ += 1;
}

void Scenario::publish_random_rebuild(int fresh_docs) {
  const std::size_t s = rng_.index(servers_.size());
  const std::size_t c = rng_.index(collections_[s].size());
  publish_rebuild(s, collections_[s][c].name, fresh_docs);
}

void Scenario::setup_virtual_collection(const std::string& vname) {
  std::vector<CollectionRef> members;
  members.reserve(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (collections_[s].empty()) continue;
    members.push_back(
        CollectionRef{servers_[s]->name(), collections_[s].front().name});
  }
  for (gsnet::GreenstoneServer* server : servers_) {
    server->mediator().define_virtual(vname, members);
  }
}

void Scenario::mediated_query(
    std::size_t origin, const std::string& vname,
    const std::string& query_text,
    std::function<void(gsnet::MediatedQueryResult)> done) {
  assert(origin < servers_.size());
  servers_[origin]->mediator().query(vname, query_text, std::move(done));
}

void Scenario::settle(SimTime duration) {
  net_.run_until(net_.now() + duration);
}

std::vector<Scenario::SubRecord> Scenario::sub_records() const {
  std::vector<SubRecord> out;
  out.reserve(subs_.size());
  for (const TrackedSub& sub : subs_) {
    out.push_back(SubRecord{sub.client_index, sub.id, sub.active,
                            sub.cancelled_at});
  }
  return out;
}

std::optional<SimTime> Scenario::publish_time(const std::string& ref,
                                              std::uint64_t version) const {
  const auto it = publish_time_.find(event_key(ref, version));
  if (it == publish_time_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Scenario::false_negatives_beyond(
    const std::unordered_map<std::string, std::uint64_t>& snapshot) const {
  std::unordered_map<std::string, std::uint64_t> delivered;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (const auto& note : clients_[c]->notifications()) {
      delivered[expect_key(c, note.event)] += 1;
    }
  }
  std::uint64_t missing = 0;
  for (const auto& [key, expected_count] : expected_) {
    const auto prior = snapshot.find(key);
    const std::uint64_t prior_count =
        prior == snapshot.end() ? 0 : prior->second;
    if (expected_count <= prior_count) continue;
    const auto got = delivered.find(key);
    const std::uint64_t got_count =
        got == delivered.end() ? 0 : got->second;
    // Deliveries first satisfy the pre-snapshot portion; only the
    // shortfall attributable to post-snapshot expectations counts.
    missing += expected_count - std::min(
        expected_count, std::max(got_count, prior_count));
  }
  return missing;
}

std::vector<std::string> Scenario::missing_keys_beyond(
    const std::unordered_map<std::string, std::uint64_t>& snapshot) const {
  std::unordered_map<std::string, std::uint64_t> delivered;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (const auto& note : clients_[c]->notifications()) {
      delivered[expect_key(c, note.event)] += 1;
    }
  }
  std::vector<std::string> keys;
  for (const auto& [key, expected_count] : expected_) {
    const auto prior = snapshot.find(key);
    const std::uint64_t prior_count =
        prior == snapshot.end() ? 0 : prior->second;
    if (expected_count <= prior_count) continue;
    const auto got = delivered.find(key);
    const std::uint64_t got_count =
        got == delivered.end() ? 0 : got->second;
    if (std::max(got_count, prior_count) >= expected_count) continue;
    keys.push_back(key + " (want " + std::to_string(expected_count) +
                   ", got " + std::to_string(got_count) + ")");
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Outcome Scenario::outcome() const {
  Outcome out;
  out.events_published = events_published_;
  std::unordered_map<std::string, std::uint64_t> delivered;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    for (const auto& note : clients_[c]->notifications()) {
      delivered[expect_key(c, note.event)] += 1;
      const auto pub = publish_time_.find(event_key(
          note.event.collection.str(), note.event.build_version));
      if (pub != publish_time_.end()) {
        out.notification_latency_ms.record(
            (note.at - pub->second).as_millis());
      }
    }
  }
  for (const auto& [key, expected_count] : expected_) {
    out.expected_notifications += expected_count;
    const auto got = delivered.find(key);
    const std::uint64_t got_count =
        got == delivered.end() ? 0 : got->second;
    out.delivered_matching += std::min(expected_count, got_count);
    if (got_count < expected_count) {
      out.false_negatives += expected_count - got_count;
    }
  }
  for (const auto& [key, got_count] : delivered) {
    const auto exp = expected_.find(key);
    const std::uint64_t expected_count =
        exp == expected_.end() ? 0 : exp->second;
    if (got_count > expected_count) {
      out.false_positives += got_count - expected_count;
    }
  }
  out.messages_sent = net_.stats().sent;
  out.bytes_sent = net_.stats().bytes_sent;
  out.bytes_copied = net_.stats().bytes_copied;
  out.bytes_shared = net_.stats().bytes_shared;

  std::uint64_t max_load = 0, total_load = 0;
  const std::size_t n = net_.node_count();
  for (std::size_t i = 1; i <= n; ++i) {
    const auto& ns = net_.node_stats(NodeId{static_cast<std::uint32_t>(i)});
    const std::uint64_t load = ns.sent + ns.received;
    max_load = std::max(max_load, load);
    total_load += load;
  }
  if (n > 0 && total_load > 0) {
    out.max_over_mean_node_load =
        static_cast<double>(max_load) /
        (static_cast<double>(total_load) / static_cast<double>(n));
  }

  // Latency truth: sim-time stages from the armed span tracker, then the
  // wall-clock stages the services keep out of the deterministic metric
  // path (match CPU per filtered event, journal group-commit fsync).
  out.latency.merge(tracker_.breakdown());
  for (const alerting::AlertingService* service : gsalert_) {
    out.latency.match_cpu_us.merge(service->match_cpu_us());
  }
  for (gsnet::GreenstoneServer* server : servers_) {
    if (const journal::Journal* j = server->journal()) {
      out.latency.fsync_us.merge(j->fsync_us());
    }
  }
  for (const gds::GdsServer* node : gds_tree_.nodes) {
    if (const journal::Journal* j = node->journal()) {
      out.latency.fsync_us.merge(j->fsync_us());
    }
  }
  return out;
}

void Scenario::collect_metrics(obs::MetricsRegistry& registry) const {
  net_.collect_metrics(registry);
  for (const gds::GdsServer* node : gds_tree_.nodes) {
    node->collect_metrics(registry);
  }
  for (const alerting::AlertingService* service : gsalert_) {
    service->collect_metrics(registry);
  }
  // Request/reply endpoints (see docs/TRANSPORT.md): each server hosts
  // its own correlator plus its GDS client's; alerting clients one each.
  const auto endpoint_metrics = [&registry](
                                    const std::string& node,
                                    const transport::EndpointStats& st) {
    const obs::Labels labels{{"node", node}};
    registry.counter("transport.endpoint.requests", labels) += st.requests;
    registry.counter("transport.endpoint.replies", labels) += st.replies;
    registry.counter("transport.endpoint.retransmits", labels) +=
        st.retransmits;
    registry.counter("transport.endpoint.timeouts", labels) += st.timeouts;
    registry.counter("transport.endpoint.cancelled", labels) += st.cancelled;
    registry.counter("transport.endpoint.late_replies", labels) +=
        st.late_replies;
  };
  for (gsnet::GreenstoneServer* server : servers_) {
    endpoint_metrics(server->name(), server->endpoint_stats());
    endpoint_metrics(server->name(), server->gds().endpoint_stats());
    server->mediator().collect_metrics(registry);
    endpoint_metrics(server->name(), server->mediator().endpoint_stats());
  }
  for (const alerting::Client* client : clients_) {
    endpoint_metrics(client->name(), client->endpoint_stats());
  }
  registry.counter("scenario.events_published") = events_published_;
  registry.gauge("scenario.servers") =
      static_cast<double>(servers_.size());
  registry.gauge("scenario.clients") =
      static_cast<double>(clients_.size());
  registry.gauge("scenario.tracked_subscriptions") =
      static_cast<double>(subs_.size());
}

}  // namespace gsalert::workload
