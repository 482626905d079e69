#include "workload/chaos_runner.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "journal/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "transport/dedup_window.h"
#include "workload/health.h"

namespace gsalert::workload {

namespace {

/// Cancellations are only issued inside windows this far clear of any
/// fault, so a cancel message cannot be silently lost (the paper models
/// cancellation as a local, synchronous act at the user's own server).
constexpr SimTime kCancelQuietWindow = SimTime::millis(600);

/// A notification for a cancelled subscription is only a violation when
/// the event was published this long after the cancel — inside the margin
/// the cancel message may legitimately still be in flight.
constexpr SimTime kCancelPropagationMargin = SimTime::millis(250);

constexpr std::size_t kMaxListedViolations = 8;

}  // namespace

// --- gds-exactly-once -------------------------------------------------------

/// Counts GDS broadcast deliveries per (destination server, origin, seq)
/// through the delivery observer hook; any count above one breaks the
/// §4.1 dedup guarantee (the bug the seed sweep must catch when dedup is
/// disabled).
class GdsExactlyOnceChecker : public sim::InvariantChecker {
 public:
  explicit GdsExactlyOnceChecker(Scenario& scenario) {
    for (gds::GdsServer* node : scenario.gds_tree().nodes) {
      node->set_delivery_observer(
          [this](const std::string& dst, const std::string& origin,
                 std::uint64_t seq) {
            counts_[dst + " <- " + origin + "#" + std::to_string(seq)] += 1;
          });
    }
  }

  std::string name() const override { return "gds-exactly-once"; }

  void check(std::vector<sim::Violation>& out) override {
    std::size_t over = 0;
    for (const auto& [key, count] : counts_) {
      if (count <= 1) continue;
      if (++over <= kMaxListedViolations) {
        out.push_back(sim::Violation{
            name(), "broadcast " + key + " delivered " +
                        std::to_string(count) + " times"});
      }
    }
    if (over > kMaxListedViolations) {
      out.push_back(sim::Violation{
          name(), "... and " +
                      std::to_string(over - kMaxListedViolations) +
                      " more duplicated deliveries"});
    }
  }

 private:
  std::map<std::string, std::uint64_t> counts_;  // ordered: stable output
};

// --- gds-tree-well-formed ---------------------------------------------------

/// Structural health of the directory tree at quiescence: no orphan
/// non-root nodes, no parent cycles other than the designed same-stratum
/// sibling ring (root failover), and every node that still serves
/// registered GS servers connected to the same component.
class TreeWellFormedChecker : public sim::InvariantChecker {
 public:
  explicit TreeWellFormedChecker(Scenario& scenario)
      : scenario_(scenario) {}

  std::string name() const override { return "gds-tree-well-formed"; }

  void check(std::vector<sim::Violation>& out) override {
    const auto& nodes = scenario_.gds_tree().nodes;
    if (nodes.empty()) return;
    sim::Network& net = scenario_.net();
    std::unordered_map<std::uint32_t, gds::GdsServer*> by_id;
    std::unordered_map<std::uint32_t, std::size_t> index_of;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      by_id[nodes[i]->id().value()] = nodes[i];
      index_of[nodes[i]->id().value()] = i;
    }

    std::vector<std::size_t> component(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) component[i] = i;
    std::function<std::size_t(std::size_t)> find_root =
        [&](std::size_t x) -> std::size_t {
      while (component[x] != x) {
        component[x] = component[component[x]];
        x = component[x];
      }
      return x;
    };

    for (gds::GdsServer* node : nodes) {
      if (!net.is_up(node->id())) continue;  // mid-fault check: skip down
      const NodeId parent = node->parent();
      if (!parent.valid()) {
        if (node->stratum() > 1) {
          out.push_back(sim::Violation{
              name(), node->name() + " (stratum " +
                          std::to_string(node->stratum()) +
                          ") has no parent"});
        }
        continue;
      }
      const auto parent_it = by_id.find(parent.value());
      if (parent_it == by_id.end()) continue;  // adopted external parent
      component[find_root(index_of[node->id().value()])] =
          find_root(index_of[parent.value()]);

      // Walk the parent chain from this node; a revisit is a cycle, which
      // is legal only for the stratum-2 sibling ring (all members on the
      // same stratum; broadcast dedup makes it harmless).
      std::vector<gds::GdsServer*> path{node};
      std::unordered_map<std::uint32_t, std::size_t> seen{{
          node->id().value(), 0}};
      gds::GdsServer* cursor = node;
      while (true) {
        const NodeId next = cursor->parent();
        if (!next.valid()) break;
        const auto it = by_id.find(next.value());
        if (it == by_id.end()) break;
        cursor = it->second;
        const auto [pos, fresh] =
            seen.try_emplace(cursor->id().value(), path.size());
        if (!fresh) {
          bool same_stratum = true;
          for (std::size_t i = pos->second; i < path.size(); ++i) {
            same_stratum =
                same_stratum && path[i]->stratum() == cursor->stratum();
          }
          if (!same_stratum) {
            out.push_back(sim::Violation{
                name(),
                "cross-stratum parent cycle through " + cursor->name()});
          }
          break;
        }
        path.push_back(cursor);
        if (path.size() > nodes.size() + 1) break;  // defensive bound
      }
    }

    // All nodes still serving registered GS servers must be mutually
    // reachable along parent edges, or broadcasts cannot span them.
    std::optional<std::size_t> serving_component;
    for (gds::GdsServer* node : nodes) {
      if (!net.is_up(node->id()) || node->registered_count() == 0) continue;
      const std::size_t root = find_root(index_of[node->id().value()]);
      if (!serving_component.has_value()) {
        serving_component = root;
      } else if (*serving_component != root) {
        out.push_back(sim::Violation{
            name(), node->name() +
                        " (with registered servers) is disconnected from "
                        "the main directory component"});
      }
    }
  }

 private:
  Scenario& scenario_;
};

// --- dangling-profile -------------------------------------------------------

/// Records every notification the services send (via the notification
/// observer) and cross-checks them against subscription lifecycles: no
/// notification may stem from a profile cancelled before its event was
/// published, and none may reference a subscription the scenario never
/// created (e.g. a duplicate-subscribe leak).
class DanglingProfileChecker : public sim::InvariantChecker {
 public:
  DanglingProfileChecker(Scenario& scenario, bool check_false_positives)
      : scenario_(scenario),
        check_false_positives_(check_false_positives) {
    for (alerting::AlertingService* service : scenario.gsalert()) {
      service->set_notification_observer(
          [this](NodeId client, SubscriptionId sub,
                 const docmodel::Event& event) {
            sent_.push_back(Sent{client, sub, event.collection.str(),
                                 event.build_version,
                                 scenario_.net().now()});
          });
    }
  }

  std::string name() const override { return "dangling-profile"; }

  void check(std::vector<sim::Violation>& out) override {
    std::unordered_map<std::uint32_t, std::size_t> client_index;
    const auto& clients = scenario_.clients();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      client_index[clients[i]->id().value()] = i;
    }
    std::map<std::pair<std::size_t, SubscriptionId>, Scenario::SubRecord>
        records;
    for (const Scenario::SubRecord& record : scenario_.sub_records()) {
      if (record.id != 0) {
        records[{record.client_index, record.id}] = record;
      }
    }
    std::size_t listed = 0;
    auto add = [&](std::string detail) {
      if (++listed <= kMaxListedViolations) {
        out.push_back(sim::Violation{name(), std::move(detail)});
      }
    };
    for (const Sent& sent : sent_) {
      const auto client = client_index.find(sent.client.value());
      if (client == client_index.end()) continue;  // non-scenario client
      const auto record = records.find({client->second, sent.sub});
      if (record == records.end()) {
        add("notification for unknown subscription #" +
            std::to_string(sent.sub) + " at client " +
            std::to_string(client->second));
        continue;
      }
      if (record->second.active) continue;
      const SimTime published =
          scenario_.publish_time(sent.ref, sent.version)
              .value_or(sent.at);
      if (published > record->second.cancelled_at +
                          kCancelPropagationMargin) {
        add("subscription #" + std::to_string(sent.sub) +
            " cancelled at " +
            std::to_string(record->second.cancelled_at.as_millis()) +
            "ms but notified for " + sent.ref + " v" +
            std::to_string(sent.version) + " published at " +
            std::to_string(published.as_millis()) + "ms");
      }
    }
    if (listed > kMaxListedViolations) {
      out.push_back(sim::Violation{
          name(), "... and " +
                      std::to_string(listed - kMaxListedViolations) +
                      " more dangling notifications"});
    }
    if (check_false_positives_) {
      const Outcome outcome = scenario_.outcome();
      if (outcome.false_positives > 0) {
        out.push_back(sim::Violation{
            name(), std::to_string(outcome.false_positives) +
                        " notification(s) delivered that no ground-truth "
                        "expectation covers"});
      }
    }
  }

 private:
  struct Sent {
    NodeId client;
    SubscriptionId sub;
    std::string ref;
    std::uint64_t version;
    SimTime at;
  };

  Scenario& scenario_;
  bool check_false_positives_;
  std::vector<Sent> sent_;
};

// --- post-heal-delivery -----------------------------------------------------

/// "Delayed, not lost" (§7/E11): after every fault has healed and the
/// directory re-converged, newly published events must reach every
/// matching subscription, and the reliable outboxes must drain to empty.
class PostHealCompletenessChecker : public sim::InvariantChecker {
 public:
  explicit PostHealCompletenessChecker(Scenario& scenario)
      : scenario_(scenario) {}

  std::string name() const override { return "post-heal-delivery"; }

  void mark() {
    snapshot_ = scenario_.expectation_snapshot();
    marked_ = true;
  }

  void check(std::vector<sim::Violation>& out) override {
    if (!marked_) return;
    const std::uint64_t missing =
        scenario_.false_negatives_beyond(snapshot_);
    if (missing > 0) {
      std::string detail = std::to_string(missing) +
                           " post-heal notification(s) never delivered:";
      const auto keys = scenario_.missing_keys_beyond(snapshot_);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i == kMaxListedViolations) {
          detail += " ... and " +
                    std::to_string(keys.size() - kMaxListedViolations) +
                    " more";
          break;
        }
        detail += " [" + keys[i] + "]";
      }
      out.push_back(sim::Violation{name(), std::move(detail)});
    }
    const auto& services = scenario_.gsalert();
    for (std::size_t i = 0; i < services.size(); ++i) {
      if (services[i]->outbox_size() > 0) {
        out.push_back(sim::Violation{
            name(), "outbox at server " + std::to_string(i) +
                        " still holds " +
                        std::to_string(services[i]->outbox_size()) +
                        " unacked message(s)"});
      }
    }
    // Store-and-forward custody: once the directory re-converged, every
    // parked relay must have been flushed to a route (or expired and then
    // re-parked/delivered off a sender retransmit; either way the lots
    // must be empty at quiescence).
    for (gds::GdsServer* node : scenario_.gds_tree().nodes) {
      if (node->parked_count() > 0) {
        out.push_back(sim::Violation{
            name(), "gds node " + node->name() + " still parks " +
                        std::to_string(node->parked_count()) +
                        " relay(s) after heal"});
      }
    }
  }

 private:
  Scenario& scenario_;
  bool marked_ = false;
  std::unordered_map<std::string, std::uint64_t> snapshot_;
};

// --- delivery-no-duplicate --------------------------------------------------

/// A user must never see the same notification twice, whatever the wire
/// did: digest retransmits (same channel seq, same body, also across a
/// server restart), re-flushes of recovered waiting entries (a fresh
/// digest) and duplicated packets all have to collapse in the client's
/// dedup ledgers. Scans every client log for a repeated
/// (subscription, event) pair — across senders too, since chaos profiles
/// never migrate between servers.
class DeliveryDuplicateChecker : public sim::InvariantChecker {
 public:
  explicit DeliveryDuplicateChecker(Scenario& scenario)
      : scenario_(scenario) {}

  std::string name() const override { return "delivery-no-duplicate"; }

  void check(std::vector<sim::Violation>& out) override {
    std::size_t listed = 0;
    for (const alerting::Client* client : scenario_.clients()) {
      std::unordered_set<std::string> seen;
      for (const auto& received : client->notifications()) {
        const std::string key = std::to_string(received.subscription_id) +
                                "#" + received.event.id.str();
        if (seen.insert(key).second) continue;
        if (++listed <= kMaxListedViolations) {
          out.push_back(sim::Violation{
              name(), client->name() + " received subscription #" +
                          std::to_string(received.subscription_id) +
                          " event " + received.event.id.str() + " twice"});
        }
      }
    }
    if (listed > kMaxListedViolations) {
      out.push_back(sim::Violation{
          name(), "... and " +
                      std::to_string(listed - kMaxListedViolations) +
                      " more duplicate deliveries"});
    }
  }

 private:
  Scenario& scenario_;
};

// --- crash-durability -------------------------------------------------------

/// Snapshots a node's durable-by-contract state at the instant it
/// crashes (via the network's crash observer, before storage fault
/// semantics apply) and re-checks it at quiescence: under honest fsync
/// every journaled fact committed before the crash must still be there
/// after the restart. Registrations may only grow, the broadcast, event
/// and forward dedup windows must cover their pre-crash selves, and
/// subscriptions may shrink only by explicit cancellation. Only the
/// latest crash per node is kept — each recovery must preserve the state
/// of the most recent pre-crash commit.
class DurabilityChecker : public sim::InvariantChecker {
 public:
  explicit DurabilityChecker(Scenario& scenario) : scenario_(scenario) {
    scenario.net().set_crash_observer(
        [this](NodeId node) { snapshot(node); });
  }

  std::string name() const override { return "crash-durability"; }

  void check(std::vector<sim::Violation>& out) override {
    for (gds::GdsServer* node : scenario_.gds_tree().nodes) {
      const auto snap = gds_snaps_.find(node->id().value());
      if (snap == gds_snaps_.end()) continue;
      if (!scenario_.net().is_up(node->id())) continue;
      require_superset(out, node->name() + " registration",
                       snap->second.registered, node->registered_names());
      require_covers(out, node->name() + " broadcast-dedup",
                     node->broadcast_window(), snap->second.seen);
    }
    const auto& servers = scenario_.servers();
    const auto& services = scenario_.gsalert();
    for (std::size_t i = 0; i < servers.size() && i < services.size(); ++i) {
      const auto snap = svc_snaps_.find(servers[i]->id().value());
      if (snap == svc_snaps_.end()) continue;
      if (!scenario_.net().is_up(servers[i]->id())) continue;
      // A subscription may vanish only through an explicit cancel; the
      // scenario's lifecycle records say which ids those are.
      const auto cancelled = cancelled_ids(servers[i]->id());
      std::vector<std::string> want;
      for (const SubscriptionId id : snap->second.subs) {
        if (!cancelled.contains(id)) want.push_back("#" + std::to_string(id));
      }
      std::vector<std::string> have;
      for (const SubscriptionId id : services[i]->subscription_ids()) {
        std::string key = "#";
        key += std::to_string(id);
        have.push_back(std::move(key));
      }
      require_superset(out, servers[i]->name() + " subscription", want, have);
      require_covers(out, servers[i]->name() + " seen-event",
                     services[i]->event_window(), snap->second.seen);
      require_covers(out, servers[i]->name() + " processed-forward",
                     services[i]->forward_window(), snap->second.forwards);
      if (!snap->second.pending.empty()) {
        // Every delivery key pending at the crash must by now be on its
        // client or still pending (queued / unacked digest) — unless its
        // subscription was cancelled, which legally drops queue entries.
        std::vector<std::string> pending_want;
        for (const std::string& key : snap->second.pending) {
          const std::size_t a = key.find('#');
          const std::size_t b = key.find('#', a + 1);
          const SubscriptionId sub = static_cast<SubscriptionId>(
              std::stoull(key.substr(a + 1, b - a - 1)));
          if (!cancelled.contains(sub)) pending_want.push_back(key);
        }
        std::vector<std::string> pending_have =
            services[i]->delivery().pending_keys();
        append_delivered_keys(pending_have);
        require_superset(out, servers[i]->name() + " pending delivery",
                         pending_want, pending_have);
      }
    }
  }

 private:
  struct GdsSnap {
    std::vector<std::string> registered;
    transport::DedupWindow seen;
  };
  struct SvcSnap {
    std::vector<SubscriptionId> subs;
    transport::DedupWindow seen;
    transport::DedupWindow forwards;
    // "client#sub#origin#seq" delivery keys pending at the crash
    // (credit-managed runs only; unmanaged digests are fire-and-forget
    // and may legally vanish with a lost packet).
    std::vector<std::string> pending;
  };

  void snapshot(NodeId node) {
    for (gds::GdsServer* g : scenario_.gds_tree().nodes) {
      if (g->id() != node) continue;
      gds_snaps_[node.value()] =
          GdsSnap{g->registered_names(), g->broadcast_window()};
      return;
    }
    const auto& servers = scenario_.servers();
    const auto& services = scenario_.gsalert();
    for (std::size_t i = 0; i < servers.size() && i < services.size(); ++i) {
      if (servers[i]->id() != node) continue;
      svc_snaps_[node.value()] =
          SvcSnap{services[i]->subscription_ids(),
                  services[i]->event_window(),
                  services[i]->forward_window(),
                  services[i]->delivery().managed()
                      ? services[i]->delivery().pending_keys()
                      : std::vector<std::string>{}};
      return;
    }
  }

  /// Append a "client#sub#origin#seq" key for every notification any
  /// scenario client has recorded (same shape as
  /// DeliveryStage::pending_keys, so membership is a plain set lookup).
  void append_delivered_keys(std::vector<std::string>& out) const {
    for (const alerting::Client* client : scenario_.clients()) {
      for (const auto& received : client->notifications()) {
        out.push_back(std::to_string(client->id().value()) + "#" +
                      std::to_string(received.subscription_id) + "#" +
                      received.event.id.str());
      }
    }
  }

  std::unordered_set<SubscriptionId> cancelled_ids(NodeId server) const {
    std::unordered_set<SubscriptionId> out;
    const auto& clients = scenario_.clients();
    for (const Scenario::SubRecord& record : scenario_.sub_records()) {
      if (record.active || record.id == 0) continue;
      if (record.client_index >= clients.size()) continue;
      if (clients[record.client_index]->home() == server) {
        out.insert(record.id);
      }
    }
    return out;
  }

  void require_covers(std::vector<sim::Violation>& out,
                      const std::string& what,
                      const transport::DedupWindow& have,
                      const transport::DedupWindow& want) {
    transport::DedupWindow::Missing missing;
    if (have.covers(want, &missing)) return;
    out.push_back(sim::Violation{
        name(), what + " " + missing.origin + "#" +
                    std::to_string(missing.seq) +
                    " lost across crash-restart"});
  }

  void require_superset(std::vector<sim::Violation>& out,
                        const std::string& what,
                        const std::vector<std::string>& want,
                        const std::vector<std::string>& have) {
    const std::unordered_set<std::string> present{have.begin(), have.end()};
    std::size_t listed = 0;
    for (const std::string& key : want) {
      if (present.contains(key)) continue;
      if (++listed <= kMaxListedViolations) {
        out.push_back(sim::Violation{
            name(), what + " " + key + " lost across crash-restart"});
      }
    }
    if (listed > kMaxListedViolations) {
      out.push_back(sim::Violation{
          name(), "... and " +
                      std::to_string(listed - kMaxListedViolations) +
                      " more lost from " + what});
    }
  }

  Scenario& scenario_;
  std::unordered_map<std::uint32_t, GdsSnap> gds_snaps_;
  std::unordered_map<std::uint32_t, SvcSnap> svc_snaps_;
};

// --- harness ----------------------------------------------------------------

ChaosHarness::ChaosHarness(Scenario& scenario, ChaosHarnessOptions options)
    : scenario_(scenario) {
  // Arm the flight recorder for the harness's lifetime. When this is the
  // first sink of the session, restart the span-id allocator so a seed
  // replay produces byte-identical ids (ChaosReplay depends on it);
  // when a tracer is already installed (a bench's --trace-out), leave
  // the allocator alone and just join the session.
  if (!obs::active()) obs::reset_ids();
  obs::add_sink(&recorder_);
  set_log_observer([this](LogLevel /*level*/, SimTime now,
                          const std::string& component,
                          const std::string& message) {
    recorder_.note(now, component, message);
  });
  if (options.full_checks) {
    assert(scenario.config().strategy == Strategy::kGsAlert);
    exactly_once_ =
        registry_.add(std::make_unique<GdsExactlyOnceChecker>(scenario));
    registry_.add(std::make_unique<TreeWellFormedChecker>(scenario));
    registry_.add(std::make_unique<DanglingProfileChecker>(
        scenario, options.check_false_positives));
    post_heal_ =
        registry_.add(std::make_unique<PostHealCompletenessChecker>(
            scenario));
    registry_.add(std::make_unique<DurabilityChecker>(scenario));
    registry_.add(std::make_unique<DeliveryDuplicateChecker>(scenario));
  }
  registry_.add(
      std::make_unique<sim::WireConservationChecker>(scenario.net()));
}

ChaosHarness::~ChaosHarness() {
  obs::remove_sink(&recorder_);
  set_log_observer(nullptr);
  scenario_.net().set_crash_observer({});
  for (gds::GdsServer* node : scenario_.gds_tree().nodes) {
    node->set_delivery_observer({});
  }
  for (alerting::AlertingService* service : scenario_.gsalert()) {
    service->set_notification_observer({});
  }
}

sim::ChaosConfig ChaosHarness::fill_targets(Scenario& scenario,
                                            sim::ChaosConfig config) {
  for (gds::GdsServer* node : scenario.gds_tree().nodes) {
    config.crash_targets.push_back(node->id());
    config.partition_units.push_back({node->id()});
    if (node->parent().valid()) {
      config.block_candidates.emplace_back(node->id(), node->parent());
    }
  }
  std::unordered_map<std::uint32_t, std::vector<NodeId>> clients_by_home;
  for (alerting::Client* client : scenario.clients()) {
    clients_by_home[client->home().value()].push_back(client->id());
  }
  for (gsnet::GreenstoneServer* server : scenario.servers()) {
    config.crash_targets.push_back(server->id());
    // A client is never partitioned away from its home server: the user
    // and "their" server sit on the same side (paper §7 model).
    std::vector<NodeId> unit{server->id()};
    const auto clients = clients_by_home.find(server->id().value());
    if (clients != clients_by_home.end()) {
      unit.insert(unit.end(), clients->second.begin(),
                  clients->second.end());
    }
    config.partition_units.push_back(std::move(unit));
    if (server->gds().attached()) {
      config.block_candidates.emplace_back(server->id(),
                                           server->gds().gds_node());
    }
  }
  // Blocking the two hosts of a distributed collection forces the
  // aux-forward path onto retries / the GDS relay.
  for (const auto& [super, sub] : scenario.distributed_links()) {
    const NodeId a = scenario.net().find_node(super.host);
    const NodeId b = scenario.net().find_node(sub.host);
    if (a.valid() && b.valid() && a != b) {
      config.block_candidates.emplace_back(a, b);
    }
  }
  // Targeted latency-spike candidates: the links the protocols actually
  // depend on (tree edges, server->GDS attachments).
  for (gds::GdsServer* node : scenario.gds_tree().nodes) {
    if (node->parent().valid()) {
      config.spike_link_candidates.emplace_back(node->id(), node->parent());
    }
  }
  for (gsnet::GreenstoneServer* server : scenario.servers()) {
    if (server->gds().attached()) {
      config.spike_link_candidates.emplace_back(server->id(),
                                                server->gds().gds_node());
    }
  }
  // Correlated regional failures: group the partition units (a server and
  // its clients always travel together) by the region of the unit's first
  // member. Grouping units — not raw node regions — preserves the §7
  // model: a client is never cut off from its home server.
  const sim::Topology* topo = scenario.net().topology();
  if (topo != nullptr && topo->regions >= 2) {
    config.regions.assign(topo->regions, {});
    for (const std::vector<NodeId>& unit : config.partition_units) {
      if (unit.empty()) continue;
      const std::size_t region = scenario.net().region_of(unit.front());
      config.regions[region].insert(config.regions[region].end(),
                                    unit.begin(), unit.end());
    }
  }
  return config;
}

const sim::ChaosSchedule& ChaosHarness::inject(std::uint64_t chaos_seed,
                                               sim::ChaosConfig config) {
  return inject_schedule(sim::ChaosSchedule::generate(
      fill_targets(scenario_, std::move(config)), chaos_seed));
}

const sim::ChaosSchedule& ChaosHarness::inject_schedule(
    sim::ChaosSchedule schedule) {
  schedule_ = std::move(schedule);
  injected_at_ = scenario_.net().now();
  schedule_.apply(scenario_.net());
  return schedule_;
}

void ChaosHarness::mark_healed() {
  if (post_heal_ != nullptr) post_heal_->mark();
}

// --- run protocol -----------------------------------------------------------

namespace {

ChaosReport run_protocol(const ChaosRunConfig& config,
                         const sim::ChaosSchedule* explicit_schedule) {
  ScenarioConfig sc;
  sc.strategy = Strategy::kGsAlert;
  sc.n_servers = config.n_servers;
  sc.gds_fanout = config.gds_fanout;
  sc.clients_per_server = config.clients_per_server;
  sc.seed = config.seed;
  sc.gds_dedup = config.gds_dedup;
  sc.journal_compact_bytes = config.journal_compact_bytes;
  sc.sim_topology = config.sim_topology;
  sc.adaptive_tree = config.adaptive_tree;
  if (config.managed_delivery) {
    // Small credit window so chaos actually stalls queues; capacity far
    // above chaos-scale load so nothing spills (a spilled entry would be
    // an honest loss the durability superset check must not count).
    sc.alerting.delivery.credits = 8;
    sc.alerting.delivery.queue_capacity = 4096;
    sc.alerting.delivery.default_window = SimTime::millis(200);
  }
  Scenario scenario{sc};
  scenario.net().storage_faults() = config.storage_faults;
  ChaosHarnessOptions harness_options;
  harness_options.full_checks = config.full_checks;
  ChaosHarness harness{scenario, harness_options};

  scenario.setup_collections();
  if (config.distributed_links > 0) {
    scenario.setup_distributed(config.distributed_links);
  }
  if (config.mediator_queries > 0) {
    scenario.setup_virtual_collection();
  }
  scenario.subscribe_all(config.profiles_per_client);
  scenario.settle(SimTime::seconds(3));
  // Harness setup steps the service refused (reported as violations).
  std::vector<sim::Violation> setup_failures;
  if (config.managed_delivery) {
    // Seeded mix of delivery policies across the acked subscriptions:
    // roughly a third each immediate / coalesce / digest, windows well
    // under the churn step so digests flush between publishes.
    Rng policy_rng{config.seed ^ 0xD311FE27ULL};
    std::unordered_map<std::uint32_t, alerting::AlertingService*> by_server;
    const auto& servers = scenario.servers();
    const auto& services = scenario.gsalert();
    for (std::size_t i = 0; i < servers.size() && i < services.size(); ++i) {
      by_server[servers[i]->id().value()] = services[i];
    }
    for (const Scenario::SubRecord& record : scenario.sub_records()) {
      if (record.id == 0) continue;
      alerting::Client* client = scenario.clients()[record.client_index];
      const auto service = by_server.find(client->home().value());
      if (service == by_server.end()) continue;
      alerting::DeliveryPolicy policy;
      switch (policy_rng.uniform_int(0, 2)) {
        case 1:
          policy.mode = alerting::DeliveryMode::kCoalesce;
          policy.window = SimTime::millis(
              100 + 50 * static_cast<std::uint64_t>(
                             policy_rng.uniform_int(0, 4)));
          break;
        case 2:
          policy.mode = alerting::DeliveryMode::kDigest;
          policy.window = SimTime::millis(
              200 + 100 * static_cast<std::uint64_t>(
                              policy_rng.uniform_int(0, 3)));
          break;
        default:
          break;  // immediate (still channel-managed: digest-of-one)
      }
      // Every acked subscription is still live here, before any churn.
      if (const Status set =
              service->second->set_delivery_policy(record.id, policy);
          !set) {
        setup_failures.push_back(
            {"delivery-policy", "subscription " + std::to_string(record.id) +
                                    ": " + set.error().str()});
      }
    }
  }
  for (int i = 0; i < config.warmup_publishes; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(1));

  const sim::ChaosSchedule& schedule =
      explicit_schedule != nullptr
          ? harness.inject_schedule(*explicit_schedule)
          : harness.inject(config.seed ^ 0xC4A05C4A05ULL, config.chaos);

  // Drive churn across the fault window. Derived from the same seed, so
  // the interleaving replays exactly.
  Rng drive{config.seed * 0x9E3779B97F4A7C15ULL + 1};
  const SimTime window =
      std::max(config.chaos.duration, schedule.last_end());
  const int steps = std::max(1, config.chaos_steps);
  for (int s = 0; s < steps; ++s) {
    scenario.settle(SimTime::micros(window.as_micros() / steps));
    const SimTime offset = scenario.net().now() - harness.injected_at();
    if (drive.chance(0.3) &&
        schedule.quiet(offset, offset + kCancelQuietWindow)) {
      scenario.cancel_random();
    } else {
      scenario.publish_random_rebuild(2);
    }
  }

  // Heal: run past the last fault end, then give the directory time to
  // re-converge (registration refresh 2s, heartbeat sweep 0.5s, outbox
  // retry 1s).
  const SimTime heal_at =
      harness.injected_at() + schedule.last_end() + SimTime::millis(200);
  if (scenario.net().now() < heal_at) {
    scenario.settle(heal_at - scenario.net().now());
  }
  scenario.settle(SimTime::seconds(8));
  harness.mark_healed();

  for (int i = 0; i < config.final_publishes; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(500));
  }
  scenario.settle(SimTime::seconds(10));

  // Post-heal mediated fan-outs: with every fault healed, a scatter over
  // the virtual collection must come back complete — every member
  // answered within its deadline, no partial merges.
  std::vector<std::pair<int, gsnet::MediatedQueryResult>> mediated;
  if (config.mediator_queries > 0) {
    for (int q = 0; q < config.mediator_queries; ++q) {
      const std::size_t origin =
          static_cast<std::size_t>(q) % scenario.servers().size();
      scenario.mediated_query(origin, "v-union", "title:chaos",
                              [&mediated, q](gsnet::MediatedQueryResult r) {
                                mediated.emplace_back(q, std::move(r));
                              });
    }
    scenario.settle(SimTime::seconds(5));
  }

  ChaosReport report;
  report.violations = harness.check();
  report.violations.insert(report.violations.end(), setup_failures.begin(),
                           setup_failures.end());
  if (config.mediator_queries > 0) {
    if (mediated.size() != static_cast<std::size_t>(config.mediator_queries)) {
      report.violations.push_back(
          {"mediator-post-heal",
           "only " + std::to_string(mediated.size()) + " of " +
               std::to_string(config.mediator_queries) +
               " post-heal mediated queries completed"});
    }
    for (const auto& [q, result] : mediated) {
      if (!result.ok || result.partial ||
          result.peers_answered != result.peers_total) {
        report.violations.push_back(
            {"mediator-post-heal",
             "query " + std::to_string(q) + " incomplete after heal: " +
                 std::to_string(result.peers_answered) + "/" +
                 std::to_string(result.peers_total) + " answered, " +
                 std::to_string(result.peers_timed_out) + " timed out, " +
                 std::to_string(result.peers_failed) + " failed" +
                 (result.error.empty() ? "" : " (" + result.error + ")")});
      }
    }
  }
  report.schedule = harness.schedule();
  report.outcome = scenario.outcome();
  const std::size_t compact_floor =
      config.journal_compact_bytes != 0
          ? config.journal_compact_bytes
          : journal::JournalPolicy{}.compact_threshold_bytes;
  for (const auto& [node, storage] : scenario.net().storages()) {
    for (const std::string& file : storage->files()) {
      if (!file.ends_with(".log")) continue;
      const std::uint64_t log = storage->durable_size(file);
      const std::string snap = file.substr(0, file.size() - 4) + ".snap";
      const std::uint64_t trigger =
          std::max(compact_floor, storage->durable_size(snap));
      report.max_journal_log_bytes =
          std::max(report.max_journal_log_bytes, log);
      if (log > trigger) {
        report.max_journal_log_over_trigger =
            std::max(report.max_journal_log_over_trigger, log - trigger);
      }
    }
  }
  std::ostringstream trace;
  trace << "seed=" << config.seed << " servers=" << config.n_servers
        << " fanout=" << config.gds_fanout
        << " links=" << config.distributed_links
        << " dedup=" << (config.gds_dedup ? 1 : 0)
        << " topology=" << (config.sim_topology.empty() ? "uniform"
                                                        : config.sim_topology)
        << " adaptive=" << (config.adaptive_tree ? 1 : 0)
        << " mediator=" << config.mediator_queries << "\n"
        << "schedule:\n"
        << report.schedule.describe(scenario.net()) << "verdicts:\n"
        << harness.report();
  if (!report.violations.empty()) {
    // Turn the verdict into a causal narrative: each node's recent
    // spans and log lines around the failure, hop by hop — then the
    // numeric state of the world: per-node health and the full metrics
    // snapshot, so a dump answers "where was it wedged" on its own.
    trace << harness.flight_dump();
    trace << health_scoreboard(scenario);
    obs::MetricsRegistry snapshot;
    scenario.collect_metrics(snapshot);
    collect_health(scenario, snapshot);
    trace << "metrics snapshot:\n" << snapshot.text_snapshot();
  }
  report.trace = trace.str();
  return report;
}

}  // namespace

ChaosReport run_chaos(const ChaosRunConfig& config) {
  return run_protocol(config, nullptr);
}

ChaosReport run_chaos_with(const ChaosRunConfig& config,
                           const sim::ChaosSchedule& schedule) {
  return run_protocol(config, &schedule);
}

sim::ChaosSchedule minimize_schedule(const ChaosRunConfig& config,
                                     sim::ChaosSchedule schedule) {
  const auto violates = [&config](const sim::ChaosSchedule& s) {
    return !run_chaos_with(config, s).ok();
  };
  if (!violates(schedule)) return schedule;
  bool shrunk = true;
  while (shrunk && schedule.faults().size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < schedule.faults().size(); ++i) {
      sim::ChaosSchedule trial = schedule.without(i);
      if (violates(trial)) {
        schedule = std::move(trial);
        shrunk = true;
        break;
      }
    }
  }
  return schedule;
}

}  // namespace gsalert::workload
