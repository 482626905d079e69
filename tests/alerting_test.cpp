#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "docmodel/collection.h"
#include "docmodel/document.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "journal/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "obs/tracer.h"
#include "sim/network.h"
#include "wire/codec.h"
#include "wire/envelope.h"

namespace gsalert::alerting {
namespace {

using docmodel::CollectionConfig;
using docmodel::DataSet;
using docmodel::Document;
using docmodel::EventType;

Document doc(DocumentId id, const std::string& title,
             const std::string& creator) {
  Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.metadata.add("creator", creator);
  d.terms = {"alerting", "digital"};
  return d;
}

CollectionConfig config(const std::string& name,
                        std::vector<CollectionRef> subs = {}) {
  CollectionConfig c;
  c.name = name;
  c.sub_collections = std::move(subs);
  c.indexed_attributes = {"title", "creator"};
  return c;
}

/// A client that also keeps the event bytes of every notification it
/// receives: a kNotification body, or each entry of a digest.
class BodyRecordingClient : public Client {
 public:
  void on_packet(NodeId from, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() && env.value().type == wire::MessageType::kNotification) {
      const std::span<const std::byte> body = env.value().body;
      bodies.emplace_back(body.begin(), body.end());
    } else if (env.ok() && env.value().type ==
                               wire::MessageType::kNotificationDigest) {
      auto digest = NotificationDigestBody::decode(env.value().body);
      if (digest.ok()) {
        for (const auto& entry : digest.value().entries) {
          bodies.emplace_back(entry.event.begin(), entry.event.end());
        }
      }
    }
    Client::on_packet(from, packet);
  }

  std::vector<std::vector<std::byte>> bodies;
};

/// A world of Greenstone servers with alerting, wired to a Figure-2-style
/// GDS tree, with one client per server.
struct World {
  sim::Network net{13};
  gds::GdsTree tree;
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<AlertingService*> alerting;
  std::vector<BodyRecordingClient*> clients;

  explicit World(int n_servers = 4, AlertingConfig config = {}) {
    tree = gds::build_figure2_tree(net);
    for (int i = 0; i < n_servers; ++i) {
      const std::string host =
          i == 0 ? "Hamilton" : (i == 1 ? "London" : "Host" + std::to_string(i));
      auto* server = net.make_node<gsnet::GreenstoneServer>(host);
      auto service = std::make_unique<AlertingService>(config);
      alerting.push_back(service.get());
      server->set_extension(std::move(service));
      server->attach_gds(tree.leaf_for(static_cast<std::size_t>(i))->id());
      servers.push_back(server);
      auto* client = net.make_node<BodyRecordingClient>("client-" + host);
      client->set_home(server->id());
      clients.push_back(client);
    }
    for (auto* a : servers) {
      for (auto* b : servers) {
        if (a != b) a->set_host_ref(b->name(), b->id());
      }
    }
    net.start();
    settle();
  }

  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

// --- federated alerting: event flooding over the GDS ---------------------------

TEST(FederatedAlertingTest, SubscribeAckRoundTrip) {
  World w;
  bool ok = false;
  SubscriptionId sub = 0;
  w.clients[2]->subscribe("host = hamilton",
                          [&](Result<SubscriptionId> r) {
                            ok = r.ok();
                            if (r.ok()) sub = r.value();
                          });
  w.settle();
  EXPECT_TRUE(ok);
  EXPECT_NE(sub, 0u);
  EXPECT_EQ(w.alerting[2]->subscription_count(), 1u);
}

TEST(FederatedAlertingTest, InvalidProfileRejectedInAck) {
  World w;
  bool called = false, ok = true;
  w.clients[0]->subscribe("host =", [&](Result<SubscriptionId> r) {
    called = true;
    ok = r.ok();
  });
  w.settle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(w.alerting[0]->subscription_count(), 0u);
}

TEST(FederatedAlertingTest, RemoteEventReachesSubscriberViaGds) {
  World w;
  // Client at Host2 subscribes; the profile stays at Host2's server.
  w.clients[2]->subscribe("host = hamilton AND type = collection_built");
  w.settle();
  // Hamilton builds a new collection -> event floods the GDS.
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "Digital Alerting", "hinze")}}));
  w.settle(SimTime::seconds(1));
  ASSERT_EQ(w.clients[2]->notifications().size(), 1u);
  const auto& n = w.clients[2]->notifications()[0];
  EXPECT_EQ(n.event.collection.str(), "Hamilton.A");
  EXPECT_EQ(n.event.type, EventType::kCollectionBuilt);
  ASSERT_EQ(n.event.docs.size(), 1u);
  EXPECT_EQ(n.event.docs[0].id, 1u);
  // Non-subscribers got nothing.
  EXPECT_TRUE(w.clients[1]->notifications().empty());
  EXPECT_TRUE(w.clients[3]->notifications().empty());
}

TEST(FederatedAlertingTest, LocalSubscriberNotifiedWithoutGdsRoundTrip) {
  World w;
  w.clients[0]->subscribe("host = hamilton");
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c")}}));
  w.settle();
  EXPECT_EQ(w.clients[0]->notifications().size(), 1u);
  // The event is filtered once at the origin: no duplicate from the GDS
  // echo (the GDS never delivers a broadcast back to its origin).
  EXPECT_EQ(w.alerting[0]->stats().duplicate_events, 0u);
}

TEST(FederatedAlertingTest, ContentProfileFiltersDocuments) {
  World w;
  w.clients[2]->subscribe("creator = hinze");
  w.clients[3]->subscribe("creator = nobody");
  w.settle();
  ASSERT_TRUE(w.servers[1]->add_collection(
      config("E"), DataSet{{doc(5, "Alerting", "hinze")}}));
  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
  EXPECT_TRUE(w.clients[3]->notifications().empty());
}

TEST(FederatedAlertingTest, CancelStopsNotificationsNoDanglingProfile) {
  World w;
  SubscriptionId sub = 0;
  w.clients[2]->subscribe("host = hamilton",
                          [&](Result<SubscriptionId> r) { sub = r.value(); });
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c")}}));
  w.settle(SimTime::seconds(1));
  ASSERT_EQ(w.clients[2]->notifications().size(), 1u);

  w.clients[2]->cancel(sub);
  w.settle();
  EXPECT_EQ(w.alerting[2]->subscription_count(), 0u);
  ASSERT_TRUE(w.servers[0]->rebuild_collection(
      "A", DataSet{{doc(1, "T", "c"), doc(2, "T2", "c")}}));
  w.settle(SimTime::seconds(1));
  // No further notification: the profile lived only at the client's own
  // server, so cancellation is complete — no dangling profile anywhere.
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
}

TEST(FederatedAlertingTest, EventsCarryOnlyFreshDocsOnRebuild) {
  World w;
  w.clients[2]->subscribe("doc_id IN [2]");
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c")}}));
  w.settle(SimTime::seconds(1));
  EXPECT_TRUE(w.clients[2]->notifications().empty());
  ASSERT_TRUE(w.servers[0]->rebuild_collection(
      "A", DataSet{{doc(1, "T", "c"), doc(2, "T2", "c")}}));
  w.settle(SimTime::seconds(1));
  ASSERT_EQ(w.clients[2]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[2]->notifications()[0].event.docs.size(), 1u);
}

// --- one flood per event -------------------------------------------------

// A rebuild that changes doc 1, adds doc 3 and drops doc 2 raises three
// events (rebuilt/fresh, documents-modified, documents-removed). Each is
// its own kEventAnnounce flood: every GDS node sees three broadcasts,
// every remote subscriber hears each event once, and each event's GDS
// deliveries hang off that event's own trace.
TEST(FloodPerEventTest, RebuildFloodsEachEventUnderItsOwnTrace) {
  World w;
  for (std::size_t i = 1; i < w.clients.size(); ++i) {
    w.clients[i]->subscribe("host = hamilton");
  }
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c"), doc(2, "T2", "c")}}));
  w.settle(SimTime::seconds(1));
  std::vector<std::uint64_t> seen_before;
  for (const gds::GdsServer* node : w.tree.nodes) {
    seen_before.push_back(node->stats().broadcasts_seen);
  }
  for (BodyRecordingClient* client : w.clients) client->clear_notifications();

  obs::Tracer tracer;
  obs::reset_ids();
  {
    const obs::ScopedSink sink{&tracer};
    ASSERT_TRUE(w.servers[0]->rebuild_collection(
        "A", DataSet{{doc(1, "T changed", "c"), doc(3, "T3", "c")}}));
    w.settle(SimTime::seconds(1));
  }

  EXPECT_EQ(w.alerting[0]->stats().events_published, 4u);
  for (std::size_t n = 0; n < w.tree.nodes.size(); ++n) {
    EXPECT_EQ(w.tree.nodes[n]->stats().broadcasts_seen - seen_before[n], 3u)
        << w.tree.nodes[n]->name();
  }
  for (std::size_t i = 1; i < w.clients.size(); ++i) {
    std::set<std::string> events;
    for (const auto& n : w.clients[i]->notifications()) {
      EXPECT_TRUE(events.insert(n.event.id.str()).second)
          << w.clients[i]->name() << " heard " << n.event.id.str() << " twice";
    }
    EXPECT_EQ(events.size(), 3u) << w.clients[i]->name();
    EXPECT_EQ(w.alerting[i]->stats().events_received, 4u);
    EXPECT_EQ(w.alerting[i]->stats().duplicate_events, 0u);
  }
  // One publish span (a trace root) per event, and each trace holds one
  // gds-deliver per receiving server.
  std::set<std::uint64_t> traces;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name == "publish" && span.node == "Hamilton") {
      traces.insert(span.trace_id);
    }
  }
  ASSERT_EQ(traces.size(), 3u);
  for (const std::uint64_t trace : traces) {
    std::size_t delivers = 0;
    for (const obs::Span& span : tracer.spans()) {
      if (span.name == "gds-deliver" && span.trace_id == trace) ++delivers;
    }
    EXPECT_EQ(delivers, w.servers.size() - 1) << "trace " << trace;
  }
}

// --- distributed collections: the Figure 3 hybrid flow -----------------------------

struct Figure3World : World {
  Figure3World() : World(4) {
    // London.E exists; Hamilton.D includes it as a distributed sub.
    EXPECT_TRUE(servers[1]->add_collection(
        config("E"), DataSet{{doc(5, "Old E doc", "x")}}));
    EXPECT_TRUE(servers[0]->add_collection(
        config("D", {CollectionRef{"London", "E"}}),
        DataSet{{doc(4, "D doc", "y")}}));
    settle(SimTime::seconds(2));  // aux profile installed + acked
  }
};

TEST(HybridAlertingTest, AuxProfileInstalledAtSubHost) {
  Figure3World w;
  const auto supers = w.alerting[1]->aux_profiles_for("E");
  ASSERT_EQ(supers.size(), 1u);
  EXPECT_EQ(supers[0].str(), "Hamilton.D");
  EXPECT_EQ(w.alerting[0]->outbox_size(), 0u);  // add was acked
}

TEST(HybridAlertingTest, SubRebuildNotifiesSuperSubscribers) {
  Figure3World w;
  // A user watching Hamilton.D — without knowing E exists (transparency).
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New E doc", "z")}}));
  w.settle(SimTime::seconds(2));
  ASSERT_EQ(w.clients[2]->notifications().size(), 1u);
  const docmodel::Event& e = w.clients[2]->notifications()[0].event;
  EXPECT_EQ(e.collection.str(), "Hamilton.D");   // renamed origin
  EXPECT_EQ(e.physical_origin.str(), "London.E");  // physical source kept
  EXPECT_EQ(e.via, (std::vector<std::string>{"London.E"}));
  ASSERT_EQ(e.docs.size(), 1u);
  EXPECT_EQ(e.docs[0].id, 6u);
  EXPECT_EQ(w.alerting[0]->stats().renames, 1u);
  EXPECT_EQ(w.alerting[1]->stats().aux_forwards, 1u);
}

TEST(HybridAlertingTest, SubscribersOfSubStillSeeOriginalEvent) {
  Figure3World w;
  // London.E is also an independent public collection; its subscribers
  // get the *original* (un-renamed) event.
  w.clients[3]->subscribe("ref = london.e");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New E doc", "z")}}));
  w.settle(SimTime::seconds(2));
  ASSERT_EQ(w.clients[3]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[3]->notifications()[0].event.collection.str(),
            "London.E");
}

TEST(HybridAlertingTest, BothSubAndSuperSubscribersNotifiedDistinctly) {
  Figure3World w;
  w.clients[2]->subscribe("ref = hamilton.d OR ref = london.e");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New E doc", "z")}}));
  w.settle(SimTime::seconds(2));
  // Two distinct announcements: London.E (original) and Hamilton.D
  // (renamed), each matching once.
  EXPECT_EQ(w.clients[2]->notifications().size(), 2u);
}

TEST(HybridAlertingTest, RenameCascadeWorksOnEachEventOfARebuild) {
  Figure3World w;
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  const std::uint64_t published = w.alerting[1]->stats().events_published;
  // Change doc 5 and add doc 6: the rebuild of E raises two events
  // (rebuilt/fresh + documents-modified), each flooded on its own...
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Changed E doc", "x"), doc(6, "New E doc", "z")}}));
  w.settle(SimTime::seconds(2));
  EXPECT_EQ(w.alerting[1]->stats().events_published - published, 2u);
  // ...and forwarded to Hamilton individually, where each was renamed to
  // Hamilton.D and re-broadcast — the cascade is per event.
  EXPECT_EQ(w.alerting[1]->stats().aux_forwards, 2u);
  EXPECT_EQ(w.alerting[0]->stats().renames, 2u);
  ASSERT_EQ(w.clients[2]->notifications().size(), 2u);
  for (const auto& n : w.clients[2]->notifications()) {
    EXPECT_EQ(n.event.collection.str(), "Hamilton.D");
    EXPECT_EQ(n.event.physical_origin.str(), "London.E");
    EXPECT_EQ(n.event.via, (std::vector<std::string>{"London.E"}));
  }
}

TEST(HybridAlertingTest, RemovingSubLinkCancelsAuxProfile) {
  Figure3World w;
  ASSERT_TRUE(w.servers[0]->remove_sub_collection(
      "D", CollectionRef{"London", "E"}));
  w.settle(SimTime::seconds(1));
  EXPECT_TRUE(w.alerting[1]->aux_profiles_for("E").empty());

  // Rebuilding E no longer produces a Hamilton.D event.
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(2));
  EXPECT_TRUE(w.clients[2]->notifications().empty());
}

TEST(HybridAlertingTest, RemovingSuperCollectionCancelsAuxProfile) {
  Figure3World w;
  ASSERT_TRUE(w.servers[0]->remove_collection("D"));
  w.settle(SimTime::seconds(1));
  EXPECT_TRUE(w.alerting[1]->aux_profiles_for("E").empty());
}

TEST(HybridAlertingTest, CascadedDistributedCollections) {
  // Host2.X includes Hamilton.D which includes London.E: a rebuild of E
  // must surface as events for D AND X (two renames).
  Figure3World w;
  ASSERT_TRUE(w.servers[2]->add_collection(
      config("X", {CollectionRef{"Hamilton", "D"}}), DataSet{}));
  w.settle(SimTime::seconds(2));
  w.clients[3]->subscribe("ref = host2.x");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(3));
  ASSERT_EQ(w.clients[3]->notifications().size(), 1u);
  const docmodel::Event& e = w.clients[3]->notifications()[0].event;
  EXPECT_EQ(e.collection.str(), "Host2.X");
  EXPECT_EQ(e.physical_origin.str(), "London.E");
  EXPECT_EQ(e.via,
            (std::vector<std::string>{"London.E", "Hamilton.D"}));
}

TEST(HybridAlertingTest, CyclicSuperSubLinksDoNotLoopForever) {
  // D (Hamilton) includes E (London); make E also include D — a cycle in
  // the collection graph. Events must not rename endlessly.
  Figure3World w;
  ASSERT_TRUE(w.servers[1]->add_sub_collection(
      "E", CollectionRef{"Hamilton", "D"}));
  w.settle(SimTime::seconds(2));
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(5));
  // Exactly one rename E->D; the attempt to rename D->E again is cut at
  // Hamilton, where the renamed event's via-chain already contains
  // London.E.
  EXPECT_EQ(w.alerting[0]->stats().renames, 1u);
  EXPECT_GE(w.alerting[0]->stats().rename_loops_cut, 1u);
  EXPECT_LE(w.alerting[0]->stats().events_published, 2u);
}

TEST(HybridAlertingTest, VirtualCollectionWithPrivateRemoteSub) {
  // Host2.V is virtual (no own data) aggregating a *private* collection
  // London.P. Without the aux-profile mechanism no event would ever be
  // issued for V (paper §4.2's virtual/private discussion).
  World w;
  CollectionConfig p = config("P");
  p.is_public = false;
  ASSERT_TRUE(w.servers[1]->add_collection(p, DataSet{{doc(9, "P", "q")}}));
  ASSERT_TRUE(w.servers[2]->add_collection(
      config("V", {CollectionRef{"London", "P"}}), DataSet{}));
  w.settle(SimTime::seconds(2));
  w.clients[3]->subscribe("ref = host2.v");
  w.settle();
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "P", DataSet{{doc(9, "P", "q"), doc(10, "P2", "q")}}));
  w.settle(SimTime::seconds(2));
  ASSERT_EQ(w.clients[3]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[3]->notifications()[0].event.collection.str(),
            "Host2.V");
}

// --- §7: partitions — delayed, not lost ----------------------------------------------

TEST(RecoveryTest, AuxProfileInstallSurvivesPartition) {
  World w;
  ASSERT_TRUE(w.servers[1]->add_collection(
      config("E"), DataSet{{doc(5, "E", "x")}}));
  // Partition Hamilton from London BEFORE D is created.
  w.net.block_pair(w.servers[0]->id(), w.servers[1]->id());
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("D", {CollectionRef{"London", "E"}}), DataSet{}));
  w.settle(SimTime::seconds(3));
  EXPECT_TRUE(w.alerting[1]->aux_profiles_for("E").empty());
  EXPECT_GE(w.alerting[0]->outbox_size(), 1u);  // queued, retrying

  w.net.unblock_pair(w.servers[0]->id(), w.servers[1]->id());
  w.settle(SimTime::seconds(3));
  EXPECT_EQ(w.alerting[1]->aux_profiles_for("E").size(), 1u);
  EXPECT_EQ(w.alerting[0]->outbox_size(), 0u);
  EXPECT_GT(w.alerting[0]->channel_stats().retransmits, 0u);
}

TEST(RecoveryTest, ForwardedEventDelayedNotLostAcrossPartition) {
  Figure3World w;
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  // Sever the Hamilton-London GS link, then rebuild E.
  w.net.block_pair(w.servers[0]->id(), w.servers[1]->id());
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(5));
  // The notification for Hamilton.D cannot be produced yet…
  EXPECT_TRUE(w.clients[2]->notifications().empty());
  // …but as soon as the connection is re-established it arrives (§7).
  w.net.unblock_pair(w.servers[0]->id(), w.servers[1]->id());
  w.settle(SimTime::seconds(5));
  ASSERT_EQ(w.clients[2]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[2]->notifications()[0].event.collection.str(),
            "Hamilton.D");
}

TEST(RecoveryTest, AuxCancelAppliedAfterHeal_NoFalsePositives) {
  // §7's dangling-profile case 3: the super host cancels while the link is
  // down. After the heal, the cancel must apply before any spurious
  // notification escapes to users of Hamilton.D.
  Figure3World w;
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  w.net.block_pair(w.servers[0]->id(), w.servers[1]->id());
  // Super side cancels the sub link while partitioned.
  ASSERT_TRUE(w.servers[0]->remove_sub_collection(
      "D", CollectionRef{"London", "E"}));
  w.settle(SimTime::seconds(3));
  // London still holds the (now stale) aux profile.
  EXPECT_EQ(w.alerting[1]->aux_profiles_for("E").size(), 1u);

  w.net.unblock_pair(w.servers[0]->id(), w.servers[1]->id());
  w.settle(SimTime::seconds(3));
  EXPECT_TRUE(w.alerting[1]->aux_profiles_for("E").empty());

  // Rebuild E afterwards: no notification for Hamilton.D.
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(3));
  EXPECT_TRUE(w.clients[2]->notifications().empty());
}

TEST(RecoveryTest, DuplicateForwardsQuenchedAfterRetries) {
  Figure3World w;
  w.clients[2]->subscribe("ref = hamilton.d");
  w.settle();
  // Lossy path between Hamilton and London: forwards and acks both drop
  // sometimes, forcing retransmissions.
  w.net.set_path(w.servers[0]->id(), w.servers[1]->id(),
                 {.latency = SimTime::millis(10), .loss = 0.5});
  ASSERT_TRUE(w.servers[1]->rebuild_collection(
      "E", DataSet{{doc(5, "Old E doc", "x"), doc(6, "New", "z")}}));
  w.settle(SimTime::seconds(30));
  // Exactly one notification despite retries (dedup at the super host).
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
  EXPECT_EQ(w.alerting[0]->stats().renames, 1u);
}

// --- durability / profile migration ------------------------------------------

TEST(ProfileSnapshotTest, RoundTripPreservesFiltering) {
  World w;
  w.clients[2]->subscribe("host = hamilton");
  w.clients[2]->subscribe("creator = hinze");
  w.settle();
  ASSERT_EQ(w.alerting[2]->subscription_count(), 2u);

  const std::vector<std::byte> snapshot = w.alerting[2]->snapshot_state();
  // Restore into a DIFFERENT server's service: the user's profiles move
  // with them (challenge 3 — unified access at varying network nodes).
  ASSERT_TRUE(w.alerting[3]->restore_state(snapshot));
  EXPECT_EQ(w.alerting[3]->subscription_count(), 2u);

  // Events now notify through the new home server too (the client node is
  // recorded in the snapshot).
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c")}}));
  w.settle(SimTime::seconds(1));
  // Same client, notified via both servers (old + migrated registration).
  EXPECT_EQ(w.clients[2]->notifications().size(), 2u);
}

TEST(ProfileSnapshotTest, AuxRegistriesSurvive) {
  Figure3World w;
  const std::vector<std::byte> snapshot = w.alerting[1]->snapshot_state();
  AlertingService fresh;
  // restore_state does not need attach() for pure state inspection.
  ASSERT_TRUE(fresh.restore_state(snapshot));
  ASSERT_EQ(fresh.aux_profiles_for("E").size(), 1u);
  EXPECT_EQ(fresh.aux_profiles_for("E")[0].str(), "Hamilton.D");
}

TEST(ProfileSnapshotTest, MalformedSnapshotRejectedAtomically) {
  World w;
  w.clients[0]->subscribe("host = hamilton");
  w.settle();
  ASSERT_EQ(w.alerting[0]->subscription_count(), 1u);
  std::vector<std::byte> junk{std::byte{0xFF}, std::byte{0x01}};
  EXPECT_FALSE(w.alerting[0]->restore_state(junk));
  // Old state intact.
  EXPECT_EQ(w.alerting[0]->subscription_count(), 1u);

  // Truncated-but-plausible snapshot also rejected.
  std::vector<std::byte> snapshot = w.alerting[0]->snapshot_state();
  snapshot.pop_back();
  EXPECT_FALSE(w.alerting[0]->restore_state(snapshot));
  EXPECT_EQ(w.alerting[0]->subscription_count(), 1u);
}

// --- §6: anonymous point-to-point via the GDS naming service ----------------

TEST(AnonymousRelayTest, HybridFlowWorksWithoutDirectHostRefs) {
  // The servers never learn each other's addresses: aux profiles, event
  // forwards and their acks all travel the GDS relay by name.
  sim::Network net{31};
  gds::GdsTree tree = gds::build_figure2_tree(net);
  auto* hamilton = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  auto* london = net.make_node<gsnet::GreenstoneServer>("London");
  auto ham = std::make_unique<AlertingService>();
  auto lon = std::make_unique<AlertingService>();
  auto* ham_svc = ham.get();
  auto* lon_svc = lon.get();
  hamilton->set_extension(std::move(ham));
  london->set_extension(std::move(lon));
  hamilton->attach_gds(tree.nodes[2]->id());
  london->attach_gds(tree.nodes[5]->id());
  // NOTE: no set_host_ref in either direction.
  auto* user = net.make_node<Client>("user");
  user->set_home(hamilton->id());
  net.start();
  net.run_until(SimTime::millis(200));

  ASSERT_TRUE(london->add_collection(config("E"),
                                     DataSet{{doc(5, "E1", "x")}}));
  ASSERT_TRUE(hamilton->add_collection(
      config("D", {CollectionRef{"London", "E"}}), DataSet{}));
  net.run_until(net.now() + SimTime::seconds(3));
  // Aux profile installed over the relay and acked back over the relay.
  EXPECT_EQ(lon_svc->aux_profiles_for("E").size(), 1u);
  EXPECT_EQ(ham_svc->outbox_size(), 0u);

  user->subscribe("ref = hamilton.d");
  net.run_until(net.now() + SimTime::millis(300));
  ASSERT_TRUE(london->rebuild_collection(
      "E", DataSet{{doc(5, "E1", "x"), doc(6, "E2", "y")}}));
  net.run_until(net.now() + SimTime::seconds(3));
  ASSERT_EQ(user->notifications().size(), 1u);
  EXPECT_EQ(user->notifications()[0].event.collection.str(), "Hamilton.D");
  EXPECT_EQ(lon_svc->outbox_size(), 0u);  // forward acked via relay
}

TEST(AnonymousRelayTest, RelayedCancelRemovesAuxProfile) {
  sim::Network net{32};
  gds::GdsTree tree = gds::build_tree(net, 2, 2);
  auto* hamilton = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  auto* london = net.make_node<gsnet::GreenstoneServer>("London");
  auto lon = std::make_unique<AlertingService>();
  auto* lon_svc = lon.get();
  hamilton->set_extension(std::make_unique<AlertingService>());
  london->set_extension(std::move(lon));
  hamilton->attach_gds(tree.nodes[1]->id());
  london->attach_gds(tree.nodes[2]->id());
  net.start();
  net.run_until(SimTime::millis(200));
  ASSERT_TRUE(london->add_collection(config("E"), DataSet{}));
  ASSERT_TRUE(hamilton->add_collection(
      config("D", {CollectionRef{"London", "E"}}), DataSet{}));
  net.run_until(net.now() + SimTime::seconds(3));
  ASSERT_EQ(lon_svc->aux_profiles_for("E").size(), 1u);
  ASSERT_TRUE(hamilton->remove_sub_collection(
      "D", CollectionRef{"London", "E"}));
  net.run_until(net.now() + SimTime::seconds(3));
  EXPECT_TRUE(lon_svc->aux_profiles_for("E").empty());
}

TEST(RecoveryTest, ServerRestartKeepsSubscriptions) {
  World w;
  w.clients[2]->subscribe("host = hamilton");
  w.settle();
  w.net.crash(w.servers[2]->id());
  w.net.restart(w.servers[2]->id());
  w.settle(SimTime::seconds(5));  // re-register with the GDS
  ASSERT_TRUE(w.servers[0]->add_collection(
      config("A"), DataSet{{doc(1, "T", "c")}}));
  w.settle(SimTime::seconds(2));
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
}

// --- dedup windows: loss is counted, state is bounded --------------------------

// Host2 is cut off from its GDS node while Hamilton publishes k events;
// after the heal Hamilton publishes once more. Host2's event window then
// holds k holes below Hamilton's newest seq, and nothing else lost
// anything: every GDS node saw every broadcast.
TEST(DedupGapTest, MissedFloodsAreCountedAtTheCutServerOnly) {
  World w;
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{}));
  w.settle();
  const NodeId host2 = w.servers[2]->id();
  const NodeId host2_gds = w.tree.leaf_for(2)->id();
  constexpr int kMissed = 3;
  w.net.block_pair(host2, host2_gds);
  for (int i = 0; i < kMissed; ++i) {
    ASSERT_TRUE(w.servers[0]->add_documents("A", {}));
    w.settle();
  }
  w.net.unblock_pair(host2, host2_gds);
  ASSERT_TRUE(w.servers[0]->add_documents("A", {}));
  w.settle(SimTime::seconds(1));

  obs::MetricsRegistry reg;
  for (std::size_t i = 0; i < w.servers.size(); ++i) {
    w.alerting[i]->collect_metrics(reg);
    EXPECT_EQ(reg.gauge("alerting.event_gaps",
                        {{"server", w.servers[i]->name()}}),
              i == 2 ? kMissed : 0)
        << w.servers[i]->name();
  }
  EXPECT_EQ(w.alerting[2]->stats().events_received, 2u);
  for (gds::GdsServer* node : w.tree.nodes) {
    node->collect_metrics(reg);
    EXPECT_EQ(reg.gauge("gds.dedup_gaps", {{"node", node->name()}}), 0)
        << node->name();
  }
}

// Encode once: a receiving server sends on the flooded bytes it received
// (a kEventAnnounce payload) as the notification body, so every body a
// client gets is encode_event of the event it decodes to, receivers
// encode nothing and the origin encodes once per event with hits. With
// managed delivery, a queued entry's journal record (type 76) carries the
// same bytes.
TEST(EncodeOnceTest, ReceiversSendOnTheFloodedBytes) {
  constexpr std::uint8_t kJDelivEnq = 76;
  for (const std::size_t credits : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("credits=" + std::to_string(credits));
    AlertingConfig cfg;
    cfg.delivery.credits = credits;
    World w{4, cfg};
    SubscriptionId at_host2 = 0;
    for (std::size_t i = 0; i < w.clients.size(); ++i) {
      w.clients[i]->subscribe("host = hamilton",
                              [&, i](Result<SubscriptionId> r) {
                                if (i == 2 && r.ok()) at_host2 = r.value();
                              });
    }
    w.settle();
    if (credits > 0) {
      // A coalescing subscription queues its hits, journaling each entry.
      ASSERT_TRUE(w.alerting[2]->set_delivery_policy(
          at_host2, {DeliveryMode::kCoalesce, SimTime::millis(50)}));
    }
    // One event, then a rebuild raising three: four kEventAnnounce floods.
    ASSERT_TRUE(w.servers[0]->add_collection(
        config("A"), DataSet{{doc(1, "Digital Alerting", "Hinze"),
                              doc(2, "T2", "c")}}));
    w.settle(SimTime::seconds(1));
    ASSERT_TRUE(w.servers[0]->rebuild_collection(
        "A", DataSet{{doc(1, "T changed", "c"), doc(3, "T3", "c")}}));
    w.settle(SimTime::seconds(1));
    ASSERT_EQ(w.tree.root()->stats().broadcasts_seen, 4u);

    for (const BodyRecordingClient* client : w.clients) {
      EXPECT_EQ(client->notifications().size(), 4u) << client->name();
      EXPECT_EQ(client->bodies.size(), 4u) << client->name();
      for (const std::vector<std::byte>& body : client->bodies) {
        auto event = decode_event(body);
        ASSERT_TRUE(event.ok()) << client->name();
        EXPECT_EQ(encode_event(event.value()), body) << client->name();
      }
    }
    EXPECT_EQ(w.alerting[0]->stats().notify_body_encodes, 4u);
    for (std::size_t i = 1; i < w.alerting.size(); ++i) {
      EXPECT_EQ(w.alerting[i]->stats().notify_body_encodes, 0u) << i;
      EXPECT_EQ(w.alerting[i]->stats().notifications_sent, 4u) << i;
    }
    if (credits == 0) continue;
    std::size_t enqueued = 0;
    journal::scan_records(
        w.net.storage(w.servers[2]->id()).read("node.log"),
        [&](std::uint8_t type, std::span<const std::byte> payload,
            std::uint64_t) {
          if (type != kJDelivEnq) return;
          wire::Reader r{payload};
          (void)r.u32();  // client node
          (void)r.u64();  // entry seq
          EXPECT_EQ(r.u64(), at_host2);
          EXPECT_EQ(r.u64(), 0u);  // digest seq: queued, not yet shipped
          const std::span<const std::byte> bytes = r.view_bytes();
          EXPECT_TRUE(r.done());
          auto event = decode_event(bytes);
          ASSERT_TRUE(event.ok());
          EXPECT_EQ(encode_event(event.value()),
                    std::vector<std::byte>(bytes.begin(), bytes.end()));
          ++enqueued;
        });
    EXPECT_EQ(enqueued, 4u);
  }
}

// A local event is encoded once at its origin: the same bytes are its
// notification body and its flood payload. With a coalescing subscription
// the hit is queued, not sent, so an event with a hit constructs exactly
// the writers of one without: its encoding, the broadcast body and the
// broadcast's packet header.
TEST(EncodeOnceTest, OriginEncodesALocalEventOnce) {
  AlertingConfig cfg;
  cfg.delivery.credits = 4;
  World w{2, cfg};
  SubscriptionId sub = 0;
  w.clients[0]->subscribe("ref = hamilton.a", [&](Result<SubscriptionId> r) {
    if (r.ok()) sub = r.value();
  });
  w.settle();
  ASSERT_NE(sub, 0u);
  ASSERT_TRUE(w.alerting[0]->set_delivery_policy(
      sub, {DeliveryMode::kCoalesce, SimTime::millis(50)}));
  const auto writers_for = [&](const std::string& coll, std::uint64_t seq) {
    docmodel::Event event;
    event.id = {"Hamilton", seq};
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = {"Hamilton", coll};
    event.physical_origin = event.collection;
    event.docs = {doc(1, "Digital Alerting", "Hinze")};
    wire::reset_writer_stats();
    w.servers[0]->extension()->on_local_event(event);
    return wire::writer_stats().writers;
  };
  const std::uint64_t without_hit = writers_for("B", 1001);
  const std::uint64_t with_hit = writers_for("A", 1002);
  EXPECT_EQ(without_hit, 3u);
  EXPECT_EQ(with_hit, without_hit) << "the hit encoded the event again";
  EXPECT_EQ(w.alerting[0]->stats().events_published, 2u);
  EXPECT_EQ(w.alerting[0]->stats().notify_body_encodes, 1u);
  w.settle(SimTime::seconds(1));
  ASSERT_EQ(w.clients[0]->bodies.size(), 1u);
  auto event = decode_event(w.clients[0]->bodies[0]);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event.value().id.seq, 1002u);
  EXPECT_EQ(w.clients[1]->notifications().size(), 0u);
}

// A long-running node keeps bounded state. Flooding 4N events leaves each
// GDS node's and server's snapshot size, and its dedup window's origin
// count, where N events left them — to within one window of seen records
// per origin (a window's holes are snapshotted as the seqs above them).
TEST(BoundedStateTest, SnapshotsStayFlatAsEventsGrow) {
  constexpr int kN = 5000;
  World w;
  for (auto* server : w.servers) {
    ASSERT_TRUE(server->add_collection(config("A"), DataSet{}));
  }
  w.settle();
  struct Sizes {
    std::vector<std::uint64_t> bytes;
    std::vector<std::size_t> origins;
  };
  const auto measure = [&] {
    Sizes sizes;
    for (gds::GdsServer* node : w.tree.nodes) {
      node->journal()->compact();
      sizes.bytes.push_back(w.net.storage(node->id()).durable_size("gds.snap"));
      sizes.origins.push_back(node->broadcast_window().origin_count());
    }
    for (std::size_t i = 0; i < w.servers.size(); ++i) {
      w.servers[i]->journal()->compact();
      sizes.bytes.push_back(
          w.net.storage(w.servers[i]->id()).durable_size("node.snap"));
      sizes.origins.push_back(w.alerting[i]->event_window().origin_count());
    }
    return sizes;
  };
  int published = 0;
  const auto publish_until = [&](int total) {
    while (published < total) {
      for (auto* server : w.servers) {
        ASSERT_TRUE(server->add_documents("A", {}));
        ++published;
      }
      w.settle(SimTime::millis(20));
    }
    w.settle(SimTime::seconds(1));
  };

  publish_until(kN);
  const Sizes after_n = measure();
  publish_until(4 * kN);
  const Sizes after_4n = measure();

  // A seen record as a snapshot entry, with the longest origin name.
  const std::uint64_t seen_record =
      journal::kEntryHeaderBytes + journal::str_wire("Hamilton") + 8;
  ASSERT_EQ(after_n.bytes.size(), after_4n.bytes.size());
  for (std::size_t i = 0; i < after_n.bytes.size(); ++i) {
    EXPECT_EQ(after_4n.origins[i], after_n.origins[i]) << "node " << i;
    EXPECT_EQ(after_n.origins[i], w.servers.size()) << "node " << i;
    const std::uint64_t slack =
        after_n.origins[i] * transport::DedupWindow::kWidth * seen_record;
    const std::uint64_t low = std::min(after_n.bytes[i], after_4n.bytes[i]);
    const std::uint64_t high = std::max(after_n.bytes[i], after_4n.bytes[i]);
    EXPECT_LE(high - low, slack)
        << "node " << i << ": snapshot " << after_n.bytes[i] << " B after "
        << kN << " events, " << after_4n.bytes[i] << " B after " << 4 * kN;
  }
  for (const AlertingService* service : w.alerting) {
    EXPECT_EQ(service->stats().events_received,
              static_cast<std::uint64_t>(4 * kN + w.servers.size()));
    EXPECT_EQ(service->event_window().gaps(), 0u);
  }
}

}  // namespace
}  // namespace gsalert::alerting
