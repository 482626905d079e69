// Delivery-stage tests: encode-once fan-out, credit backpressure with
// watermark hysteresis, coalesce/digest windows, spill policy, digest
// replay dedup at the client, and the digest-vs-immediate equivalence
// property (docs/DELIVERY.md).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "alerting/delivery.h"
#include "alerting/messages.h"
#include "docmodel/collection.h"
#include "docmodel/document.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "sim/network.h"
#include "wire/envelope.h"

namespace gsalert::alerting {
namespace {

using docmodel::CollectionConfig;
using docmodel::DataSet;
using docmodel::Document;

Document doc(DocumentId id, const std::string& title) {
  Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.metadata.add("creator", "hinze");
  d.terms = {"alerting", "digital"};
  return d;
}

CollectionConfig coll_config(const std::string& name) {
  CollectionConfig c;
  c.name = name;
  c.indexed_attributes = {"title", "creator"};
  return c;
}

/// One alerting server ("Hamilton") on a Figure-2 GDS tree with
/// `n_clients` local clients, subscribed via the in-process API so
/// subscription ids are deterministic across worlds.
struct World {
  sim::Network net{13};
  gds::GdsTree tree;
  gsnet::GreenstoneServer* server = nullptr;
  AlertingService* alerting = nullptr;
  std::vector<Client*> clients;

  explicit World(int n_clients, AlertingConfig config = {}) {
    tree = gds::build_figure2_tree(net);
    server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
    auto service = std::make_unique<AlertingService>(config);
    alerting = service.get();
    server->set_extension(std::move(service));
    server->attach_gds(tree.leaf_for(0)->id());
    for (int i = 0; i < n_clients; ++i) {
      auto* client = net.make_node<Client>("client-" + std::to_string(i));
      client->set_home(server->id());
      clients.push_back(client);
    }
    net.start();
    settle();
  }

  SubscriptionId subscribe(std::size_t client, const std::string& profile) {
    auto result = alerting->subscribe_local(clients[client]->id(), profile);
    EXPECT_TRUE(result.ok()) << profile;
    return result.ok() ? result.value() : 0;
  }

  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

// --- encode-once fan-out (perf_budget: max_notify_body_encodes_per_event) ---

TEST(DeliveryEncodeOnceTest, OneBodyEncodePerEventAtFanout1000) {
  World w{1000};
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    ASSERT_NE(w.subscribe(i, "host = hamilton"), 0u);
  }
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle(SimTime::seconds(1));
  // 1000 matches, one encode: every notification aliased the same frame.
  EXPECT_EQ(w.alerting->stats().notify_body_encodes, 1u);
  EXPECT_EQ(w.alerting->stats().notifications_sent, 1000u);
  for (Client* client : w.clients) {
    ASSERT_EQ(client->notifications().size(), 1u);
    EXPECT_EQ(client->notifications()[0].event.collection.str(),
              "Hamilton.A");
  }
}

// --- credit-based backpressure ----------------------------------------------

TEST(DeliveryBackpressureTest, StallsAtCreditsAndResumesAtWatermark) {
  AlertingConfig config;
  config.delivery.credits = 2;  // low watermark defaults to credits/2 = 1
  World w{1, config};
  // Type-scoped so each rebuild matches exactly one event (a rebuild also
  // raises document-delta events).
  ASSERT_NE(w.subscribe(0, "host = hamilton AND type = collection_rebuilt"),
            0u);
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle();
  w.clients[0]->clear_notifications();
  // A synchronous burst: six rebuilds before any ack can come back. Two
  // ride the credit window, the rest stall into the queue.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(w.server->rebuild_collection(
        "A", DataSet{{doc(10 + static_cast<DocumentId>(i), "T")}}));
  }
  EXPECT_GE(w.alerting->delivery().stats().stalls, 1u);
  EXPECT_GT(w.alerting->delivery().queue_depth_total(), 0u);
  w.settle(SimTime::seconds(3));
  // Acks drained the window back to the watermark and the queue flushed.
  EXPECT_GE(w.alerting->delivery().stats().resumes, 1u);
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
  EXPECT_EQ(w.clients[0]->notifications().size(), 6u);
}

// --- coalescing + digest windows --------------------------------------------

TEST(DeliveryCoalesceTest, WindowBatchesBurstIntoOneDigest) {
  World w{1};  // unmanaged: digests are fire-and-forget
  const SubscriptionId sub =
      w.subscribe(0, "host = hamilton AND type = collection_rebuilt");
  ASSERT_NE(sub, 0u);
  ASSERT_TRUE(w.alerting->set_delivery_policy(
      sub, DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(200)}));
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(3, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(4, "T")}}));
  EXPECT_EQ(w.clients[0]->notifications().size(), 0u);  // window open
  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.alerting->delivery().stats().digests_sent, 1u);
  EXPECT_EQ(w.alerting->delivery().stats().digest_notifications, 3u);
  EXPECT_EQ(w.clients[0]->digests_received(), 1u);
  EXPECT_EQ(w.clients[0]->notifications().size(), 3u);
}

TEST(DeliverySpillTest, CapacityDropsOldestCoalescibleFirst) {
  AlertingConfig config;
  config.delivery.queue_capacity = 2;
  World w{1, config};
  const SubscriptionId sub =
      w.subscribe(0, "host = hamilton AND type = collection_rebuilt");
  ASSERT_NE(sub, 0u);
  ASSERT_TRUE(w.alerting->set_delivery_policy(
      sub, DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(500)}));
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(3, "T")}}));
  ASSERT_TRUE(w.server->rebuild_collection("A", DataSet{{doc(4, "T")}}));
  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.alerting->delivery().stats().spilled, 1u);
  EXPECT_EQ(w.alerting->delivery().stats().max_queue_depth, 2u);
  // The two newest rebuilds survived; the oldest spilled.
  ASSERT_EQ(w.clients[0]->notifications().size(), 2u);
  std::set<std::uint64_t> versions;
  for (const auto& received : w.clients[0]->notifications()) {
    versions.insert(received.event.build_version);
  }
  EXPECT_FALSE(versions.contains(2u)) << "oldest rebuild not spilled";
}

// --- digest replay dedup at the client --------------------------------------

TEST(DeliveryDigestReplayTest, ClientDropsReplayedDigestWholesale) {
  sim::Network net{7};
  auto* client = net.make_node<Client>("c");
  auto* server = net.make_node<gsnet::GreenstoneServer>("srv");
  net.start();

  NotificationDigestBody body;
  body.digest_seq = 7;
  std::vector<std::vector<std::byte>> events;  // the entries' bytes
  for (std::uint64_t i = 1; i <= 2; ++i) {
    docmodel::Event event;
    event.id = {"srv", i};
    event.collection = {"srv", "A"};
    event.build_version = i;
    events.push_back(encode_event(event));
  }
  for (std::uint64_t i = 1; i <= 2; ++i) {
    body.entries.push_back({/*subscription_id=*/i, events[i - 1]});
  }
  wire::Writer w;
  body.encode(w);
  const wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotificationDigest, "srv", "c",
                          1, std::move(w));
  client->on_packet(server->id(), env.pack());
  client->on_packet(server->id(), env.pack());  // wire-level replay
  EXPECT_EQ(client->notifications().size(), 2u);
  EXPECT_EQ(client->digests_received(), 1u);
  EXPECT_EQ(client->digest_replays_dropped(), 1u);
}

// --- property: digest mode == immediate mode modulo dedup -------------------

/// Drive the same deterministic event sequence through an all-immediate
/// unmanaged world and a credit-managed world with mixed policies; the
/// delivered set (client, subscription, event) must be identical — no
/// lost, no phantom notifications.
TEST(DeliveryEquivalenceTest, DigestDeliverySetEqualsImmediateSet) {
  const auto drive = [](World& w) {
    ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                         DataSet{{doc(1, "T")}}));
    ASSERT_TRUE(w.server->add_collection(coll_config("B"),
                                         DataSet{{doc(2, "T")}}));
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(w.server->rebuild_collection(
          "A", DataSet{{doc(10 + static_cast<DocumentId>(round), "T")}}));
      if (round % 2 == 0) {
        ASSERT_TRUE(w.server->rebuild_collection(
            "B", DataSet{{doc(20 + static_cast<DocumentId>(round), "T")}}));
      }
      w.settle(SimTime::millis(round % 2 == 0 ? 40 : 350));
    }
    w.settle(SimTime::seconds(3));
  };
  const auto delivered = [](World& w) {
    std::set<std::string> keys;
    for (std::size_t i = 0; i < w.clients.size(); ++i) {
      for (const auto& received : w.clients[i]->notifications()) {
        keys.insert(std::to_string(i) + "#" +
                    std::to_string(received.subscription_id) + "#" +
                    received.event.id.str());
      }
    }
    return keys;
  };
  const std::vector<std::string> profiles = {
      "host = hamilton", "ref = hamilton.a", "creator = hinze",
      "host = hamilton AND type = collection_rebuilt"};

  World immediate{3};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      ASSERT_NE(immediate.subscribe(c, profiles[p]), 0u);
    }
  }
  drive(immediate);

  AlertingConfig managed_config;
  managed_config.delivery.credits = 3;
  World managed{3, managed_config};
  std::size_t n = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const SubscriptionId sub = managed.subscribe(c, profiles[p]);
      ASSERT_NE(sub, 0u);
      DeliveryPolicy policy;
      switch (n++ % 3) {
        case 1:
          policy = {DeliveryMode::kCoalesce, SimTime::millis(150)};
          break;
        case 2:
          policy = {DeliveryMode::kDigest, SimTime::millis(400)};
          break;
        default:
          break;  // immediate (digest-of-one on the managed channel)
      }
      ASSERT_TRUE(managed.alerting->set_delivery_policy(sub, policy));
    }
  }
  drive(managed);

  EXPECT_EQ(delivered(immediate), delivered(managed));
  EXPECT_FALSE(delivered(immediate).empty());
  EXPECT_GE(managed.alerting->delivery().stats().digests_sent, 1u);
  EXPECT_EQ(managed.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(managed.alerting->delivery().inflight(), 0u);
}

}  // namespace
}  // namespace gsalert::alerting
