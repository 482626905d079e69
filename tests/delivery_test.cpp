// Delivery-stage tests: encode-once fan-out, credit backpressure with
// watermark hysteresis, coalesce/digest windows, queued hits keeping the
// received slice, spill policy, digest replay dedup at the client,
// in-flight digests and a just-published local event across a server
// crash, and the digest-vs-immediate equivalence property
// (docs/DELIVERY.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
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
#include "journal/journal.h"
#include "sim/network.h"
#include "wire/codec.h"
#include "wire/envelope.h"
#include "wire/frame.h"

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

// A flooded event's bytes reach the stage as a slice of the GDS deliver
// body. Every hit keeps that slice: each queue entry (a managed
// digest-of-one or a coalescing hit) adds one reference to the deliver
// buffer and copies nothing, its enq record carries exactly the event's
// bytes, and once every digest is acked the queue lets the buffer go.
TEST(DeliveryCoalesceTest, QueuedHitsKeepTheReceivedSlice) {
  constexpr std::uint8_t kJDelivEnq = 76;
  AlertingConfig config;
  config.delivery.credits = 4;
  World w{3, config};
  std::vector<SubscriptionId> subs;
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    subs.push_back(w.subscribe(i, "host = london"));
    ASSERT_NE(subs.back(), 0u);
  }
  const DeliveryPolicy coalesce{DeliveryMode::kCoalesce,
                                SimTime::millis(100)};
  for (std::size_t i = 1; i < subs.size(); ++i) {
    ASSERT_TRUE(w.alerting->set_delivery_policy(subs[i], coalesce));
  }
  auto event = std::make_shared<docmodel::Event>();
  event->id = {"London", 7};
  event->collection = {"London", "E"};
  event->physical_origin = event->collection;
  event->docs = {doc(1, "T")};
  const std::vector<std::byte> encoded = encode_event(*event);
  // The event's bytes with 16 bytes of other content on either side.
  std::vector<std::byte> packet(encoded.size() + 32, std::byte{0xEE});
  std::copy(encoded.begin(), encoded.end(), packet.begin() + 16);
  const wire::Frame deliver{std::move(packet)};

  // Client 0 takes an immediate digest-of-one, clients 1 and 2 queue
  // behind their coalesce window: three entries, three references.
  for (std::size_t i = 0; i < w.clients.size(); ++i) {
    w.alerting->delivery().offer(
        w.clients[i]->id(), subs[i], i == 0 ? DeliveryPolicy{} : coalesce,
        event, deliver.slice(16, encoded.size()));
    EXPECT_EQ(deliver.use_count(), static_cast<long>(i) + 2) << i;
  }
  EXPECT_EQ(w.alerting->delivery().inflight(), 1u);
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 2u);
  w.server->commit_journal();

  std::size_t enqueued = 0;
  journal::scan_records(
      w.net.storage(w.server->id()).read("node.log"),
      [&](std::uint8_t type, std::span<const std::byte> payload,
          std::uint64_t) {
        if (type != kJDelivEnq) return;
        wire::Reader r{payload};
        (void)r.u32();  // client node
        (void)r.u64();  // entry seq
        (void)r.u64();  // subscription
        (void)r.u64();  // digest seq
        const std::span<const std::byte> bytes = r.view_bytes();
        EXPECT_TRUE(r.done());
        EXPECT_EQ(std::vector<std::byte>(bytes.begin(), bytes.end()),
                  encoded);
        ++enqueued;
      });
  EXPECT_EQ(enqueued, 3u);

  w.settle(SimTime::seconds(1));
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
  EXPECT_EQ(w.alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(deliver.use_count(), 1) << "something still holds the frame";
  for (Client* client : w.clients) {
    ASSERT_EQ(client->notifications().size(), 1u);
    EXPECT_EQ(client->notifications()[0].event.id, event->id);
    EXPECT_EQ(encode_event(client->notifications()[0].event), encoded);
  }
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

// --- in-flight digests across a server crash ---------------------------------

/// A client with a tap on its last hop: it records every digest that
/// reaches it (channel seq and body bytes) and, while `lose_digests` is
/// set, loses it right behind the tap, as a lossy link would.
class TappedClient : public Client {
 public:
  struct Arrival {
    std::uint64_t seq = 0;
    std::vector<std::byte> body;
  };

  void on_packet(NodeId from, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() &&
        env.value().type == wire::MessageType::kNotificationDigest) {
      const std::span<const std::byte> body = env.value().body;
      digests.push_back({env.value().msg_id, {body.begin(), body.end()}});
      if (lose_digests) return;
    }
    Client::on_packet(from, packet);
  }

  bool lose_digests = false;
  std::vector<Arrival> digests;
};

// The queue is the in-flight digests' only durable home: the digest
// channel journals nothing, and a restarted server rebuilds each unacked
// digest from its entries. Digest 1 reaches the client, whose ack dies
// with the server; digest 2 never reaches the client. After the restart
// and the heal both go out again under their original seqs with the
// bodies they first had, the client drops digest 1 as a replay and acks
// it, and each notification arrives once.
TEST(DeliveryCrashTest, InFlightDigestsSurviveACrashWithTheSameBytes) {
  sim::Network net{13};
  const gds::GdsTree tree = gds::build_figure2_tree(net);
  auto* server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  AlertingConfig config;
  config.delivery.credits = 4;
  auto owned = std::make_unique<AlertingService>(config);
  AlertingService* alerting = owned.get();
  server->set_extension(std::move(owned));
  server->attach_gds(tree.leaf_for(0)->id());
  auto* client = net.make_node<TappedClient>("client-0");
  client->set_home(server->id());
  net.set_path(server->id(), client->id(),
               {.latency = SimTime::millis(10)});
  net.start();
  const auto run = [&](SimTime d) { net.run_until(net.now() + d); };
  run(SimTime::millis(300));
  ASSERT_TRUE(
      server->add_collection(coll_config("A"), DataSet{{doc(1, "T")}}));
  run(SimTime::seconds(1));
  const auto sub = alerting->subscribe_local(
      client->id(), "host = hamilton AND type = collection_rebuilt");
  ASSERT_TRUE(sub.ok());

  ASSERT_TRUE(server->rebuild_collection("A", DataSet{{doc(2, "T")}}));
  run(SimTime::millis(15));  // digest 1 arrived, its ack is on the wire
  ASSERT_EQ(client->notifications().size(), 1u);
  client->lose_digests = true;
  ASSERT_TRUE(server->rebuild_collection("A", DataSet{{doc(3, "T")}}));
  ASSERT_EQ(alerting->delivery().inflight(), 2u);
  net.crash(server->id());  // the ack in flight to it is lost
  run(SimTime::millis(15));  // digest 2 arrived and was lost
  ASSERT_EQ(client->digests.size(), 2u);
  const std::vector<TappedClient::Arrival> first = client->digests;
  EXPECT_EQ(first[0].seq, 1u);
  EXPECT_EQ(first[1].seq, 2u);

  net.block_pair(server->id(), client->id());
  net.restart(server->id());
  EXPECT_EQ(alerting->delivery().inflight(), 2u);
  EXPECT_EQ(alerting->delivery().pending_keys().size(), 2u);
  run(SimTime::seconds(3));  // retransmits die on the blocked link
  client->lose_digests = false;
  client->digests.clear();
  net.unblock_pair(server->id(), client->id());
  run(SimTime::seconds(5));

  std::set<std::uint64_t> resent;
  for (const TappedClient::Arrival& arrival : client->digests) {
    ASSERT_TRUE(arrival.seq == 1 || arrival.seq == 2) << arrival.seq;
    EXPECT_EQ(arrival.body, first[arrival.seq - 1].body)
        << "digest " << arrival.seq << " changed its bytes across the crash";
    resent.insert(arrival.seq);
  }
  EXPECT_EQ(resent, (std::set<std::uint64_t>{1, 2}));
  EXPECT_GE(client->digest_replays_dropped(), 1u);
  EXPECT_EQ(client->digests_received(), 2u);
  std::set<std::string> keys;
  for (const auto& received : client->notifications()) {
    EXPECT_EQ(received.subscription_id, sub.value());
    EXPECT_TRUE(keys.insert(received.event.id.str()).second)
        << "event " << received.event.id.str() << " arrived twice";
  }
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_EQ(alerting->delivery().queue_depth_total(), 0u);
  EXPECT_EQ(alerting->delivery().inflight(), 0u);
  EXPECT_TRUE(alerting->delivery().pending_keys().empty());
}

// A local event raised from a control action (outside any server event)
// is durable once on_local_event returns: a crash at the same instant
// keeps its seen and enq records, so the restarted server still delivers
// the queued notification, once.
TEST(DeliveryCrashTest, LocalEventIsDurableWhenOnLocalEventReturns) {
  AlertingConfig config;
  config.delivery.credits = 4;
  World w{1, config};
  ASSERT_TRUE(w.server->add_collection(coll_config("A"),
                                       DataSet{{doc(1, "T")}}));
  w.settle();
  const SubscriptionId sub = w.subscribe(0, "host = hamilton");
  ASSERT_NE(sub, 0u);
  ASSERT_TRUE(w.alerting->set_delivery_policy(
      sub, DeliveryPolicy{DeliveryMode::kCoalesce, SimTime::millis(100)}));

  docmodel::Event event;
  event.id = {"Hamilton", 1000};
  event.type = docmodel::EventType::kCollectionRebuilt;
  event.collection = {"Hamilton", "A"};
  event.physical_origin = event.collection;
  event.build_version = 2;
  event.docs = {doc(2, "T")};
  w.net.schedule_control(SimTime::millis(10), [&] {
    w.server->extension()->on_local_event(event);
  });
  w.net.schedule_control(SimTime::millis(10),
                         [&] { w.net.crash(w.server->id()); });
  w.settle(SimTime::millis(50));
  EXPECT_TRUE(w.clients[0]->notifications().empty());
  w.net.restart(w.server->id());
  w.settle(SimTime::seconds(2));

  ASSERT_EQ(w.clients[0]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[0]->notifications()[0].event.id, event.id);
  EXPECT_EQ(w.clients[0]->notifications()[0].subscription_id, sub);
  transport::DedupWindow window = w.alerting->event_window();
  EXPECT_FALSE(window.insert("Hamilton", 1000)) << "seen record lost";
  EXPECT_EQ(w.alerting->delivery().inflight(), 0u);
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
