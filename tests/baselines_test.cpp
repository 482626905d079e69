#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alerting/client.h"
#include "baselines/centralized.h"
#include "baselines/gs_flooding.h"
#include "baselines/profile_flooding.h"
#include "baselines/rendezvous.h"
#include "gsnet/greenstone_server.h"
#include "profiles/parser.h"
#include "sim/network.h"

namespace gsalert::baselines {
namespace {

using alerting::Client;
using docmodel::CollectionConfig;
using docmodel::DataSet;
using docmodel::Document;

/// "<prefix><i>" node names. Built by appending: GCC 12 at -O3 reports a
/// false -Wrestrict on `"H" + std::to_string(i)`.
std::string numbered(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

Document doc(DocumentId id) {
  Document d;
  d.id = id;
  d.metadata.add("title", "Doc " + std::to_string(id));
  d.terms = {"alerting"};
  return d;
}

CollectionConfig config(const std::string& name) {
  CollectionConfig c;
  c.name = name;
  c.indexed_attributes = {"title"};
  return c;
}

// --- B1 centralized -----------------------------------------------------

struct CentralWorld {
  sim::Network net{21};
  CentralServer* central;
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<CentralizedAlerting*> ext;
  std::vector<Client*> clients;

  explicit CentralWorld(int n = 3) {
    central = net.make_node<CentralServer>("central");
    for (int i = 0; i < n; ++i) {
      auto* s = net.make_node<gsnet::GreenstoneServer>(numbered("H", i));
      auto e = std::make_unique<CentralizedAlerting>(central->id());
      ext.push_back(e.get());
      s->set_extension(std::move(e));
      servers.push_back(s);
      auto* c = net.make_node<Client>(numbered("c", i));
      c->set_home(s->id());
      clients.push_back(c);
    }
    net.start();
    settle();
  }
  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

TEST(CentralizedTest, EndToEndNotification) {
  CentralWorld w;
  w.clients[1]->subscribe("host = h0");
  w.settle();
  EXPECT_EQ(w.central->profile_count(), 1u);
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  ASSERT_EQ(w.clients[1]->notifications().size(), 1u);
  EXPECT_EQ(w.clients[1]->notifications()[0].event.collection.str(), "H0.A");
}

TEST(CentralizedTest, CancelRemovesFromCentralIndex) {
  CentralWorld w;
  SubscriptionId sub = 0;
  w.clients[1]->subscribe("host = h0",
                          [&](Result<SubscriptionId> r) { sub = r.value(); });
  w.settle();
  w.clients[1]->cancel(sub);
  w.settle();
  EXPECT_EQ(w.central->profile_count(), 0u);
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  EXPECT_TRUE(w.clients[1]->notifications().empty());
}

// A broker control message lost to a short outage is retransmitted by
// the extension's own endpoint timer, beside the host server's query
// mediator, whose endpoint runs on the same node.
TEST(CentralizedTest, LostControlMessageIsRetransmitted) {
  CentralWorld w{1};
  const NodeId host = w.servers[0]->id();
  const NodeId central = w.central->id();
  w.net.block_pair(host, central);
  w.net.schedule_control(SimTime::millis(300),
                         [&] { w.net.unblock_pair(host, central); });
  w.clients[0]->subscribe("host = h0");
  w.settle(SimTime::seconds(10));
  EXPECT_EQ(w.central->profile_count(), 1u);
  const transport::EndpointStats& control = w.ext[0]->endpoint_stats();
  EXPECT_EQ(control.requests, 1u);
  EXPECT_EQ(control.retransmits, 1u);
  EXPECT_EQ(control.replies, 1u);
  EXPECT_EQ(control.timeouts, 0u);
}

TEST(CentralizedTest, CentralFailureIsTotalOutage) {
  CentralWorld w;
  w.clients[1]->subscribe("host = h0");
  w.settle();
  w.net.crash(w.central->id());
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle(SimTime::seconds(2));
  EXPECT_TRUE(w.clients[1]->notifications().empty());  // single point of failure
}

// --- B2 profile flooding ----------------------------------------------------

struct FloodWorld {
  sim::Network net{22};
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<ProfileFloodAlerting*> ext;
  std::vector<Client*> clients;

  /// Line topology H0 - H1 - H2 ... (brokers = servers).
  explicit FloodWorld(int n = 3) {
    for (int i = 0; i < n; ++i) {
      auto* s = net.make_node<gsnet::GreenstoneServer>(numbered("H", i));
      auto e = std::make_unique<ProfileFloodAlerting>();
      ext.push_back(e.get());
      s->set_extension(std::move(e));
      servers.push_back(s);
      auto* c = net.make_node<Client>(numbered("c", i));
      c->set_home(s->id());
      clients.push_back(c);
    }
    for (std::size_t i = 0; i < servers.size(); ++i) {
      for (std::size_t j = 0; j < servers.size(); ++j) {
        if (i != j) {
          servers[i]->set_host_ref(servers[j]->name(), servers[j]->id());
        }
      }
      if (i + 1 < servers.size()) {
        ext[i]->add_neighbor(servers[i + 1]->name(), servers[i + 1]->id());
        ext[i + 1]->add_neighbor(servers[i]->name(), servers[i]->id());
      }
    }
    net.start();
    settle();
  }
  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

TEST(ProfileFloodingTest, ProfileReachesAllBrokersAndMatchesRemotely) {
  FloodWorld w;
  w.clients[0]->subscribe("host = h2");
  w.settle();
  // All three brokers now hold the profile.
  EXPECT_EQ(w.ext[0]->remote_profile_count(), 1u);
  EXPECT_EQ(w.ext[1]->remote_profile_count(), 1u);
  EXPECT_EQ(w.ext[2]->remote_profile_count(), 1u);
  ASSERT_TRUE(w.servers[2]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  ASSERT_EQ(w.clients[0]->notifications().size(), 1u);
}

TEST(ProfileFloodingTest, CancellationFloodsToo) {
  FloodWorld w;
  SubscriptionId sub = 0;
  w.clients[0]->subscribe("host = h2",
                          [&](Result<SubscriptionId> r) { sub = r.value(); });
  w.settle();
  w.clients[0]->cancel(sub);
  w.settle();
  EXPECT_EQ(w.ext[2]->remote_profile_count(), 0u);
}

TEST(ProfileFloodingTest, OrphanProfileProducesSpuriousNotifications) {
  // The paper's core objection: cancel while a broker is unreachable.
  FloodWorld w;
  SubscriptionId sub = 0;
  w.clients[0]->subscribe("host = h2",
                          [&](Result<SubscriptionId> r) { sub = r.value(); });
  w.settle();
  // Partition H2 away, then cancel: H2 keeps the orphan profile.
  w.net.block_pair(w.servers[1]->id(), w.servers[2]->id());
  w.clients[0]->cancel(sub);
  w.settle();
  EXPECT_EQ(w.ext[2]->remote_profile_count(), 1u);  // orphan
  // Heal the partition: the flood is not retried (fire-and-forget).
  w.net.unblock_pair(w.servers[1]->id(), w.servers[2]->id());
  w.settle();
  EXPECT_EQ(w.ext[2]->remote_profile_count(), 1u);
  // An event at H2 now matches the orphan and sends a spurious notify.
  ASSERT_TRUE(w.servers[2]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  EXPECT_TRUE(w.clients[0]->notifications().empty());  // suppressed at owner
  EXPECT_EQ(w.ext[0]->flood_stats().orphan_notifications, 1u);
}

TEST(ProfileFloodingTest, FloodDedupOnCyclicOverlay) {
  FloodWorld w(3);
  // Close the triangle: H0 - H2 link.
  w.ext[0]->add_neighbor(w.servers[2]->name(), w.servers[2]->id());
  w.ext[2]->add_neighbor(w.servers[0]->name(), w.servers[0]->id());
  w.clients[0]->subscribe("host = h1");
  w.settle();
  EXPECT_EQ(w.ext[1]->remote_profile_count(), 1u);
  EXPECT_GT(w.ext[1]->flood_stats().duplicate_floods +
                w.ext[2]->flood_stats().duplicate_floods +
                w.ext[0]->flood_stats().duplicate_floods,
            0u);
}

// --- B2 covering / merging ablation ----------------------------------------------

TEST(CoveringTest, IdenticalSubscriptionsFloodOnce) {
  sim::Network net{25};
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<ProfileFloodAlerting*> ext;
  std::vector<Client*> clients;
  for (int i = 0; i < 2; ++i) {
    auto* s = net.make_node<gsnet::GreenstoneServer>(numbered("H", i));
    auto e = std::make_unique<ProfileFloodAlerting>(/*covering=*/true);
    ext.push_back(e.get());
    s->set_extension(std::move(e));
    servers.push_back(s);
  }
  for (int i = 0; i < 3; ++i) {
    auto* c = net.make_node<Client>(numbered("c", i));
    c->set_home(servers[0]->id());
    clients.push_back(c);
  }
  ext[0]->add_neighbor(servers[1]->name(), servers[1]->id());
  ext[1]->add_neighbor(servers[0]->name(), servers[0]->id());
  servers[0]->set_host_ref("H1", servers[1]->id());
  servers[1]->set_host_ref("H0", servers[0]->id());
  net.start();
  net.run_until(SimTime::millis(100));

  // Three identical subscriptions at H0: a single flooded entry at H1.
  for (auto* c : clients) c->subscribe("host = h1");
  net.run_until(net.now() + SimTime::millis(300));
  EXPECT_EQ(ext[0]->subscription_count(), 3u);
  EXPECT_EQ(ext[1]->remote_profile_count(), 1u);

  // One event at H1: all three members notified (expansion at the owner).
  ASSERT_TRUE(servers[1]->add_collection(config("A"), DataSet{{doc(1)}}));
  net.run_until(net.now() + SimTime::millis(500));
  for (auto* c : clients) {
    EXPECT_EQ(c->notifications().size(), 1u) << c->name();
  }

  // Cancel two: the flooded entry survives; cancel the last: removed.
  clients[0]->cancel(clients[0]->subscriptions()[0]);
  clients[1]->cancel(clients[1]->subscriptions()[0]);
  net.run_until(net.now() + SimTime::millis(300));
  EXPECT_EQ(ext[1]->remote_profile_count(), 1u);
  ASSERT_TRUE(servers[1]->rebuild_collection("A", DataSet{{doc(1), doc(2)}}));
  net.run_until(net.now() + SimTime::millis(500));
  EXPECT_EQ(clients[0]->notifications().size(), 1u);  // no longer notified
  EXPECT_EQ(clients[2]->notifications().size(), 2u);  // survivor notified
  clients[2]->cancel(clients[2]->subscriptions()[0]);
  net.run_until(net.now() + SimTime::millis(300));
  EXPECT_EQ(ext[1]->remote_profile_count(), 0u);
}

// --- B3 rendezvous --------------------------------------------------------------

struct RvWorld {
  sim::Network net{23};
  std::vector<RendezvousBroker*> brokers;
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<RendezvousAlerting*> ext;
  std::vector<Client*> clients;

  explicit RvWorld(int n_brokers = 2, int n_servers = 3) {
    std::vector<NodeId> broker_ids;
    for (int i = 0; i < n_brokers; ++i) {
      brokers.push_back(
          net.make_node<RendezvousBroker>("rv" + std::to_string(i)));
      broker_ids.push_back(brokers.back()->id());
    }
    for (int i = 0; i < n_servers; ++i) {
      auto* s = net.make_node<gsnet::GreenstoneServer>(numbered("H", i));
      auto e = std::make_unique<RendezvousAlerting>(broker_ids);
      ext.push_back(e.get());
      s->set_extension(std::move(e));
      servers.push_back(s);
      auto* c = net.make_node<Client>(numbered("c", i));
      c->set_home(s->id());
      clients.push_back(c);
    }
    net.start();
    settle();
  }
  void settle(SimTime d = SimTime::millis(300)) {
    net.run_until(net.now() + d);
  }
};

TEST(RendezvousTest, TopicExtraction) {
  auto p = profiles::parse_profile("ref = hamilton.d AND type = collection_built");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(rendezvous_topic_of_profile(p.value()), "hamilton.d");
  auto q = profiles::parse_profile("creator = hinze");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(rendezvous_topic_of_profile(q.value()), "*");
}

TEST(RendezvousTest, EndToEndViaRendezvousNode) {
  RvWorld w;
  w.clients[1]->subscribe("ref = h0.a");
  w.settle();
  EXPECT_EQ(w.brokers[0]->profile_count() + w.brokers[1]->profile_count(),
            1u);
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  ASSERT_EQ(w.clients[1]->notifications().size(), 1u);
}

TEST(RendezvousTest, CatchAllProfilesMatchedViaStarBroker) {
  RvWorld w;
  w.clients[1]->subscribe("creator = hinze");  // topicless
  w.settle();
  Document d = doc(1);
  d.metadata.add("creator", "hinze");
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{d}}));
  w.settle();
  EXPECT_EQ(w.clients[1]->notifications().size(), 1u);
}

TEST(RendezvousTest, BrokerFailureLosesEvents) {
  RvWorld w;
  w.clients[1]->subscribe("ref = h0.a");
  w.settle();
  // Kill the broker responsible for the topic (and the catch-all, to be
  // certain the event has no live rendezvous).
  w.net.crash(w.brokers[0]->id());
  w.net.crash(w.brokers[1]->id());
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle(SimTime::seconds(2));
  EXPECT_TRUE(w.clients[1]->notifications().empty());  // false negative
}

// --- B4 naive GS flooding ----------------------------------------------------------

struct GsFloodWorld {
  sim::Network net{24};
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<GsFloodAlerting*> ext;
  std::vector<Client*> clients;

  GsFloodWorld(int n, bool dedup, std::uint16_t ttl = 8) {
    for (int i = 0; i < n; ++i) {
      auto* s = net.make_node<gsnet::GreenstoneServer>(numbered("H", i));
      auto e = std::make_unique<GsFloodAlerting>(dedup, ttl);
      ext.push_back(e.get());
      s->set_extension(std::move(e));
      servers.push_back(s);
      auto* c = net.make_node<Client>(numbered("c", i));
      c->set_home(s->id());
      clients.push_back(c);
    }
  }
  void link(int a, int b) {
    ext[a]->add_neighbor(servers[b]->name(), servers[b]->id());
    ext[b]->add_neighbor(servers[a]->name(), servers[a]->id());
  }
  void start() {
    net.start();
    settle();
  }
  void settle(SimTime d = SimTime::millis(500)) {
    net.run_until(net.now() + d);
  }
};

TEST(GsFloodingTest, ConnectedComponentIsReached) {
  GsFloodWorld w(3, /*dedup=*/true);
  w.link(0, 1);
  w.link(1, 2);
  w.start();
  w.clients[2]->subscribe("host = h0");
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
}

TEST(GsFloodingTest, IslandsNeverHearEvents) {
  // H2 is a solitary installation (the common Greenstone case).
  GsFloodWorld w(3, /*dedup=*/true);
  w.link(0, 1);
  w.start();
  w.clients[2]->subscribe("host = h0");
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  EXPECT_TRUE(w.clients[2]->notifications().empty());  // false negative
}

TEST(GsFloodingTest, CycleWithDedupDeliversExactlyOnce) {
  GsFloodWorld w(3, /*dedup=*/true);
  w.link(0, 1);
  w.link(1, 2);
  w.link(2, 0);  // cycle
  w.start();
  w.clients[2]->subscribe("host = h0");
  w.settle();
  ASSERT_TRUE(w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}}));
  w.settle();
  EXPECT_EQ(w.clients[2]->notifications().size(), 1u);
  EXPECT_GT(w.ext[0]->flood_stats().duplicates +
                w.ext[1]->flood_stats().duplicates +
                w.ext[2]->flood_stats().duplicates,
            0u);
}

TEST(GsFloodingTest, CycleWithoutDedupMultipliesTraffic) {
  GsFloodWorld with(3, /*dedup=*/true, 8);
  with.link(0, 1);
  with.link(1, 2);
  with.link(2, 0);
  with.start();
  with.servers[0]->add_collection(config("A"), DataSet{{doc(1)}});
  with.settle(SimTime::seconds(2));
  const std::uint64_t sent_with = with.net.stats().sent;

  auto run_without_dedup = [&](std::uint16_t ttl) {
    GsFloodWorld without(3, /*dedup=*/false, ttl);
    without.link(0, 1);
    without.link(1, 2);
    without.link(2, 0);
    without.start();
    without.servers[0]->add_collection(config("A"), DataSet{{doc(1)}});
    without.settle(SimTime::seconds(2));
    return without.net.stats().sent;
  };
  const std::uint64_t sent_ttl8 = run_without_dedup(8);
  const std::uint64_t sent_ttl16 = run_without_dedup(16);

  // Without dedup the event circulates until TTL exhausts: traffic is a
  // multiple of the dedup case and keeps growing with the TTL budget —
  // i.e. it is bounded by the TTL, not by the topology.
  EXPECT_GE(sent_ttl8, sent_with * 3);
  EXPECT_GE(sent_ttl16, sent_ttl8 + 8);
}

TEST(GsFloodingTest, TtlBoundsLivelock) {
  GsFloodWorld w(2, /*dedup=*/false, 4);
  w.link(0, 1);
  w.start();
  w.servers[0]->add_collection(config("A"), DataSet{{doc(1)}});
  w.settle(SimTime::seconds(5));
  // Ping-pong between the two servers is cut after ttl hops.
  EXPECT_LE(w.net.stats().sent, 10u);
  EXPECT_TRUE(w.net.scheduler().empty());
}

}  // namespace
}  // namespace gsalert::baselines
