// One decoder for durable state: every journaled owner writes its
// snapshots as the same typed records its log holds, so recovering from
// the log alone and recovering from a forced snapshot must rebuild the
// same state. Each equivalence test runs a seeded workload twice (the sim
// is deterministic), confirms with journal::scan_records that the owner
// wrote every record type it defines, then crashes each node in one world
// straight onto its log and in the other onto a fresh snapshot, and
// requires byte-identical re-encoded snapshots.
//
// Also here: the GDS regression where a snapshot restored the ancestor
// ring but not the proper-ancestor set (a restarted node never probed the
// parent it had adopted), and a fuzz case for AlertingService::
// restore_state, the one decoder that takes bytes from outside the node.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "alerting/messages.h"
#include "gds/gds_client.h"
#include "gds/gds_server.h"
#include "gds/messages.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "journal/journal.h"
#include "sim/network.h"
#include "wire/envelope.h"

namespace gsalert {
namespace {

using TypeSet = std::set<std::uint8_t>;

TypeSet range(std::uint8_t first, std::uint8_t last) {
  TypeSet out;
  for (unsigned t = first; t <= last; ++t) {
    out.insert(static_cast<std::uint8_t>(t));
  }
  return out;
}

/// Record types in a node's durable log.
TypeSet log_types(sim::Storage& storage, const std::string& file) {
  TypeSet out;
  journal::scan_records(storage.read(file),
                        [&](std::uint8_t type, std::span<const std::byte>,
                            std::uint64_t) { out.insert(type); });
  return out;
}

/// Payload of the node's snapshot record (empty when there is none).
std::vector<std::byte> snapshot_payload(sim::Storage& storage,
                                        const std::string& file) {
  std::vector<std::byte> out;
  if (!storage.exists(file)) return out;
  journal::scan_records(storage.read(file),
                        [&](std::uint8_t type,
                            std::span<const std::byte> payload,
                            std::uint64_t) {
                          if (type == journal::kSnapshotType) {
                            out.assign(payload.begin(), payload.end());
                          }
                        });
  return out;
}

/// Record types among a snapshot payload's entries.
TypeSet entry_types(std::span<const std::byte> payload) {
  TypeSet out;
  EXPECT_TRUE(journal::scan_entries(
      payload, [&](std::uint8_t type, std::span<const std::byte>) {
        out.insert(type);
      }));
  return out;
}

/// Crash a node onto what its storage holds and run recovery (phase 1 of
/// a restart) — then write its state back out as a snapshot and return
/// the payload.
template <typename NodeT>
std::vector<std::byte> crash_recover_reencode(sim::Network& net, NodeT* node,
                                              const std::string& snap) {
  net.crash(node->id());
  node->on_recover();
  node->journal()->compact();
  return snapshot_payload(net.storage(node->id()), snap);
}

// --- GDS ---------------------------------------------------------------------

/// A directory client that registers whenever told to.
class Member : public sim::Node {
 public:
  void join(NodeId gds) {
    client_.attach(&network(), id(), name(), gds);
    client_.start();
  }
  void on_packet(NodeId, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() && env.value().type == wire::MessageType::kGdsResolveReply) {
      client_.handle_resolve_reply(env.value());
    }
  }
  gds::GdsClient& client() { return client_; }

 private:
  gds::GdsClient client_;
};

constexpr std::uint16_t kPayload = 999;

/// A 7-node tree driven through every GDS record type: registrations
/// and an unregistration, routes learned and withdrawn, a child crash and
/// failover, an adoption, broadcasts, and relays parked at the root (one
/// flushed by a late registration, one still in custody at the end).
struct GdsWorld {
  sim::Network net{21};
  gds::GdsTree tree;
  std::vector<Member*> members;

  GdsWorld() {
    gds::GdsConfig config;
    config.heartbeat_interval = SimTime::millis(200);
    config.heartbeat_miss_limit = 2;
    config.journal.compact_threshold_bytes = 0;  // the log holds everything
    tree = gds::build_tree(net, 2, 3, config);
    for (int i = 0; i < 5; ++i) {
      members.push_back(
          net.make_node<Member>(i < 4 ? "member-" + std::to_string(i)
                                      : std::string{"late"}));
    }
    net.start();
    for (int i = 0; i < 4; ++i) {
      members[static_cast<std::size_t>(i)]->join(
          tree.nodes[static_cast<std::size_t>(3 + i)]->id());
    }
    run(SimTime::millis(300));
    members[0]->client().broadcast(kPayload, {});
    members[0]->client().relay("late", kPayload, {});
    run(SimTime::millis(700));
    members[4]->join(tree.nodes[6]->id());  // flushes the parked relay
    run(SimTime::millis(500));
    members[1]->client().unregister();
    run(SimTime::millis(500));
    net.crash(tree.nodes[1]->id());  // children fail over, root prunes it
    run(SimTime::seconds(2));
    net.restart(tree.nodes[1]->id());
    run(SimTime::seconds(1));
    tree.nodes[3]->adopt_parent(tree.nodes[2]->id());
    run(SimTime::seconds(1));
    members[2]->client().broadcast(kPayload, {});
    members[0]->client().relay("absent", kPayload, {});  // stays parked
    run(SimTime::millis(500));
  }

  void run(SimTime d) { net.run_until(net.now() + d); }
};

TEST(DurableStateTest, GdsSnapshotAndLogRecoverTheSameState) {
  GdsWorld log_world;
  GdsWorld snap_world;
  TypeSet logged;
  for (gds::GdsServer* node : log_world.tree.nodes) {
    const TypeSet types = log_types(log_world.net.storage(node->id()),
                                    "gds.log");
    logged.insert(types.begin(), types.end());
  }
  EXPECT_EQ(logged, range(1, 11)) << "a live GDS record type went unwritten";

  TypeSet snapshotted;
  for (std::size_t i = 0; i < log_world.tree.nodes.size(); ++i) {
    gds::GdsServer* from_log = log_world.tree.nodes[i];
    gds::GdsServer* from_snap = snap_world.tree.nodes[i];
    from_snap->journal()->compact();
    sim::Storage& snap_storage = snap_world.net.storage(from_snap->id());
    const TypeSet types =
        entry_types(snapshot_payload(snap_storage, "gds.snap"));
    snapshotted.insert(types.begin(), types.end());
    ASSERT_EQ(snap_storage.durable_size("gds.log"), 0u);

    const auto a = crash_recover_reencode(log_world.net, from_log, "gds.snap");
    const auto b =
        crash_recover_reencode(snap_world.net, from_snap, "gds.snap");
    EXPECT_GT(from_log->journal()->stats().records_replayed, 0u)
        << from_log->name();
    EXPECT_EQ(from_snap->journal()->stats().records_replayed, 0u)
        << from_snap->name();
    EXPECT_FALSE(a.empty()) << from_log->name();
    EXPECT_EQ(a, b) << from_log->name()
                    << ": log and snapshot recovered different state";
  }
  // Snapshots carry the state-bearing records plus the three that exist
  // only there (msg-id counter, ancestor ring, dedup floor). Seen records
  // (8) are snapshotted only above a floor, and this world's broadcasts
  // leave no holes; ForcedWindowsRecoverTheSameState covers them.
  EXPECT_EQ(snapshotted, (TypeSet{1, 3, 5, 9, 12, 13, 14}));
}

// A snapshot must restore the proper-ancestor set along with the ring: a
// node that adopted a parent and then switched away from it adaptively
// keeps probing it after a restart, and re-parents to it once it is the
// closest ancestor again.
TEST(DurableStateTest, GdsSnapshotKeepsAdoptedParentProbeable) {
  sim::Network net{7};
  gds::GdsConfig config;
  config.adaptive_parent = true;
  gds::GdsTree tree = gds::build_tree(net, 2, 3, config);
  gds::GdsServer* node = tree.nodes[3];  // stratum 3, under nodes[1]
  gds::GdsServer* adopted = tree.nodes[2];
  gds::GdsServer* original = tree.nodes[1];
  gds::GdsServer* root = tree.nodes[0];
  net.start();
  net.run_until(SimTime::millis(100));
  node->adopt_parent(adopted->id());
  ASSERT_EQ(node->parent(), adopted->id());

  net.set_path(node->id(), adopted->id(), {.latency = SimTime::millis(60)});
  net.set_path(node->id(), original->id(), {.latency = SimTime::millis(5)});
  net.set_path(node->id(), root->id(), {.latency = SimTime::millis(40)});
  net.run_until(net.now() + SimTime::seconds(15));
  ASSERT_EQ(node->parent(), original->id());
  ASSERT_EQ(node->stats().adaptive_reparents, 1u);

  node->journal()->compact();
  net.crash(node->id());
  net.restart(node->id());
  net.run_until(net.now() + SimTime::seconds(1));
  ASSERT_EQ(node->parent(), original->id());

  net.set_path(node->id(), adopted->id(), {.latency = SimTime::millis(2)});
  net.set_path(node->id(), original->id(), {.latency = SimTime::millis(60)});
  net.run_until(net.now() + SimTime::seconds(25));
  EXPECT_GE(node->rtt_ewma_micros(adopted->id()), 0.0)
      << "the restarted node never probed its adopted parent";
  EXPECT_EQ(node->parent(), adopted->id());
}

// --- GreenstoneServer + AlertingService -------------------------------------

docmodel::Document doc(DocumentId id, const std::string& title) {
  docmodel::Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.metadata.add("creator", "hinze");
  d.terms = {"alerting"};
  return d;
}

docmodel::CollectionConfig collection(const std::string& name,
                                      std::vector<CollectionRef> subs = {}) {
  docmodel::CollectionConfig c;
  c.name = name;
  c.sub_collections = std::move(subs);
  c.indexed_attributes = {"title", "creator"};
  return c;
}

/// Four alerting servers on the Figure 2 tree with managed delivery and
/// distributed collections (Hamilton.D and Hamilton.F include London.E).
/// The workload installs aux profiles and withdraws F's, forwards and
/// renames events,
/// subscribes, cancels, queues digest-policy notifications (one of which
/// spills), and ends with a queued entry and unacked digests still in
/// flight.
struct AlertingWorld {
  sim::Network net{33};
  gds::GdsTree tree;
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<alerting::AlertingService*> services;
  std::vector<alerting::Client*> clients;

  AlertingWorld() {
    tree = gds::build_figure2_tree(net);
    gsnet::ServerConfig server_config;
    server_config.journal.compact_threshold_bytes = 0;
    alerting::AlertingConfig config;
    config.delivery.credits = 2;
    config.delivery.default_window = SimTime::millis(200);
    config.delivery.queue_capacity = 1;
    const std::vector<std::string> hosts{"Hamilton", "London", "Host2",
                                         "Host3"};
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      auto* server =
          net.make_node<gsnet::GreenstoneServer>(hosts[i], server_config);
      auto service = std::make_unique<alerting::AlertingService>(config);
      services.push_back(service.get());
      server->set_extension(std::move(service));
      server->attach_gds(tree.leaf_for(i)->id());
      servers.push_back(server);
      auto* client = net.make_node<alerting::Client>("client-" + hosts[i]);
      client->set_home(server->id());
      clients.push_back(client);
    }
    for (auto* a : servers) {
      for (auto* b : servers) {
        if (a != b) a->set_host_ref(b->name(), b->id());
      }
    }
    net.start();
    run(SimTime::millis(300));

    EXPECT_TRUE(servers[1]->add_collection(
        collection("E"), docmodel::DataSet{{doc(5, "Old E doc")}}));
    for (const std::string name : {"D", "F"}) {
      EXPECT_TRUE(servers[0]->add_collection(
          collection(name, {CollectionRef{"London", "E"}}),
          docmodel::DataSet{{doc(4, name)}}));
    }
    clients[2]->subscribe("ref = hamilton.d");
    clients[0]->subscribe("host = london");
    clients[3]->subscribe("host = london");
    run(SimTime::seconds(2));
    // Hamilton's subscriber takes digests: its hits queue, then flush.
    const auto& hamilton_subs = clients[0]->subscriptions();
    EXPECT_EQ(hamilton_subs.size(), 1u);
    EXPECT_TRUE(services[0]->set_delivery_policy(
        hamilton_subs.front(), {.mode = alerting::DeliveryMode::kDigest}));
    EXPECT_TRUE(servers[1]->rebuild_collection(
        "E", docmodel::DataSet{{doc(5, "Old E doc"), doc(6, "New E doc")}}));
    run(SimTime::seconds(2));
    clients[2]->cancel(clients[2]->subscriptions().front());
    EXPECT_TRUE(servers[0]->remove_sub_collection("F",
                                                  CollectionRef{"London", "E"}));
    run(SimTime::seconds(2));
    // End with state in flight: London's forwards to Hamilton and Host3's
    // digests go unacked, and Hamilton's digest window has not closed
    // yet. Its queue holds one entry, so the second rebuild's hit spills
    // the first.
    net.block_pair(servers[1]->id(), servers[0]->id());
    net.block_pair(servers[3]->id(), clients[3]->id());
    EXPECT_TRUE(servers[1]->rebuild_collection(
        "E", docmodel::DataSet{{doc(5, "Old E doc"), doc(6, "New E doc"),
                                doc(7, "Newer")}}));
    run(SimTime::millis(50));
    EXPECT_TRUE(servers[1]->rebuild_collection(
        "E", docmodel::DataSet{{doc(5, "Old E doc"), doc(6, "New E doc"),
                                doc(7, "Newer"), doc(8, "Newest")}}));
    run(SimTime::millis(50));
  }

  void run(SimTime d) { net.run_until(net.now() + d); }
};

TEST(DurableStateTest, AlertingSnapshotAndLogRecoverTheSameState) {
  AlertingWorld log_world;
  AlertingWorld snap_world;
  TypeSet logged;
  for (gsnet::GreenstoneServer* server : log_world.servers) {
    const TypeSet types =
        log_types(log_world.net.storage(server->id()), "node.log");
    logged.insert(types.begin(), types.end());
  }
  EXPECT_EQ(logged, range(64, 79))
      << "a live alerting record type went unwritten";

  TypeSet snapshotted;
  std::set<bool> enq_in_flight;  // both shapes of the enq record (76)
  for (std::size_t i = 0; i < log_world.servers.size(); ++i) {
    gsnet::GreenstoneServer* from_log = log_world.servers[i];
    gsnet::GreenstoneServer* from_snap = snap_world.servers[i];
    from_snap->journal()->compact();
    sim::Storage& snap_storage = snap_world.net.storage(from_snap->id());
    const std::vector<std::byte> payload =
        snapshot_payload(snap_storage, "node.snap");
    const TypeSet types = entry_types(payload);
    snapshotted.insert(types.begin(), types.end());
    journal::scan_entries(
        payload, [&](std::uint8_t type, std::span<const std::byte> entry) {
          if (type != 76) return;
          wire::Reader r{entry};
          (void)r.u32();  // client
          (void)r.u64();  // entry seq
          (void)r.u64();  // subscription
          enq_in_flight.insert(r.u64() != 0);  // digest seq, 0 = waiting
        });
    ASSERT_EQ(snap_storage.durable_size("node.log"), 0u);

    const auto a =
        crash_recover_reencode(log_world.net, from_log, "node.snap");
    const auto b =
        crash_recover_reencode(snap_world.net, from_snap, "node.snap");
    EXPECT_GT(from_log->journal()->stats().records_replayed, 0u)
        << from_log->name();
    EXPECT_EQ(from_snap->journal()->stats().records_replayed, 0u)
        << from_snap->name();
    EXPECT_EQ(a, b) << from_log->name()
                    << ": log and snapshot recovered different state";
  }
  // State-bearing records, plus the seven that exist only in snapshots:
  // server id counters (1), the delivery stage's next digest seqs (80),
  // next_sub (82), channel peers (83), the delivery entry counter (84)
  // and the event and forward dedup floors (86, 87). Event seen records
  // (70) are snapshotted only above a floor, and every server here saw
  // every event; forward streams are sparse (London's seqs also number
  // events no forward carries), so seen forwards (71) stay above theirs.
  // Queue entries, waiting and in flight, are enq records (76).
  EXPECT_EQ(snapshotted, (TypeSet{1, 64, 66, 67, 69, 71, 72, 75, 76, 80, 82,
                                  83, 84, 86, 87}));
  EXPECT_EQ(enq_in_flight, (std::set<bool>{false, true}));
}

// --- Dedup windows past their width ------------------------------------------

/// Floods events of a made-up origin straight into a GDS node, under
/// whatever seqs the test picks.
class Injector : public sim::Node {
 public:
  void on_packet(NodeId, const sim::Packet&) override {}
  void flood(NodeId gds_node, std::uint64_t seq) {
    docmodel::Event event;
    event.id = docmodel::EventId{"ghost", seq};
    event.collection = CollectionRef{"ghost", "C"};
    event.physical_origin = event.collection;
    gds::BroadcastBody body;
    body.origin_server = "ghost";
    body.seq = seq;
    body.payload_type =
        static_cast<std::uint16_t>(wire::MessageType::kEventAnnounce);
    body.payload = alerting::encode_event(event);
    wire::Writer w;
    body.encode(w);
    network().send(id(), gds_node,
                   wire::make_envelope(wire::MessageType::kGdsBroadcast,
                                       name(), "", seq, std::move(w))
                       .pack());
  }
};

/// One GDS node and one alerting server, fed broadcasts whose seqs jump
/// more than a window's width: the node's broadcast window and the
/// server's event window both move their floors past unseen seqs and
/// keep holes above them. With `compact_midway` both nodes snapshot
/// halfway, so their recovery reads a snapshot plus a log.
struct ForcedWindowWorld {
  sim::Network net{5};
  gds::GdsTree tree;
  gsnet::GreenstoneServer* server = nullptr;
  alerting::AlertingService* service = nullptr;

  explicit ForcedWindowWorld(bool compact_midway) {
    gds::GdsConfig gds_config;
    gds_config.journal.compact_threshold_bytes = 0;
    tree = gds::build_tree(net, 1, 1, gds_config);
    gsnet::ServerConfig server_config;
    server_config.journal.compact_threshold_bytes = 0;
    server = net.make_node<gsnet::GreenstoneServer>("Hamilton", server_config);
    auto owned = std::make_unique<alerting::AlertingService>();
    service = owned.get();
    server->set_extension(std::move(owned));
    server->attach_gds(tree.root()->id());
    auto* injector = net.make_node<Injector>("ghost");
    net.start();
    run();
    for (const std::uint64_t seq : {1, 2, 5, 100, 90}) {
      injector->flood(tree.root()->id(), seq);
      run();
    }
    if (compact_midway) {
      tree.root()->journal()->compact();
      server->journal()->compact();
    }
    for (const std::uint64_t seq : {300, 250, 301, 200, 302}) {
      injector->flood(tree.root()->id(), seq);
      run();
    }
  }

  void run() { net.run_until(net.now() + SimTime::millis(100)); }
};

TEST(DurableStateTest, ForcedWindowsRecoverTheSameState) {
  ForcedWindowWorld log_world(/*compact_midway=*/false);
  ForcedWindowWorld snap_world(/*compact_midway=*/true);
  gds::GdsServer* gds_log = log_world.tree.root();
  gds::GdsServer* gds_snap = snap_world.tree.root();
  // Nine distinct seqs were seen (200 arrived below a forced floor and
  // was refused), so every other seq up to the newest, 302, is a gap.
  const std::uint64_t want_gaps = 302 - 9;
  EXPECT_EQ(gds_log->stats().duplicates_suppressed, 1u);
  EXPECT_EQ(gds_log->broadcast_window().gaps(), want_gaps);
  EXPECT_EQ(log_world.service->event_window().gaps(), want_gaps);
  EXPECT_EQ(log_world.service->stats().events_received, 9u);

  const auto gds_a = crash_recover_reencode(log_world.net, gds_log, "gds.snap");
  const auto gds_b =
      crash_recover_reencode(snap_world.net, gds_snap, "gds.snap");
  EXPECT_GT(gds_snap->journal()->stats().records_replayed, 0u)
      << "the snapshot world's log held nothing past its snapshot";
  EXPECT_EQ(gds_a, gds_b) << "log and snapshot+log recovered different state";
  EXPECT_TRUE(entry_types(gds_a).contains(8)) << "no seen record held above "
                                                 "the broadcast floor";
  EXPECT_EQ(gds_snap->broadcast_window().gaps(), want_gaps);

  const auto svc_a =
      crash_recover_reencode(log_world.net, log_world.server, "node.snap");
  const auto svc_b =
      crash_recover_reencode(snap_world.net, snap_world.server, "node.snap");
  EXPECT_GT(snap_world.server->journal()->stats().records_replayed, 0u);
  EXPECT_EQ(svc_a, svc_b) << "log and snapshot+log recovered different state";
  EXPECT_TRUE(entry_types(svc_a).contains(70)) << "no seen record held above "
                                                  "the event floor";
  EXPECT_EQ(snap_world.service->event_window().gaps(), want_gaps);
}

// A delivery policy lives on its subscription: cancelling the
// subscription deletes the policy, so no later snapshot carries a policy
// record (type 75) for it, and a policy for an unknown or cancelled id is
// refused without a journal record.
TEST(DurableStateTest, CancelledSubscriptionLeavesNoPolicyInSnapshot) {
  constexpr std::uint8_t kPolicyRecord = 75;
  sim::Network net{9};
  auto* server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  auto owned = std::make_unique<alerting::AlertingService>();
  alerting::AlertingService* service = owned.get();
  server->set_extension(std::move(owned));
  net.start();
  sim::Storage& storage = net.storage(server->id());
  const alerting::DeliveryPolicy coalesce{alerting::DeliveryMode::kCoalesce,
                                          SimTime::millis(100)};

  const auto sub = service->subscribe_local(NodeId{7}, "host = hamilton");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(service->set_delivery_policy(sub.value(), coalesce));
  server->journal()->compact();
  EXPECT_TRUE(
      entry_types(snapshot_payload(storage, "node.snap")).contains(
          kPolicyRecord))
      << "a live subscription's policy is missing from the snapshot";

  ASSERT_TRUE(service->cancel_local(sub.value()));
  server->journal()->compact();
  EXPECT_FALSE(
      entry_types(snapshot_payload(storage, "node.snap")).contains(
          kPolicyRecord))
      << "a cancelled subscription's policy outlived it in the snapshot";

  const std::uint64_t appends = server->journal()->stats().appends;
  for (const SubscriptionId id : {sub.value(), SubscriptionId{999}}) {
    const Status set = service->set_delivery_policy(id, coalesce);
    ASSERT_FALSE(set) << "id " << id;
    EXPECT_EQ(set.error().code, ErrorCode::kNotFound) << "id " << id;
  }
  EXPECT_EQ(server->journal()->stats().appends, appends)
      << "a refused policy was journaled";
}

// restore_state decodes bytes from outside the node. Every truncation and
// a sample of bit flips of a valid image must be either rejected with the
// service unchanged or applied in full.
TEST(DurableStateTest, RestoreStateRejectsOrAppliesEveryMutation) {
  AlertingWorld world;
  // Hamilton holds subscriptions and an aux registry; London the other
  // side of the aux link.
  const std::vector<std::byte> image = world.services[0]->snapshot_state();
  const std::vector<std::byte> london = world.services[1]->snapshot_state();
  {
    alerting::AlertingService probe;
    ASSERT_TRUE(probe.restore_state(image));
    ASSERT_GT(probe.subscription_count(), 0u);
  }

  const auto check = [](const std::vector<std::byte>& input,
                        const std::string& what) -> bool {
    alerting::AlertingService service;
    EXPECT_TRUE(service.subscribe_local(NodeId{9}, "creator = someone").ok());
    const std::vector<std::byte> before = service.snapshot_state();
    if (!service.restore_state(input)) {
      EXPECT_EQ(service.snapshot_state(), before)
          << what << ": a rejected image changed the service";
      return false;
    }
    // Applied in full: nothing of the old profile database survives, and
    // the result equals the image restored into an empty service.
    alerting::AlertingService fresh;
    EXPECT_TRUE(fresh.restore_state(input)) << what;
    EXPECT_EQ(service.snapshot_state(), fresh.snapshot_state()) << what;
    alerting::AlertingService again;
    EXPECT_TRUE(again.restore_state(service.snapshot_state())) << what;
    EXPECT_EQ(again.snapshot_state(), service.snapshot_state()) << what;
    return true;
  };

  for (const auto& valid : {image, london}) {
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const std::vector<std::byte> truncated(
          valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(check(truncated, "cut at " + std::to_string(cut)))
          << "a truncated image was accepted";
    }
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (const int bit : {static_cast<int>(byte % 8),
                          static_cast<int>((byte * 3 + 5) % 8)}) {
      std::vector<std::byte> flipped = image;
      flipped[byte] ^= std::byte{static_cast<unsigned char>(1 << bit)};
      if (check(flipped, "byte " + std::to_string(byte) + " bit " +
                             std::to_string(bit))) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  // Flips inside profile text or ids can still form a valid image; flips
  // in entry framing cannot.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace gsalert
