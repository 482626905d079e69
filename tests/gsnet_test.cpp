#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "docmodel/collection.h"
#include "docmodel/document.h"
#include "docmodel/event.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "gsnet/receptionist.h"
#include "gsnet/server_extension.h"
#include "sim/network.h"

namespace gsalert::gsnet {
namespace {

using docmodel::CollectionConfig;
using docmodel::DataSet;
using docmodel::Document;
using docmodel::Event;
using docmodel::EventType;

Document doc(DocumentId id, const std::string& title) {
  Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.terms = {"term" + std::to_string(id)};
  return d;
}

DataSet docs(std::initializer_list<DocumentId> ids) {
  DataSet ds;
  for (DocumentId id : ids) ds.add(doc(id, "doc " + std::to_string(id)));
  return ds;
}

CollectionConfig config(const std::string& name,
                        std::vector<CollectionRef> subs = {},
                        bool is_public = true) {
  CollectionConfig c;
  c.name = name;
  c.sub_collections = std::move(subs);
  c.is_public = is_public;
  c.indexed_attributes = {"title"};
  return c;
}

/// Records every hook invocation for assertions.
class RecordingExtension : public ServerExtension {
 public:
  void on_local_event(const Event& event) override {
    events.push_back(event);
  }
  void on_collection_configured(const docmodel::Collection& coll) override {
    configured.push_back(coll.config.ref().str());
  }
  void on_collection_removed(const CollectionRef& ref) override {
    removed.push_back(ref.str());
  }
  void on_started() override { ++starts; }
  void on_restarted() override { ++restarts; }

  std::vector<Event> events;
  std::vector<std::string> configured;
  std::vector<std::string> removed;
  int starts = 0;
  int restarts = 0;
};

/// The exact world of the paper's Figure 1: hosts Hamilton and London.
///   Hamilton: A (a), B (b), C (virtual, sub = Hamilton.B? no...), D (d, sub London.E)
///   London:   E (e, also sub of Hamilton.D), F (f, sub London.G), G (g, private)
/// We model: A with data a; B with data b; C virtual with sub Hamilton.B;
/// D with data d and sub London.E; E with data e; F with data f and sub
/// London.G; G private with data g.
struct Figure1World {
  sim::Network net{11};
  GreenstoneServer* hamilton = nullptr;
  GreenstoneServer* london = nullptr;
  Receptionist* recep1 = nullptr;  // access to both hosts
  Receptionist* recep2 = nullptr;  // access to London only

  Figure1World() {
    hamilton = net.make_node<GreenstoneServer>("Hamilton");
    london = net.make_node<GreenstoneServer>("London");
    recep1 = net.make_node<Receptionist>("recep-1");
    recep2 = net.make_node<Receptionist>("recep-2");
    hamilton->set_host_ref("London", london->id());
    london->set_host_ref("Hamilton", hamilton->id());
    recep1->add_host("Hamilton", hamilton->id());
    recep1->add_host("London", london->id());
    recep2->add_host("London", london->id());
    net.start();

    EXPECT_TRUE(hamilton->add_collection(config("A"), docs({1})));
    EXPECT_TRUE(hamilton->add_collection(config("B"), docs({2})));
    EXPECT_TRUE(hamilton->add_collection(
        config("C", {CollectionRef{"Hamilton", "B"}}), DataSet{}));
    EXPECT_TRUE(hamilton->add_collection(
        config("D", {CollectionRef{"London", "E"}}), docs({4})));
    EXPECT_TRUE(london->add_collection(config("E"), docs({5})));
    EXPECT_TRUE(london->add_collection(
        config("F", {CollectionRef{"London", "G"}}), docs({6})));
    EXPECT_TRUE(london->add_collection(config("G", {}, /*is_public=*/false),
                                       docs({7})));
  }

  std::optional<CollResult> open(Receptionist* r, const CollectionRef& ref,
                                 SimTime wait = SimTime::seconds(30)) {
    std::optional<CollResult> out;
    r->open_collection(ref, [&](CollResult result) { out = result; });
    net.run_until(net.now() + wait);
    return out;
  }
};

std::set<DocumentId> ids_of(const CollResult& r) {
  std::set<DocumentId> out;
  for (const auto& d : r.docs) out.insert(d.id);
  return out;
}

// --- build pipeline & events ------------------------------------------------

TEST(ServerBuildTest, AddCollectionEmitsBuiltEvent) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("Hamilton");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  net.run();

  ASSERT_TRUE(server->add_collection(config("A"), docs({1, 2})));
  ASSERT_EQ(rec->events.size(), 1u);
  const Event& e = rec->events[0];
  EXPECT_EQ(e.type, EventType::kCollectionBuilt);
  EXPECT_EQ(e.collection.str(), "Hamilton.A");
  EXPECT_EQ(e.physical_origin.str(), "Hamilton.A");
  EXPECT_EQ(e.docs.size(), 2u);
  EXPECT_EQ(e.id.origin, "Hamilton");
  EXPECT_EQ(e.build_version, 1u);
  EXPECT_EQ(rec->configured, (std::vector<std::string>{"Hamilton.A"}));
}

TEST(ServerBuildTest, DuplicateAddRejected) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), {}));
  const Status again = server->add_collection(config("A"), {});
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.error().code, ErrorCode::kAlreadyExists);
}

TEST(ServerBuildTest, RebuildAnnouncesOnlyFreshDocuments) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1, 2})));
  ASSERT_TRUE(server->rebuild_collection("A", docs({1, 2, 3, 4})));
  ASSERT_EQ(rec->events.size(), 2u);
  const Event& e = rec->events[1];
  EXPECT_EQ(e.type, EventType::kCollectionRebuilt);
  EXPECT_EQ(e.docs.size(), 2u);  // docs 3 and 4 are new
  EXPECT_EQ(e.build_version, 2u);
  EXPECT_EQ(e.docs[0].id, 3u);
  EXPECT_EQ(e.docs[1].id, 4u);
}

TEST(ServerBuildTest, RebuildMissingCollectionFails) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  net.start();
  EXPECT_FALSE(server->rebuild_collection("ghost", {}).is_ok());
}

TEST(ServerBuildTest, AddDocumentsEmitsAndIndexes) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1})));
  ASSERT_TRUE(server->add_documents("A", {doc(9, "New Arrival")}));
  ASSERT_EQ(rec->events.size(), 2u);
  EXPECT_EQ(rec->events[1].type, EventType::kDocumentsAdded);
  ASSERT_EQ(rec->events[1].docs.size(), 1u);
  EXPECT_EQ(rec->events[1].docs[0].id, 9u);
  // Incremental indexing is live.
  auto hits = server->engine("A")->search("title:new AND title:arrival");
  ASSERT_TRUE(hits.ok());
  // "title" indexes whole values, so search per-value:
  hits = server->engine("A")->search("title:new*");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value(), (retrieval::PostingList{9}));
}

TEST(ServerBuildTest, RebuildDetectsModifiedAndRemovedDocuments) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1, 2, 3})));
  // Rebuild: doc 1 unchanged, doc 2 modified, doc 3 removed, doc 4 new.
  DataSet next;
  next.add(doc(1, "doc 1"));
  next.add(doc(2, "doc 2 REVISED"));
  next.add(doc(4, "doc 4"));
  ASSERT_TRUE(server->rebuild_collection("A", std::move(next)));
  ASSERT_EQ(rec->events.size(), 4u);  // built + rebuilt + modified + removed
  EXPECT_EQ(rec->events[1].type, EventType::kCollectionRebuilt);
  ASSERT_EQ(rec->events[1].docs.size(), 1u);
  EXPECT_EQ(rec->events[1].docs[0].id, 4u);
  EXPECT_EQ(rec->events[2].type, EventType::kDocumentsModified);
  ASSERT_EQ(rec->events[2].docs.size(), 1u);
  EXPECT_EQ(rec->events[2].docs[0].id, 2u);
  EXPECT_EQ(rec->events[3].type, EventType::kDocumentsRemoved);
  ASSERT_EQ(rec->events[3].docs.size(), 1u);
  EXPECT_EQ(rec->events[3].docs[0].id, 3u);
  // All three change events share the new build version.
  EXPECT_EQ(rec->events[2].build_version, 2u);
  EXPECT_EQ(rec->events[3].build_version, 2u);
}

TEST(ServerBuildTest, IdenticalRebuildEmitsOnlyRebuiltEvent) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1, 2})));
  ASSERT_TRUE(server->rebuild_collection("A", docs({1, 2})));
  ASSERT_EQ(rec->events.size(), 2u);
  EXPECT_EQ(rec->events[1].type, EventType::kCollectionRebuilt);
  EXPECT_TRUE(rec->events[1].docs.empty());
}

TEST(ServerBuildTest, RemoveCollectionEmitsDeletedAndHook) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1})));
  ASSERT_TRUE(server->remove_collection("A"));
  EXPECT_EQ(server->collection("A"), nullptr);
  ASSERT_EQ(rec->events.size(), 2u);
  EXPECT_EQ(rec->events[1].type, EventType::kCollectionDeleted);
  EXPECT_EQ(rec->removed, (std::vector<std::string>{"H.A"}));
}

TEST(ServerBuildTest, SubCollectionLinkManagement) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), docs({1})));
  const CollectionRef sub{"London", "E"};
  ASSERT_TRUE(server->add_sub_collection("A", sub));
  EXPECT_FALSE(server->add_sub_collection("A", sub).is_ok());  // duplicate
  EXPECT_EQ(rec->configured.size(), 2u);  // add_collection + add_sub
  ASSERT_TRUE(server->remove_sub_collection("A", sub));
  EXPECT_FALSE(server->remove_sub_collection("A", sub).is_ok());
  EXPECT_EQ(rec->configured.size(), 3u);
  EXPECT_FALSE(server->add_sub_collection("ghost", sub).is_ok());
}

TEST(ServerBuildTest, EventSequenceNumbersIncrease) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  ASSERT_TRUE(server->add_collection(config("A"), {}));
  ASSERT_TRUE(server->add_collection(config("B"), {}));
  ASSERT_TRUE(server->rebuild_collection("A", docs({1})));
  ASSERT_EQ(rec->events.size(), 3u);
  EXPECT_LT(rec->events[0].id.seq, rec->events[1].id.seq);
  EXPECT_LT(rec->events[1].id.seq, rec->events[2].id.seq);
}

// --- Figure 1 / GS protocol ------------------------------------------------------

TEST(Figure1Test, SimpleLocalCollection) {
  Figure1World w;
  auto result = w.open(w.recep1, {"Hamilton", "A"});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1}));
  EXPECT_EQ(result->servers_contacted, 1u);
  EXPECT_EQ(result->hops, 0u);
}

TEST(Figure1Test, DistributedCollectionAggregatesAcrossHosts) {
  // Hamilton.D = data d (doc 4) + sub-collection London.E (doc 5).
  Figure1World w;
  auto result = w.open(w.recep1, {"Hamilton", "D"});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{4, 5}));
  EXPECT_EQ(result->servers_contacted, 2u);
  EXPECT_EQ(result->hops, 1u);
}

TEST(Figure1Test, VirtualCollectionServesOnlySubData) {
  // Hamilton.C has no data of its own, only sub Hamilton.B.
  Figure1World w;
  EXPECT_TRUE(w.hamilton->collection("C")->is_virtual());
  auto result = w.open(w.recep1, {"Hamilton", "C"});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{2}));
}

TEST(Figure1Test, PrivateCollectionRejectsDirectAccess) {
  Figure1World w;
  auto result = w.open(w.recep2, {"London", "G"});
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_NE(result->error.find("private"), std::string::npos);
}

TEST(Figure1Test, PrivateCollectionReachableViaParent) {
  // London.F includes private London.G: F's data + G's data flow out.
  Figure1World w;
  auto result = w.open(w.recep2, {"London", "F"});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{6, 7}));
}

TEST(Figure1Test, ReceptionistWithoutHostAccessFailsLocally) {
  Figure1World w;
  auto result = w.open(w.recep2, {"Hamilton", "A"}, SimTime::millis(1));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_NE(result->error.find("no access"), std::string::npos);
}

TEST(Figure1Test, UnknownCollectionErrors) {
  Figure1World w;
  auto result = w.open(w.recep1, {"Hamilton", "Z"});
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST(GsProtocolTest, CyclicCollectionGraphTerminates) {
  // X on H1 includes Y on H2; Y includes X back. Resolution must terminate
  // and return both data sets exactly once.
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>("H1");
  auto* h2 = net.make_node<GreenstoneServer>("H2");
  auto* recep = net.make_node<Receptionist>("r");
  h1->set_host_ref("H2", h2->id());
  h2->set_host_ref("H1", h1->id());
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H2", "Y"}}),
                                 docs({1})));
  ASSERT_TRUE(h2->add_collection(config("Y", {CollectionRef{"H1", "X"}}),
                                 docs({2})));
  std::optional<CollResult> result;
  recep->open_collection({"H1", "X"},
                         [&](CollResult r) { result = r; });
  net.run_until(SimTime::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1, 2}));
}

TEST(GsProtocolTest, SelfCycleTerminates) {
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>("H1");
  auto* recep = net.make_node<Receptionist>("r");
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H1", "X"}}),
                                 docs({1})));
  std::optional<CollResult> result;
  recep->open_collection({"H1", "X"}, [&](CollResult r) { result = r; });
  net.run_until(SimTime::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1}));
}

TEST(GsProtocolTest, ThreeHostChainAccumulatesHops) {
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>("H1");
  auto* h2 = net.make_node<GreenstoneServer>("H2");
  auto* h3 = net.make_node<GreenstoneServer>("H3");
  auto* recep = net.make_node<Receptionist>("r");
  h1->set_host_ref("H2", h2->id());
  h2->set_host_ref("H3", h3->id());
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H2", "Y"}}),
                                 docs({1})));
  ASSERT_TRUE(h2->add_collection(config("Y", {CollectionRef{"H3", "Z"}}),
                                 docs({2})));
  ASSERT_TRUE(h3->add_collection(config("Z"), docs({3})));
  std::optional<CollResult> result;
  recep->open_collection({"H1", "X"}, [&](CollResult r) { result = r; });
  net.run_until(SimTime::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1, 2, 3}));
  EXPECT_EQ(result->hops, 2u);
  EXPECT_EQ(result->servers_contacted, 3u);
}

TEST(GsProtocolTest, UnreachableSubHostGivesPartialResultWithError) {
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>(
      "H1", ServerConfig{.request_timeout = SimTime::millis(500)});
  auto* h2 = net.make_node<GreenstoneServer>("H2");
  auto* recep = net.make_node<Receptionist>("r");
  h1->set_host_ref("H2", h2->id());
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H2", "Y"}}),
                                 docs({1})));
  ASSERT_TRUE(h2->add_collection(config("Y"), docs({2})));
  net.crash(h2->id());
  std::optional<CollResult> result;
  recep->open_collection({"H1", "X"}, [&](CollResult r) { result = r; });
  net.run_until(SimTime::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);  // best-effort: own docs still served
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1}));
  EXPECT_FALSE(result->error.empty());
}

TEST(GsProtocolTest, MissingHostRefReportsError) {
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>("H1");
  auto* recep = net.make_node<Receptionist>("r");
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H9", "Y"}}),
                                 docs({1})));
  std::optional<CollResult> result;
  recep->open_collection({"H1", "X"}, [&](CollResult r) { result = r; });
  net.run_until(SimTime::seconds(5));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_NE(result->error.find("no reference"), std::string::npos);
  EXPECT_EQ(ids_of(*result), (std::set<DocumentId>{1}));
}

// --- federated search --------------------------------------------------------

struct SearchFigure1World : Figure1World {
  std::optional<SearchResult> search(Receptionist* r,
                                     const CollectionRef& ref,
                                     const std::string& query) {
    std::optional<SearchResult> out;
    r->search_collection(ref, query, [&](SearchResult result) {
      out = std::move(result);
    });
    net.run_until(net.now() + SimTime::seconds(30));
    return out;
  }
};

TEST(FederatedSearchTest, LocalCollectionSearch) {
  SearchFigure1World w;
  auto result = w.search(w.recep1, {"Hamilton", "A"}, "title:doc*");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->hits, (std::vector<DocumentId>{1}));
  EXPECT_EQ(result->servers_contacted, 1u);
}

TEST(FederatedSearchTest, DistributedCollectionSearchesRemoteSub) {
  // Hamilton.D = doc 4 locally + London.E's doc 5: a search matching both
  // must aggregate across hosts.
  SearchFigure1World w;
  auto result = w.search(w.recep1, {"Hamilton", "D"}, "title:doc*");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  std::set<DocumentId> hits(result->hits.begin(), result->hits.end());
  EXPECT_EQ(hits, (std::set<DocumentId>{4, 5}));
  EXPECT_EQ(result->servers_contacted, 2u);
  EXPECT_EQ(result->hops, 1u);
}

TEST(FederatedSearchTest, QueryFiltersRemoteSide) {
  SearchFigure1World w;
  // "doc 5" only exists in London.E (metadata values index whole, so the
  // query uses a wildcard).
  auto result = w.search(w.recep1, {"Hamilton", "D"}, "title:*5");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  EXPECT_EQ(result->hits, (std::vector<DocumentId>{5}));
}

TEST(FederatedSearchTest, MalformedQueryErrors) {
  SearchFigure1World w;
  auto result = w.search(w.recep1, {"Hamilton", "A"}, "(broken");
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST(FederatedSearchTest, PrivateCollectionSearchDenied) {
  SearchFigure1World w;
  auto result = w.search(w.recep2, {"London", "G"}, "title:doc*");
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_NE(result->error.find("private"), std::string::npos);
}

TEST(FederatedSearchTest, SearchThroughPrivateSubWorks) {
  SearchFigure1World w;
  auto result = w.search(w.recep2, {"London", "F"}, "title:doc*");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  std::set<DocumentId> hits(result->hits.begin(), result->hits.end());
  EXPECT_EQ(hits, (std::set<DocumentId>{6, 7}));
}

TEST(FederatedSearchTest, CyclicSearchTerminates) {
  sim::Network net;
  auto* h1 = net.make_node<GreenstoneServer>("H1");
  auto* h2 = net.make_node<GreenstoneServer>("H2");
  auto* recep = net.make_node<Receptionist>("r");
  h1->set_host_ref("H2", h2->id());
  h2->set_host_ref("H1", h1->id());
  recep->add_host("H1", h1->id());
  net.start();
  ASSERT_TRUE(h1->add_collection(config("X", {CollectionRef{"H2", "Y"}}),
                                 docs({1})));
  ASSERT_TRUE(h2->add_collection(config("Y", {CollectionRef{"H1", "X"}}),
                                 docs({2})));
  std::optional<SearchResult> result;
  recep->search_collection({"H1", "X"}, "title:doc*",
                           [&](SearchResult r) { result = std::move(r); });
  net.run_until(SimTime::seconds(30));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok) << result->error;
  std::set<DocumentId> hits(result->hits.begin(), result->hits.end());
  EXPECT_EQ(hits, (std::set<DocumentId>{1, 2}));
}

TEST(ServerLifecycleTest, RestartKeepsCollectionsClearsPending) {
  sim::Network net;
  auto* server = net.make_node<GreenstoneServer>("H");
  auto ext = std::make_unique<RecordingExtension>();
  auto* rec = ext.get();
  server->set_extension(std::move(ext));
  net.start();
  net.run();
  EXPECT_EQ(rec->starts, 1);
  ASSERT_TRUE(server->add_collection(config("A"), docs({1})));
  net.crash(server->id());
  net.restart(server->id());
  net.run();
  EXPECT_EQ(rec->restarts, 1);
  ASSERT_NE(server->collection("A"), nullptr);  // durable
  EXPECT_EQ(server->collection("A")->data.size(), 1u);
}

// A timer dies with the incarnation that set it, so a crash-restart
// leaves a node the timers it had: the restart re-arms one register
// refresh chain per server and one heartbeat chain per GDS node, and the
// chains armed before the crash never fire.
TEST(ServerLifecycleTest, CrashRestartKeepsTimerRates) {
  sim::Network net{7};
  const gds::GdsTree tree = gds::build_figure2_tree(net);
  const NodeId leaf = tree.nodes[2]->id();  // gds-3, stratum 3
  auto* server = net.make_node<GreenstoneServer>("H");
  server->attach_gds(leaf);
  net.start();
  net.run_until(SimTime::seconds(5));

  // Per 20 s of idling: packets the server sends (register refreshes)
  // and packets the leaf receives (those refreshes, heartbeat acks).
  struct Rates {
    std::uint64_t refreshes = 0;
    std::uint64_t leaf_received = 0;
    bool operator==(const Rates&) const = default;
  };
  const auto idle_window = [&] {
    const sim::NodeStats server_before = net.node_stats(server->id());
    const sim::NodeStats leaf_before = net.node_stats(leaf);
    net.run_until(net.now() + SimTime::seconds(20));
    return Rates{net.node_stats(server->id()).sent - server_before.sent,
                 net.node_stats(leaf).received - leaf_before.received};
  };
  const Rates before = idle_window();
  EXPECT_EQ(before.refreshes, 10u);
  EXPECT_GT(before.leaf_received, before.refreshes);
  for (int crashes = 1; crashes <= 3; ++crashes) {
    net.crash(server->id());
    net.crash(leaf);
    net.run_until(net.now() + SimTime::millis(300));
    net.restart(server->id());
    net.restart(leaf);
    net.run_until(net.now() + SimTime::seconds(5));
    const Rates after = idle_window();
    EXPECT_EQ(after.refreshes, before.refreshes) << crashes << " crashes";
    EXPECT_EQ(after.leaf_received, before.leaf_received)
        << crashes << " crashes";
  }
}

}  // namespace
}  // namespace gsalert::gsnet
