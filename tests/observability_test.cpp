// Observability stack: causal tracing through the wire, metrics
// registry export, and the flight recorder. The end-to-end tests drive
// the paper's Figure 3 walkthrough (distributed collection rename
// cascade) and assert the trace context survives every store-and-forward
// hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <fstream>
#include <set>
#include <sstream>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "gds/gds_client.h"
#include "gds/gds_server.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/tracer.h"
#include "sim/network.h"
#include "wire/envelope.h"
#include "workload/health.h"
#include "workload/metrics.h"
#include "workload/scenario.h"

namespace gsalert {
namespace {

using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::Span;
using obs::TraceContext;
using obs::Tracer;

// ---------- trace core ------------------------------------------------------

TEST(TraceCoreTest, NoSinkMeansNoAllocationAndUnchangedContext) {
  ASSERT_FALSE(obs::active());
  const TraceContext before = obs::current_context();
  const TraceContext after =
      obs::emit_span("publish", "London", SimTime::millis(1));
  EXPECT_EQ(after.trace_id, before.trace_id);
  EXPECT_EQ(after.span_id, before.span_id);
}

TEST(TraceCoreTest, IdsAreDeterministicAfterReset) {
  Tracer a;
  {
    obs::reset_ids();
    obs::ScopedSink sink{&a};
    obs::emit_span("publish", "n1", SimTime::millis(1));
    obs::emit_span("publish", "n2", SimTime::millis(2));
  }
  Tracer b;
  {
    obs::reset_ids();
    obs::ScopedSink sink{&b};
    obs::emit_span("publish", "n1", SimTime::millis(1));
    obs::emit_span("publish", "n2", SimTime::millis(2));
  }
  ASSERT_EQ(a.spans().size(), 2u);
  ASSERT_EQ(b.spans().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.spans()[i].trace_id, b.spans()[i].trace_id);
    EXPECT_EQ(a.spans()[i].span_id, b.spans()[i].span_id);
  }
}

TEST(TraceCoreTest, ScopeNestsAndRestores) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  const TraceContext root =
      obs::emit_span("publish", "a", SimTime::millis(1));
  {
    obs::TraceScope scope{root};
    const TraceContext child =
        obs::emit_span("gds-broadcast", "b", SimTime::millis(2));
    EXPECT_EQ(child.trace_id, root.trace_id);
    {
      obs::TraceScope inner{child};
      EXPECT_EQ(obs::current_context().span_id, child.span_id);
    }
    EXPECT_EQ(obs::current_context().span_id, root.span_id);
  }
  EXPECT_FALSE(obs::current_context().traced());
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent_span_id, root.span_id);
}

TEST(TracerTest, CausalTreeIndentsChildren) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  const TraceContext root = obs::emit_span(
      "publish", "London", SimTime::millis(100), {{"event", "London#1"}});
  obs::emit_span_under(root, "gds-broadcast", "gds-1", SimTime::millis(120));
  const std::string tree = tracer.causal_tree();
  EXPECT_NE(tree.find("publish@London"), std::string::npos);
  EXPECT_NE(tree.find("event=London#1"), std::string::npos);
  EXPECT_NE(tree.find("\n    gds-broadcast@gds-1"), std::string::npos);
}

TEST(TracerTest, ChromeTraceJsonHasMetadataAndEvents) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  obs::emit_span("publish", "London", SimTime::millis(3));
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"publish\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":3000"), std::string::npos);
}

// ---------- metrics registry ------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  reg.counter("net.sent") += 3;
  reg.counter("net.sent") += 2;
  reg.gauge("net.in_flight") = 1.5;
  reg.histogram("lat").record(10.0);
  reg.histogram("lat").record(20.0);
  EXPECT_EQ(reg.counter("net.sent"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("net.in_flight"), 1.5);
  EXPECT_EQ(reg.histogram("lat").count(), 2u);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeriesAndSortInKey) {
  MetricsRegistry reg;
  reg.counter("gds.deliveries", {{"node", "gds-1"}}) = 7;
  reg.counter("gds.deliveries", {{"node", "gds-2"}}) = 9;
  EXPECT_EQ(reg.counter("gds.deliveries", {{"node", "gds-1"}}), 7u);
  EXPECT_EQ(reg.series_count(), 2u);
  // Label keys are sorted so insertion order cannot fork series.
  EXPECT_EQ(
      MetricsRegistry::series_key("m", {{"b", "2"}, {"a", "1"}}),
      MetricsRegistry::series_key("m", {{"a", "1"}, {"b", "2"}}));
}

TEST(MetricsRegistryTest, TextSnapshotIsSortedAndResetClears) {
  MetricsRegistry reg;
  reg.counter("z.last") = 1;
  reg.counter("a.first") = 2;
  const std::string snap = reg.text_snapshot();
  EXPECT_LT(snap.find("a.first = 2"), snap.find("z.last = 1"));
  reg.reset();
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_TRUE(reg.text_snapshot().empty());
}

TEST(MetricsRegistryTest, JsonGroupsByKind) {
  MetricsRegistry reg;
  reg.counter("c") = 1;
  reg.gauge("g") = 2.5;
  reg.histogram("h").record(4.0);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\":{\"c\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g\":2.5}"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
}

// Two identical seeded runs must export byte-identical metrics — the
// registry is part of the deterministic replay surface.
TEST(MetricsRegistryTest, ScenarioMetricsDeterministicUnderSeedReplay) {
  auto run = [] {
    workload::ScenarioConfig config;
    config.n_servers = 4;
    config.clients_per_server = 1;
    config.seed = 12;
    workload::Scenario scenario{config};
    scenario.setup_collections();
    scenario.subscribe_all(1);
    scenario.settle(SimTime::seconds(2));
    for (int i = 0; i < 3; ++i) {
      scenario.publish_random_rebuild(1);
      scenario.settle(SimTime::millis(300));
    }
    scenario.settle(SimTime::seconds(3));
    MetricsRegistry reg;
    scenario.collect_metrics(reg);
    return reg.text_snapshot();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// Matcher counters (interned eq index, shared-predicate memo, query
// cache) surface through every AlertingService's collect_metrics, and
// the cross-layer invariants hold after real traffic.
TEST(MetricsRegistryTest, MatcherCountersExportedPerServer) {
  workload::ScenarioConfig config;
  config.n_servers = 4;
  config.clients_per_server = 2;
  config.seed = 99;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  for (int i = 0; i < 5; ++i) {
    scenario.publish_random_rebuild(1);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(3));

  std::uint64_t probes = 0, evals = 0, hits = 0, misses = 0, hashes = 0;
  for (const alerting::AlertingService* svc : scenario.gsalert()) {
    const profiles::MatchStats& ms = svc->match_stats();
    probes += ms.eq_probe_hits;
    evals += ms.residual_evals;
    hits += ms.predicate_cache_hits;
    misses += ms.predicate_cache_misses;
    hashes += ms.eq_probe_string_hashes;
  }
  // Events flowed through the matcher...
  EXPECT_GT(probes + evals + hits, 0u);
  // ...every eval is a memo miss by definition...
  EXPECT_EQ(evals, misses);
  // ...and the probe loop never hashed a string (interning contract).
  EXPECT_EQ(hashes, 0u);

  MetricsRegistry reg;
  scenario.collect_metrics(reg);
  const std::string text = reg.text_snapshot();
  for (const char* series :
       {"alerting.match.eq_probe_hits", "alerting.match.candidates",
        "alerting.match.residual_evals",
        "alerting.match.predicate_cache_hits",
        "alerting.match.predicate_cache_misses",
        "alerting.match.query_cache_hits",
        "alerting.match.eq_probe_string_hashes",
        "alerting.match.distinct_residuals"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

// ---------- flight recorder -------------------------------------------------

TEST(FlightRecorderTest, RingIsBoundedPerNodeAndCountsEvictions) {
  FlightRecorder rec{/*per_node_capacity=*/3};
  for (int i = 0; i < 10; ++i) {
    rec.note(SimTime::millis(i), "gds-1", "line " + std::to_string(i));
  }
  rec.note(SimTime::millis(99), "gds-2", "only line");
  EXPECT_EQ(rec.total_entries(), 4u);  // 3 retained + 1 on the other node
  const std::string dump = rec.dump();
  EXPECT_NE(dump.find("flight recorder"), std::string::npos);
  EXPECT_NE(dump.find("(7 older evicted)"), std::string::npos);
  EXPECT_NE(dump.find("line 9"), std::string::npos);
  EXPECT_EQ(dump.find("line 0"), std::string::npos);  // evicted
  rec.clear();
  EXPECT_EQ(rec.total_entries(), 0u);
}

TEST(FlightRecorderTest, RecordsSpansAsSink) {
  FlightRecorder rec{8};
  obs::reset_ids();
  {
    obs::ScopedSink sink{&rec};
    obs::emit_span("publish", "London", SimTime::millis(5),
                   {{"event", "London#1"}});
  }
  const std::string dump = rec.dump();
  EXPECT_NE(dump.find("[London]"), std::string::npos);
  EXPECT_NE(dump.find("publish"), std::string::npos);
  EXPECT_NE(dump.find("event=London#1"), std::string::npos);
}

// ---------- end-to-end: the Figure 3 rename cascade -------------------------

// The distributed-collection world of examples/distributed_collection:
// Hamilton.D ⊃ London.E, a reader in Berlin watching Hamilton.D.
struct Fig3World {
  sim::Network net{3};
  gds::GdsTree tree;
  gsnet::GreenstoneServer* hamilton;
  gsnet::GreenstoneServer* london;
  gsnet::GreenstoneServer* berlin;
  alerting::Client* user;

  Fig3World() {
    net.set_default_path({.latency = SimTime::millis(20)});
    tree = gds::build_figure2_tree(net);
    hamilton = net.make_node<gsnet::GreenstoneServer>("Hamilton");
    london = net.make_node<gsnet::GreenstoneServer>("London");
    berlin = net.make_node<gsnet::GreenstoneServer>("Berlin");
    hamilton->set_extension(std::make_unique<alerting::AlertingService>());
    london->set_extension(std::make_unique<alerting::AlertingService>());
    berlin->set_extension(std::make_unique<alerting::AlertingService>());
    hamilton->attach_gds(tree.nodes[2]->id());
    london->attach_gds(tree.nodes[5]->id());
    berlin->attach_gds(tree.nodes[6]->id());
    hamilton->set_host_ref("London", london->id());
    london->set_host_ref("Hamilton", hamilton->id());
    user = net.make_node<alerting::Client>("reader-in-berlin");
    user->set_home(berlin->id());
    net.start();
    net.run_until(SimTime::millis(100));

    docmodel::CollectionConfig e;
    e.name = "E";
    docmodel::Document e1;
    e1.id = 5;
    london->add_collection(e, docmodel::DataSet{{e1}});
    docmodel::CollectionConfig d;
    d.name = "D";
    d.sub_collections = {CollectionRef{"London", "E"}};
    hamilton->add_collection(d, docmodel::DataSet{});
    net.run_until(net.now() + SimTime::seconds(2));
    user->subscribe("ref = hamilton.d");
    net.run_until(net.now() + SimTime::millis(300));
  }

  void rebuild_e() {
    docmodel::Document e1, e2;
    e1.id = 5;
    e2.id = 6;
    london->rebuild_collection("E", docmodel::DataSet{{e1, e2}});
    net.run_until(net.now() + SimTime::seconds(3));
  }
};

const Span* find_span(const std::vector<Span>& spans,
                      const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string arg_value(const Span& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return {};
}

TEST(TracePropagationTest, ViaChainSurvivesRenameCascade) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  Fig3World world;
  tracer.clear();  // keep only the rebuild's spans
  world.rebuild_e();
  ASSERT_EQ(world.user->notifications().size(), 1u);

  const Span* rename = find_span(tracer.spans(), "rename");
  ASSERT_NE(rename, nullptr);
  EXPECT_EQ(rename->node, "Hamilton");
  EXPECT_EQ(arg_value(*rename, "from"), "London.E");
  EXPECT_EQ(arg_value(*rename, "to"), "Hamilton.D");
  EXPECT_EQ(arg_value(*rename, "via"), "London.E");
  // The rename happened one GS-network hop away from the origin.
  EXPECT_GE(rename->hop, 1);

  const Span* forward = find_span(tracer.spans(), "aux-forward");
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->node, "London");
  // Rename and forward belong to the same trace: the cascade is causally
  // attributed to London's original publish.
  EXPECT_EQ(rename->trace_id, forward->trace_id);

  // The Berlin reader's notification is in the same trace, further down
  // the hop chain (GS forward + GDS flood).
  const Span* notify = nullptr;
  for (const Span& s : tracer.spans()) {
    if (s.name == "notify" && s.node == "Berlin" &&
        s.trace_id == forward->trace_id) {
      notify = &s;
    }
  }
  ASSERT_NE(notify, nullptr);
  EXPECT_GT(notify->hop, rename->hop);

  // One trace tells the whole story in the causal tree.
  const std::string tree = tracer.causal_tree(forward->trace_id);
  EXPECT_NE(tree.find("publish@London"), std::string::npos);
  EXPECT_NE(tree.find("aux-forward@London"), std::string::npos);
  EXPECT_NE(tree.find("rename@Hamilton"), std::string::npos);
  EXPECT_NE(tree.find("notify@Berlin"), std::string::npos);
}

TEST(TracePropagationTest, GdsDedupDropsAreRecordedAsSpans) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  Fig3World world;
  tracer.clear();
  // Deliver every packet twice: each duplicated traced broadcast must be
  // suppressed by the GDS dedup cache and leave a gds-dup-drop span.
  world.net.chaos().duplication = 1.0;
  world.rebuild_e();
  world.net.chaos().duplication = 0.0;

  std::size_t drops = 0;
  for (const Span& s : tracer.spans()) {
    if (s.name != "gds-dup-drop") continue;
    ++drops;
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_FALSE(arg_value(s, "origin").empty());
  }
  EXPECT_GT(drops, 0u);
  // Despite the duplication, the reader still hears exactly once.
  EXPECT_EQ(world.user->notifications().size(), 1u);
}

TEST(TracePropagationTest, RetriesAttachToTheOriginalTrace) {
  Tracer tracer;
  obs::reset_ids();
  obs::ScopedSink sink{&tracer};
  Fig3World world;
  tracer.clear();
  // Sever Hamilton—London: the aux forward goes to the reliable outbox
  // and retries until the link heals.
  world.net.block_pair(world.hamilton->id(), world.london->id());
  world.rebuild_e();
  world.net.run_until(world.net.now() + SimTime::seconds(3));
  world.net.unblock_pair(world.hamilton->id(), world.london->id());
  world.net.run_until(world.net.now() + SimTime::seconds(5));
  ASSERT_EQ(world.user->notifications().size(), 1u);

  const Span* forward = find_span(tracer.spans(), "aux-forward");
  ASSERT_NE(forward, nullptr);
  const Span* retry = find_span(tracer.spans(), "retry");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->trace_id, forward->trace_id);
  const Span* rename = find_span(tracer.spans(), "rename");
  ASSERT_NE(rename, nullptr);
  EXPECT_EQ(rename->trace_id, forward->trace_id);
}

// ---------- latency layer ---------------------------------------------------

TEST(MetricsRegistryTest, LatencySeriesRendersInHistogramsGroup) {
  MetricsRegistry reg;
  reg.histogram("latency.e2e_ms").record(3.0);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"latency.e2e_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  const std::string text = reg.text_snapshot();
  EXPECT_NE(text.find("latency.e2e_ms = count=1"), std::string::npos);
}

TEST(LatencyTrackerTest, Fig3RebuildYieldsEndToEndAndStageSamples) {
  obs::reset_ids();
  obs::LatencyTracker tracker;
  obs::ScopedSink sink{&tracker};
  Fig3World world;
  tracker.clear();  // keep only the rebuild's latency
  world.rebuild_e();
  ASSERT_EQ(world.user->notifications().size(), 1u);

  const obs::LatencyBreakdown& b = tracker.breakdown();
  // The Berlin reader's notification: one e2e sample (plus any local
  // notifies the cascade produced), measured in sim-time millis.
  EXPECT_GE(b.e2e_ms.count(), 1u);
  EXPECT_GT(b.e2e_ms.max(), 0.0);
  // The flood progressed through GDS deliveries, several hops deep.
  EXPECT_GE(b.flood_ms.count(), 1u);
  EXPECT_GE(b.notify_hops.count(), 1u);
  EXPECT_GT(b.notify_hops.max(), 1.0);
  // Every notify matched a known publish.
  EXPECT_GE(tracker.notifies_seen(), 1u);
  EXPECT_EQ(tracker.orphan_spans(), 0u);
  // e2e covers the whole pipeline, so it cannot be shorter than the
  // first flood hop (bucket resolution: compare against buckets).
  EXPECT_GE(b.e2e_ms.quantile(1.0), b.flood_ms.quantile(0.0));
}

TEST(LatencyTrackerTest, RetransmitDelayRecordedAcrossSeveredLink) {
  obs::reset_ids();
  obs::LatencyTracker tracker;
  obs::ScopedSink sink{&tracker};
  Fig3World world;
  tracker.clear();
  world.net.block_pair(world.hamilton->id(), world.london->id());
  world.rebuild_e();
  world.net.run_until(world.net.now() + SimTime::seconds(3));
  world.net.unblock_pair(world.hamilton->id(), world.london->id());
  world.net.run_until(world.net.now() + SimTime::seconds(5));
  ASSERT_EQ(world.user->notifications().size(), 1u);

  const obs::LatencyBreakdown& b = tracker.breakdown();
  EXPECT_GE(b.retransmit_delay_ms.count(), 1u);
  // Retries fired across a multi-second outage: at least one reports a
  // delay-since-first-send beyond the first RTO.
  EXPECT_GT(b.retransmit_delay_ms.max(), 100.0);
  EXPECT_GE(b.e2e_ms.count(), 1u);
}

TEST(LatencyBreakdownTest, ExportAlwaysEmitsFullSchema) {
  obs::LatencyBreakdown b;
  b.e2e_ms.record(12.0);
  MetricsRegistry reg;
  b.export_to(reg);
  const std::string text = reg.text_snapshot();
  // Populated and empty stages alike appear: the bench sentinel needs a
  // fixed schema to diff against.
  for (const char* name :
       {"latency.e2e_ms", "latency.stage.flood_ms",
        "latency.stage.park_dwell_ms", "latency.stage.retransmit_delay_ms",
        "latency.stage.match_cpu_us", "latency.stage.fsync_us",
        "latency.notify_hops"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// ---------- store-and-forward trace integrity (park / flush) ----------------

/// Minimal GS-server stand-in for the GDS store-and-forward path (same
/// shape as gds_test's FakeServer).
class RelayServer : public sim::Node {
 public:
  void attach_gds(NodeId gds_node) { pending_gds_ = gds_node; }
  void on_start() override {
    client_.attach(&network(), id(), name(), pending_gds_);
    client_.start();
  }
  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto decoded = wire::unpack(packet);
    if (decoded.ok() &&
        decoded.value().type == wire::MessageType::kGdsDeliver) {
      ++delivered;
    }
  }
  gds::GdsClient& client() { return client_; }
  int delivered = 0;

 private:
  gds::GdsClient client_;
  NodeId pending_gds_;
};

TEST(TracePropagationTest, ParkedRelayKeepsTraceAndRecordsDwell) {
  Tracer tracer;
  obs::LatencyTracker latency;
  obs::reset_ids();
  obs::ScopedSink trace_sink{&tracer};
  obs::ScopedSink latency_sink{&latency};

  sim::Network net{7};
  gds::GdsTree tree = gds::build_tree(net, 2, 2);
  auto* origin = net.make_node<RelayServer>("origin-server");
  origin->attach_gds(tree.leaf_for(0)->id());
  net.start();
  net.run_until(SimTime::millis(100));
  // `late` exists but has not started (created after net.start(), its
  // on_start comes later): the name is unknown tree-wide, so the relay
  // climbs to the root and parks there.
  auto* late = net.make_node<RelayServer>("late-server");
  late->attach_gds(tree.leaf_for(1)->id());
  std::uint64_t trace_id = 0;
  {
    const obs::TraceScope publish{
        obs::emit_span("publish", "origin-server", net.now(), {})};
    trace_id = obs::current_context().trace_id;
    origin->client().relay("late-server", 999, {});
  }
  ASSERT_NE(trace_id, 0u);
  net.run_until(net.now() + SimTime::seconds(1));

  const Span* park = find_span(tracer.spans(), "gds-park");
  ASSERT_NE(park, nullptr);
  // Custody does not break causality: the parked frame still carries
  // the publish's trace.
  EXPECT_EQ(park->trace_id, trace_id);

  // Let the frame dwell, then bring the target up; registration flushes
  // the parked relay and delivers exactly once.
  net.run_until(net.now() + SimTime::seconds(2));
  late->on_start();
  net.run_until(net.now() + SimTime::seconds(5));
  EXPECT_EQ(late->delivered, 1);

  const Span* flush = find_span(tracer.spans(), "gds-park-flush");
  ASSERT_NE(flush, nullptr);
  EXPECT_EQ(flush->trace_id, trace_id);
  // The flush span reports how long custody held the frame — about the
  // 2s+ the target stayed down (sim-time, so deterministic).
  const double dwell_ms = std::stod(arg_value(*flush, "dwell_ms"));
  EXPECT_GE(dwell_ms, 2000.0);
  // And the latency layer turned that span into a park-dwell sample.
  ASSERT_GE(latency.breakdown().park_dwell_ms.count(), 1u);
  EXPECT_GE(latency.breakdown().park_dwell_ms.max(), 2000.0);
}

// ---------- continuous profiler ---------------------------------------------

TEST(ProfilerTest, ScopesAreNoOpsWithoutAnInstalledProfiler) {
  ASSERT_EQ(obs::Profiler::current(), nullptr);
  {
    GSALERT_PROFILE("orphan");
  }
  obs::Profiler profiler;
  EXPECT_EQ(profiler.scopes_entered(), 0u);
  EXPECT_EQ(profiler.collapsed_stacks(), "");
}

TEST(ProfilerTest, CallTreeNestsAndCountsCalls) {
  obs::Profiler profiler;
  profiler.enable();
  for (int i = 0; i < 3; ++i) {
    GSALERT_PROFILE("outer");
    {
      GSALERT_PROFILE("inner");
    }
    {
      GSALERT_PROFILE("inner");
    }
  }
  profiler.disable();
  EXPECT_EQ(profiler.scopes_entered(), 9u);
  const std::string tree = profiler.call_tree();
  EXPECT_NE(tree.find("outer calls=3"), std::string::npos) << tree;
  EXPECT_NE(tree.find("inner calls=6"), std::string::npos) << tree;
  // Collapsed stacks carry the full path for flamegraph tooling.
  const std::string stacks = profiler.collapsed_stacks();
  EXPECT_NE(stacks.find("outer;inner "), std::string::npos) << stacks;
}

TEST(ProfilerTest, ExportAndOverheadAreMeasured) {
  obs::Profiler profiler;
  profiler.enable();
  {
    GSALERT_PROFILE("scope-a");
  }
  profiler.disable();
  EXPECT_GT(profiler.per_scope_overhead_ns(), 0.0);
  EXPECT_GT(profiler.profiled_wall_ns(), 0u);
  const double overhead = profiler.overhead_fraction();
  EXPECT_GE(overhead, 0.0);
  EXPECT_LT(overhead, 1.0);
  MetricsRegistry reg;
  profiler.export_to(reg);
  const std::string text = reg.text_snapshot();
  EXPECT_NE(text.find("profiler.scope.calls{scope=scope-a} = 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("profiler.overhead_fraction"), std::string::npos);
  EXPECT_NE(text.find("profiler.scopes_entered"), std::string::npos);
}

TEST(ProfilerTest, ReplacingTheInstalledProfilerUninstallsCleanly) {
  obs::Profiler first;
  first.enable();
  {
    obs::Profiler second;
    second.enable();
    EXPECT_EQ(obs::Profiler::current(), &second);
    {
      GSALERT_PROFILE("in-second");
    }
    second.disable();
    EXPECT_EQ(second.scopes_entered(), 1u);
  }
  // `first` was displaced, not re-installed; nothing dangles.
  EXPECT_EQ(obs::Profiler::current(), nullptr);
  first.disable();
}

// ---------- per-node health scoreboard --------------------------------------

TEST(HealthScoreboardTest, ListsEveryNodeAndExportsGauges) {
  workload::ScenarioConfig config;
  config.n_servers = 3;
  config.clients_per_server = 1;
  config.seed = 17;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.subscribe_all(1);
  scenario.settle(SimTime::seconds(2));
  scenario.publish_rebuild(0, "C0", 2);
  scenario.settle(SimTime::seconds(5));

  const std::string board = workload::health_scoreboard(scenario);
  EXPECT_NE(board.find("node"), std::string::npos);
  EXPECT_NE(board.find("jrnl_pend"), std::string::npos);
  for (gsnet::GreenstoneServer* s : scenario.servers()) {
    EXPECT_NE(board.find(s->name()), std::string::npos) << board;
  }

  MetricsRegistry reg;
  workload::collect_health(scenario, reg);
  const std::string text = reg.text_snapshot();
  for (const char* name :
       {"health.node.unacked", "health.node.retransmits",
        "health.node.timeouts", "health.node.parked",
        "health.node.delivery_queue", "health.node.delivery_spilled",
        "health.node.journal_pending_bytes",
        "health.node.journal_log_bytes"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// ---------- metrics naming lint ---------------------------------------------

#ifdef GSALERT_OBSERVABILITY_DOC
// Every metric name this build can export must appear in
// docs/OBSERVABILITY.md — an undocumented metric is a review failure,
// and a renamed one must update the doc (and the sentinel baselines) in
// the same change. The representative registry below runs every export
// path: scenario + network, outcome + latency breakdown, node health,
// and the profiler.
TEST(MetricsNamingLintTest, EveryExportedMetricNameIsDocumented) {
  std::ifstream doc_in{GSALERT_OBSERVABILITY_DOC};
  ASSERT_TRUE(doc_in.good()) << "missing doc: " << GSALERT_OBSERVABILITY_DOC;
  std::stringstream doc_buf;
  doc_buf << doc_in.rdbuf();
  const std::string doc = doc_buf.str();

  workload::ScenarioConfig config;
  config.n_servers = 4;
  config.clients_per_server = 2;
  config.seed = 23;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.setup_distributed(2);
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  scenario.publish_rebuild(0, "C0", 2);
  scenario.settle(SimTime::seconds(8));

  MetricsRegistry reg;
  scenario.collect_metrics(reg);
  workload::collect_health(scenario, reg);
  workload::record_outcome(reg, scenario.outcome());
  obs::Profiler profiler;
  profiler.enable();
  {
    GSALERT_PROFILE("lint.scope");
  }
  profiler.disable();
  profiler.export_to(reg);

  std::set<std::string> undocumented;
  std::istringstream snapshot{reg.text_snapshot()};
  std::string line;
  while (std::getline(snapshot, line)) {
    // "name{labels} = value" -> base name up to '{' or ' '.
    const std::size_t cut = line.find_first_of("{ ");
    if (cut == std::string::npos) continue;
    const std::string name = line.substr(0, cut);
    if (doc.find(name) == std::string::npos) undocumented.insert(name);
  }
  std::string missing;
  for (const std::string& name : undocumented) missing += "  " + name + "\n";
  EXPECT_TRUE(undocumented.empty())
      << "metric names missing from docs/OBSERVABILITY.md:\n"
      << missing;
}
#endif  // GSALERT_OBSERVABILITY_DOC

}  // namespace
}  // namespace gsalert
