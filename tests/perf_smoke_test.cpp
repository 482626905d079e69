// Perf smoke (ctest label `perf`): bounds the per-event copy volume and
// encode-allocation count of the GDS broadcast send path against the
// checked-in budget in tests/perf_budget.txt. This catches regressions
// that reintroduce per-hop payload copies or per-fan-out re-encodes
// without needing the full bench harness: the shared-frame design keeps
// bytes_copied to headers only, so the copied-per-event ceiling is tiny
// compared to the flooded payload volume (which rides in bytes_shared).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "docmodel/event.h"
#include "gds/gds_client.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "journal/journal.h"
#include "obs/latency.h"
#include "obs/profiler.h"
#include "profiles/event_context.h"
#include "profiles/index.h"
#include "profiles/parser.h"
#include "sim/network.h"
#include "sim/storage.h"
#include "wire/codec.h"
#include "wire/envelope.h"
#include "workload/scenario.h"

namespace gsalert {
namespace {

// Budget file: `key value` lines, `#` comments. Values are hard ceilings
// (or floors, for min_*) on the measured run. Update deliberately, with
// a bench run justifying the new number, never to quiet a red test.
std::map<std::string, std::uint64_t> load_budget(const std::string& path) {
  std::map<std::string, std::uint64_t> budget;
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream row{line};
    std::string key;
    std::uint64_t value = 0;
    if (row >> key >> value) budget[key] = value;
  }
  return budget;
}

// Minimal registered server: counts kGdsDeliver packets (same shape as
// the bench_fig2_gds_broadcast sweep sink).
class SinkServer : public sim::Node {
 public:
  void attach_gds(NodeId gds) { gds_ = gds; }
  void on_start() override {
    client_.attach(&network(), id(), name(), gds_);
    client_.start();
  }
  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() && env.value().type == wire::MessageType::kGdsDeliver) {
      ++delivered_;
    }
  }
  void on_timer(std::uint64_t token) override {
    if (token == gds::GdsClient::kRefreshTimer) client_.on_refresh_timer();
  }
  void broadcast(std::size_t payload_bytes) {
    client_.broadcast(0x7777,
                      std::vector<std::byte>(payload_bytes, std::byte{0x5A}));
  }
  std::uint64_t delivered() const { return delivered_; }

 private:
  gds::GdsClient client_;
  NodeId gds_;
  std::uint64_t delivered_ = 0;
};

TEST(PerfSmokeTest, BroadcastSendPathStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty())
      << "missing or empty budget file: " << GSALERT_PERF_BUDGET_FILE;
  for (const char* key :
       {"events", "fanout", "payload", "max_bytes_copied_per_event",
        "min_bytes_shared_per_event", "max_writer_grows_per_event",
        "max_reserve_shortfalls", "max_sched_heap_spills"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int events = static_cast<int>(budget.at("events"));
  const int fanout = static_cast<int>(budget.at("fanout"));
  const std::size_t payload = budget.at("payload");

  sim::Network net{7};
  net.set_default_path({.latency = SimTime::millis(5)});
  gds::GdsTree tree = gds::build_tree(net, fanout, 2);
  std::vector<SinkServer*> sinks;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    auto* s = net.make_node<SinkServer>("sink-" + std::to_string(i));
    s->attach_gds(tree.nodes[i]->id());
    sinks.push_back(s);
  }
  net.start();
  net.run_until(SimTime::millis(300));
  net.reset_stats();
  wire::reset_writer_stats();

  for (int i = 0; i < events; ++i) {
    sinks[0]->broadcast(payload);
    net.run_until(net.now() + SimTime::millis(50));
  }

  std::uint64_t delivered = 0;
  for (const SinkServer* s : sinks) delivered += s->delivered();
  // Sanity: the flood actually ran — every sink hears every event.
  ASSERT_GE(delivered,
            static_cast<std::uint64_t>(events) * (sinks.size() - 1));

  const sim::NetStats& ns = net.stats();
  const wire::WriterStats& ws = wire::writer_stats();
  const std::uint64_t copied_per_event =
      ns.bytes_copied / static_cast<std::uint64_t>(events);
  const std::uint64_t shared_per_event =
      ns.bytes_shared / static_cast<std::uint64_t>(events);
  const std::uint64_t grows_per_event =
      ws.grows / static_cast<std::uint64_t>(events);
  const sim::SchedulerStats& sched = net.scheduler().stats();
  std::printf(
      "perf-smoke measured: bytes_copied/event=%llu bytes_shared/event=%llu "
      "writer_grows/event=%llu reserve_shortfalls=%llu sched_executed=%llu "
      "sched_heap_spills=%llu\n",
      static_cast<unsigned long long>(copied_per_event),
      static_cast<unsigned long long>(shared_per_event),
      static_cast<unsigned long long>(grows_per_event),
      static_cast<unsigned long long>(ws.reserve_shortfalls),
      static_cast<unsigned long long>(sched.executed),
      static_cast<unsigned long long>(sched.heap_spills));

  EXPECT_LE(copied_per_event, budget.at("max_bytes_copied_per_event"))
      << "send path copies more bytes per event than budgeted — did a "
         "payload copy sneak back into the fan-out?";
  EXPECT_GE(shared_per_event, budget.at("min_bytes_shared_per_event"))
      << "too few bytes ride shared frames — fan-out is no longer "
         "aliasing the encoded body";
  EXPECT_LE(grows_per_event, budget.at("max_writer_grows_per_event"))
      << "encode path allocates more than budgeted per event";
  EXPECT_LE(ws.reserve_shortfalls, budget.at("max_reserve_shortfalls"))
      << "a Writer::reserve() estimate undershot; fix the wire_size "
         "estimate at the encode site";
  EXPECT_LE(sched.heap_spills, budget.at("max_sched_heap_spills"))
      << "a scheduled closure outgrew SmallAction's inline buffer — the "
         "event loop is heap-allocating per event again; shrink the "
         "capture (or justify raising kInlineBytes in small_action.h)";
}

// Filter-matching budget: with heavy predicate sharing, per-event matcher
// work must scale with the number of DISTINCT residual predicates, not
// the number of profiles, and the interned eq index must spend zero
// string hashes inside its probe loop (they all happen once per event in
// EventContext::macro_symbols).
TEST(PerfSmokeTest, FilterMatchingStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key :
       {"match_profiles", "match_dup_pct", "match_events",
        "max_eq_probe_string_hashes", "max_residual_evals_per_event"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int n_profiles = static_cast<int>(budget.at("match_profiles"));
  const int dup_pct = static_cast<int>(budget.at("match_dup_pct"));
  const int n_events = static_cast<int>(budget.at("match_events"));

  // dup_pct% of profiles draw their filter query from this shared pool;
  // the rest are unique. Every profile also carries the same inequality
  // rider, so the residual table is 1 + pool + uniques entries.
  static const std::vector<std::string> pool{
      "text:term1 OR text:term2", "text:term3",
      "title:title-alpha0",       "creator:creator-beta1",
      "text:term5 AND text:term1", "text:term8",
      "title:title-gamma2 OR text:term4", "text:term13"};
  profiles::ProfileIndex index;
  const int unique_every = 100 / (100 - dup_pct);  // deterministic mix
  for (int i = 0; i < n_profiles; ++i) {
    const std::string query = (i % unique_every == 0)
                                  ? "creator:u" + std::to_string(i)
                                  : pool[static_cast<std::size_t>(i) %
                                         pool.size()];
    auto parsed = profiles::parse_profile(
        "host = host0 AND type != collection_deleted AND doc ~ \"" + query +
        "\"");
    ASSERT_TRUE(parsed.ok());
    parsed.value().id = static_cast<profiles::ProfileId>(i + 1);
    ASSERT_TRUE(index.add(std::move(parsed).take()));
  }

  std::uint64_t max_evals = 0, string_hashes = 0, cache_hits = 0;
  for (int e = 0; e < n_events; ++e) {
    docmodel::Event event;
    event.id = {"Host0", static_cast<std::uint64_t>(e + 1)};
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = {"Host0", "C"};
    event.physical_origin = event.collection;
    for (int d = 0; d < 3; ++d) {
      docmodel::Document doc;
      doc.id = static_cast<DocumentId>(e * 3 + d + 1);
      doc.metadata.add("title", "title-alpha" + std::to_string(d));
      doc.metadata.add("creator", "creator-beta" + std::to_string(d));
      doc.terms = {"term" + std::to_string(1 + (e + d) % 16), "term1"};
      event.docs.push_back(std::move(doc));
    }
    const profiles::EventContext ctx = profiles::EventContext::from(event);
    profiles::MatchStats stats;
    (void)index.match(ctx, &stats);
    // Hard layering invariant: memoization caps evals at the number of
    // distinct live residuals, whatever the candidate count.
    ASSERT_LE(stats.residual_evals, stats.distinct_residuals);
    max_evals = std::max(max_evals, stats.residual_evals);
    string_hashes += stats.eq_probe_string_hashes;
    cache_hits += stats.predicate_cache_hits;
  }
  std::printf(
      "perf-smoke matcher: profiles=%d distinct_residuals=%zu "
      "max_residual_evals/event=%llu predicate_cache_hits=%llu "
      "eq_probe_string_hashes=%llu\n",
      n_profiles, index.shared_predicate_count(),
      static_cast<unsigned long long>(max_evals),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(string_hashes));

  EXPECT_LE(string_hashes, budget.at("max_eq_probe_string_hashes"))
      << "the eq probe loop hashed strings — symbol interning is no "
         "longer covering the hot path";
  EXPECT_LE(max_evals, budget.at("max_residual_evals_per_event"))
      << "per-event residual work exceeds the distinct-predicate budget — "
         "did predicate sharing or memoization regress?";
}

// Transport steady-state budget: on a healthy (zero-loss) network the
// retry machinery must stay silent — every request is answered within
// its first RTO and every channel entry acked on the first attempt. A
// nonzero count here means the transport layer burns bandwidth even
// when nothing is wrong (e.g. an RTO tighter than the reply RTT, or an
// ack path that went missing).
TEST(PerfSmokeTest, TransportSteadyStateHasNoRetransmits) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key : {"steady_events", "max_steady_retransmits",
                          "max_steady_timeouts"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const int events = static_cast<int>(budget.at("steady_events"));

  workload::ScenarioConfig config;
  config.n_servers = 6;
  config.seed = 11;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.setup_distributed(3);  // exercise aux-profile channels too
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  for (int i = 0; i < events; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(5));

  std::uint64_t retransmits = 0, timeouts = 0, requests = 0, sends = 0;
  for (gsnet::GreenstoneServer* s : scenario.servers()) {
    retransmits += s->endpoint_stats().retransmits +
                   s->gds().endpoint_stats().retransmits;
    timeouts += s->endpoint_stats().timeouts +
                s->gds().endpoint_stats().timeouts;
    requests += s->endpoint_stats().requests +
                s->gds().endpoint_stats().requests;
  }
  for (const alerting::Client* c : scenario.clients()) {
    retransmits += c->endpoint_stats().retransmits;
    timeouts += c->endpoint_stats().timeouts;
    requests += c->endpoint_stats().requests;
  }
  for (const alerting::AlertingService* svc : scenario.gsalert()) {
    retransmits += svc->channel_stats().retransmits;
    sends += svc->channel_stats().sends;
  }
  std::printf(
      "perf-smoke transport: endpoint_requests=%llu channel_sends=%llu "
      "retransmits=%llu timeouts=%llu\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(sends),
      static_cast<unsigned long long>(retransmits),
      static_cast<unsigned long long>(timeouts));
  ASSERT_GT(requests + sends, 0u);  // the transport path actually ran

  EXPECT_LE(retransmits, budget.at("max_steady_retransmits"))
      << "transport retransmits on a zero-loss network — an RTO is "
         "tighter than the reply RTT, or an ack path regressed";
  EXPECT_LE(timeouts, budget.at("max_steady_timeouts"))
      << "transport deadlines expired on a zero-loss network";
}

// End-to-end latency SLO gate (docs/OBSERVABILITY.md "Latency SLOs"):
// the seeded scenario's sim-time publish->notify quantiles are exactly
// reproducible, so the p50/p99 ceilings are hard gates, not noisy
// timing assertions. A breach means the pipeline grew a hop, a retry or
// a batching delay — justify the new number with a bench run before
// raising the ceiling.
TEST(PerfSmokeTest, EndToEndLatencyMeetsSlo) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key : {"slo_events", "slo_e2e_p50_ms", "slo_e2e_p99_ms"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }

  workload::ScenarioConfig config;
  config.n_servers = 6;
  config.seed = 11;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.setup_distributed(3);
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(2));
  const int events = static_cast<int>(budget.at("slo_events"));
  for (int i = 0; i < events; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::millis(300));
  }
  scenario.settle(SimTime::seconds(5));

  const obs::LatencyBreakdown& latency = scenario.outcome().latency;
  std::printf("perf-smoke e2e latency: %s\n",
              latency.e2e_ms.summary().c_str());
  ASSERT_GT(latency.e2e_ms.count(), 0u) << "no notifications measured";
  EXPECT_LE(latency.e2e_ms.p50(),
            static_cast<double>(budget.at("slo_e2e_p50_ms")));
  EXPECT_LE(latency.e2e_ms.p99(),
            static_cast<double>(budget.at("slo_e2e_p99_ms")));
}

// Continuous-profiler overhead gate: with the scoped timers that ride
// every sim dispatch, match and journal commit enabled, the profiler's
// self-measured share of wall time must stay under the budget ceiling
// (<5%), or it is not a "continuous" profiler.
TEST(PerfSmokeTest, ProfilerOverheadStaysWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  ASSERT_TRUE(budget.count("max_profiler_overhead_pct"));

  obs::Profiler profiler;
  profiler.enable();
  {
    workload::ScenarioConfig config;
    config.n_servers = 6;
    config.seed = 11;
    workload::Scenario scenario{config};
    scenario.setup_collections();
    scenario.subscribe_all(2);
    scenario.settle(SimTime::seconds(2));
    for (int i = 0; i < 10; ++i) {
      scenario.publish_random_rebuild(2);
      scenario.settle(SimTime::millis(300));
    }
    scenario.settle(SimTime::seconds(5));
  }
  profiler.disable();

  // The run must have actually exercised the instrumented paths.
  ASSERT_GT(profiler.scopes_entered(), 500u);
  const double pct = profiler.overhead_fraction() * 100.0;
  std::printf(
      "perf-smoke profiler: %llu scopes, %.1fns/scope, overhead %.3f%%\n",
      static_cast<unsigned long long>(profiler.scopes_entered()),
      profiler.per_scope_overhead_ns(), pct);
  EXPECT_LE(pct,
            static_cast<double>(budget.at("max_profiler_overhead_pct")));
}

// Journal append budget: a record is framed in the journal's one reused
// buffer and copied once into the log, so after a warm-up append sizes
// that buffer, appends construct no wire::Writer and grow none (each
// append used to construct two).
TEST(PerfSmokeTest, JournalAppendsConstructNoWriters) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key : {"journal_appends", "max_journal_append_writers",
                          "max_journal_append_grows"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const std::uint64_t appends = budget.at("journal_appends");

  sim::Storage storage;
  journal::Journal journal{storage, "perf", "perf-node",
                           {.compact_threshold_bytes = 0}};
  const journal::RecordSink log{&journal};
  // Payloads vary in size, as the delivery stage's records do.
  const auto append = [&](std::uint64_t i) {
    const std::string name(static_cast<std::size_t>(i % 40), 'n');
    log.put(70, journal::str_wire(name) + 8, [&](wire::Writer& w) {
      w.str(name);
      w.u64(i);
    });
  };
  append(0);
  wire::reset_writer_stats();
  for (std::uint64_t i = 1; i <= appends; ++i) {
    append(i);
    if (i % 8 == 0) journal.commit();
  }
  journal.commit();
  const wire::WriterStats& ws = wire::writer_stats();
  std::printf("perf-smoke journal: appends=%llu writers=%llu grows=%llu\n",
              static_cast<unsigned long long>(appends),
              static_cast<unsigned long long>(ws.writers),
              static_cast<unsigned long long>(ws.grows));
  ASSERT_EQ(journal.stats().appends, appends + 1);
  EXPECT_LE(ws.writers, budget.at("max_journal_append_writers"))
      << "journal appends construct Writers again";
  EXPECT_LE(ws.grows, budget.at("max_journal_append_grows"))
      << "the journal's frame buffer grows after warm-up";
}

// Delivery fan-out budget: one server with credit-managed delivery and
// immediate / coalesce / digest policies mixed by subscription id (the
// perfbench storm shape, small). Counts every wire::Writer constructed on
// the publish -> notify path, journal records and client acks included,
// per notification delivered.
TEST(PerfSmokeTest, DeliveryWritersPerNotificationStayWithinBudget) {
  const auto budget = load_budget(GSALERT_PERF_BUDGET_FILE);
  ASSERT_FALSE(budget.empty());
  for (const char* key :
       {"delivery_subscriptions", "delivery_events",
        "max_delivery_writers_per_100_notifications"}) {
    ASSERT_TRUE(budget.count(key)) << "budget file missing key: " << key;
  }
  const std::uint64_t subscriptions = budget.at("delivery_subscriptions");
  const int events = static_cast<int>(budget.at("delivery_events"));

  sim::Network net{11};
  net.set_default_path(
      {.latency = SimTime::millis(10), .jitter = SimTime::millis(4)});
  auto* server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  alerting::AlertingConfig config;
  config.delivery.credits = 4;
  config.delivery.default_window = SimTime::millis(100);
  auto owned = std::make_unique<alerting::AlertingService>(config);
  alerting::AlertingService* service = owned.get();
  server->set_extension(std::move(owned));
  std::uint64_t notifications = 0;
  std::vector<alerting::Client*> clients;
  for (int i = 0; i < 8; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    auto* client = net.make_node<alerting::Client>(name);
    client->set_home(server->id());
    client->set_notification_sink(
        [&](SubscriptionId, const docmodel::Event&, SimTime) {
          ++notifications;
        });
    clients.push_back(client);
  }
  net.start();
  net.run_until(SimTime::seconds(1));
  for (std::uint64_t i = 0; i < subscriptions; ++i) {
    std::string profile = "ref = hamilton.c";
    profile += std::to_string(i % 4);
    const auto sub =
        service->subscribe_local(clients[i % clients.size()]->id(), profile);
    ASSERT_TRUE(sub.ok());
    if (sub.value() % 3 == 1) {
      ASSERT_TRUE(service->set_delivery_policy(
          sub.value(), {alerting::DeliveryMode::kCoalesce,
                        SimTime::millis(100)}));
    } else if (sub.value() % 3 == 2) {
      ASSERT_TRUE(service->set_delivery_policy(
          sub.value(),
          {alerting::DeliveryMode::kDigest, SimTime::millis(300)}));
    }
  }

  wire::reset_writer_stats();
  for (int e = 0; e < events; ++e) {
    docmodel::Event event;
    event.id = {server->name(), static_cast<std::uint64_t>(e + 1)};
    event.type = docmodel::EventType::kCollectionRebuilt;
    std::string coll = "c";
    coll += std::to_string(e % 4);
    event.collection = {"Hamilton", coll};
    event.physical_origin = event.collection;
    event.build_version = static_cast<std::uint64_t>(e + 2);
    server->extension()->on_local_event(event);
    net.run_until(net.now() + SimTime::millis(e % 4 == 3 ? 200 : 20));
  }
  for (int i = 0; i < 40 && (service->delivery().queue_depth_total() > 0 ||
                             service->delivery().inflight() > 0);
       ++i) {
    net.run_until(net.now() + SimTime::millis(500));
  }
  ASSERT_EQ(service->delivery().queue_depth_total(), 0u);
  ASSERT_EQ(service->delivery().inflight(), 0u);
  ASSERT_EQ(notifications, service->stats().notifications_sent);
  ASSERT_GT(notifications, 0u);

  const std::uint64_t writers = wire::writer_stats().writers;
  const std::uint64_t per_100 = writers * 100 / notifications;
  std::printf(
      "perf-smoke delivery: notifications=%llu writers=%llu "
      "writers/100 notifications=%llu\n",
      static_cast<unsigned long long>(notifications),
      static_cast<unsigned long long>(writers),
      static_cast<unsigned long long>(per_100));
  EXPECT_LE(per_100, budget.at("max_delivery_writers_per_100_notifications"))
      << "the delivery path constructs more Writers per notification than "
         "budgeted — a journal record or digest entry copy is back";
}

}  // namespace
}  // namespace gsalert
