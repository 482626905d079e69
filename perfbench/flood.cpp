// flood: the paper's federated path. A workload::Scenario of 200 DL servers
// on the multi-region topology-zoo world with the adaptive GDS tree; each
// server has 2 clients x 20 generated profiles (every ProfileKind, query
// watches included), 2 collections and unmanaged immediate delivery. All
// 400 collections are rebuilt once, in a seeded order, 20 ms apart, then a
// drain. Every event crosses the GDS tree and is filtered at every server:
// sim kernel, wire decode, GDS relay and 200 small per-server matchers; the
// delivery stage is idle.
#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "layers.h"
#include "profiles/event_context.h"
#include "workload/scenario.h"

using namespace gsalert;

namespace perfbench {

namespace {

constexpr int kServers = 200;
constexpr int kClientsPerServer = 2;
constexpr int kProfilesPerClient = 20;
constexpr int kCollectionsPerServer = 2;
constexpr int kRebuilds = kServers * kCollectionsPerServer;
constexpr int kFreshDocs = 3;
constexpr SimTime kPublishGap = SimTime::millis(20);

}  // namespace

void run_flood(const Options& opts, Report& report, Tally& tally) {
  SpanLog spans;
  if (opts.trace) spans.enable();
  const double setup_t0 = wall_seconds();
  const std::uint64_t heap_t0 = heap_bytes();

  workload::ScenarioConfig config;
  config.strategy = workload::Strategy::kGsAlert;
  config.n_servers = kServers;
  config.clients_per_server = kClientsPerServer;
  config.collections_per_server = kCollectionsPerServer;
  config.sim_topology = "multi-region";
  config.adaptive_tree = true;
  config.seed = derive_seed(opts.seed, 1);
  workload::Scenario scenario{config};
  scenario.setup_collections();
  const std::uint64_t heap_world = heap_bytes();

  const double load_t0 = wall_seconds();
  {
    ScopedSpan span{spans, "alerting.subscribe_load"};
    scenario.subscribe_all(kProfilesPerClient);
    scenario.settle(SimTime::seconds(3));
  }
  const double load_s = wall_seconds() - load_t0;
  std::uint64_t acked = 0;
  for (const workload::Scenario::SubRecord& sub : scenario.sub_records()) {
    if (sub.id != 0) acked += 1;
  }
  const std::uint64_t subscribes = scenario.sub_records().size();
  const std::uint64_t heap_loaded = heap_bytes();
  const double setup_s = wall_seconds() - setup_t0;

  // --- measured phase ---------------------------------------------------
  World world{&scenario.net(),
              scenario.gds_tree().nodes,
              scenario.servers(),
              scenario.gsalert(),
              scenario.clients()};
  const Counters before = opts.trace ? snapshot(world) : Counters{};
  obs::Profiler profiler;
  if (opts.trace) profiler.enable();
  const double run_t0 = wall_seconds();

  // Every collection is rebuilt once, in a seeded order. The targets come
  // from a benchmark-owned stream so each event can be reconstructed
  // (fresh documents included) for the match replay.
  Rng pick{derive_seed(opts.seed, 2)};
  std::vector<int> order(kRebuilds);
  for (int i = 0; i < kRebuilds; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), pick.engine());
  std::vector<docmodel::Event> events;
  for (const int target : order) {
    const auto s = static_cast<std::size_t>(target / kCollectionsPerServer);
    const std::string coll = "C" + std::to_string(target % kCollectionsPerServer);
    gsnet::GreenstoneServer* server = scenario.servers()[s];
    std::unordered_set<DocumentId> old_ids;
    for (const auto& d : server->collection(coll)->data.docs()) {
      old_ids.insert(d.id);
    }
    {
      ScopedSpan span{spans, "gsnet.publish"};
      scenario.publish_rebuild(s, coll, kFreshDocs);
    }
    const docmodel::Collection* built = server->collection(coll);
    docmodel::Event event;
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = CollectionRef{server->name(), coll};
    event.physical_origin = event.collection;
    event.build_version = built->build_version;
    for (const auto& d : built->data.docs()) {
      if (!old_ids.contains(d.id)) event.docs.push_back(d);
    }
    events.push_back(std::move(event));
    run_sliced(scenario.net(), scenario.net().now() + kPublishGap, spans,
               kPublishGap);
  }
  {
    ScopedSpan span{spans, "sim.drain"};
    scenario.settle(SimTime::seconds(3));
  }
  const double measured_s = wall_seconds() - run_t0;
  profiler.disable();
  const Counters after = opts.trace ? snapshot(world) : Counters{};

  // --- oracle: the scenario's ground truth ------------------------------
  const workload::Outcome outcome = scenario.outcome();
  tally.attempted += outcome.expected_notifications + subscribes;
  tally.missing += outcome.false_negatives;
  tally.unexpected += outcome.false_positives;
  tally.unacked += subscribes - acked;
  if (opts.drop_one) tally.fail(1, "--drop-one is not supported by flood");

  std::vector<double> latency_ms;
  std::uint64_t notifications = 0;
  for (const alerting::Client* client : scenario.clients()) {
    for (const auto& note : client->notifications()) {
      notifications += 1;
      const auto at = scenario.publish_time(note.event.collection.str(),
                                            note.event.build_version);
      if (at.has_value()) latency_ms.push_back((note.at - *at).as_millis());
    }
  }

  // Replay every event against every server's live index (per-document
  // query path: the origin's engine has moved on since the event).
  double replay_s = 0;
  {
    ScopedSpan span{spans, "profiles.replay_match"};
    const double t = wall_seconds();
    std::size_t hits = 0;
    for (const docmodel::Event& event : events) {
      for (const alerting::AlertingService* service : scenario.gsalert()) {
        hits += service->index()
                    .match(profiles::EventContext::from(event))
                    .size();
      }
    }
    replay_s = wall_seconds() - t;
    report.info("replay_hits", static_cast<double>(hits));
  }

  report_e2e(report,
             {.setup_s = setup_s,
              .measured_s = measured_s,
              .notifications = notifications,
              .latency_ms = &latency_ms,
              .sub_ops = acked,
              .sub_ops_s = load_s,
              .state_bytes_per_sub =
                  static_cast<double>(heap_loaded - heap_world) /
                  static_cast<double>(std::max<std::uint64_t>(acked, 1)),
              .state_bytes_per_node =
                  static_cast<double>(heap_world - heap_t0) /
                  static_cast<double>(scenario.net().node_count())});
  report.info("events", static_cast<double>(events.size()));
  report.info("expected_notifications",
              static_cast<double>(outcome.expected_notifications));
  if (opts.trace) {
    std::uint64_t live = 0;
    for (const alerting::AlertingService* s : scenario.gsalert()) {
      live += s->subscription_count();
    }
    report_layers(report, before, after,
                  {.profiler = &profiler,
                   .spans = &spans,
                   .events_published = events.size(),
                   .notifications = notifications,
                   .live_subscriptions = live,
                   .replay_match_s = replay_s,
                   .sub_load_s = load_s,
                   .subs_loaded = acked,
                   .notify_samples = latency_ms.size()});
    finish_trace(opts, spans, profiler);
  }
}

}  // namespace perfbench
