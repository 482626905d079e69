// storm: one DL server carrying Zipf-skewed subscriptions (SubscriptionGen)
// over many clients that stream into NotificationSink, under credit-managed
// delivery with policies mixed by sub % 3 (immediate / coalesce / digest).
// A Zipf drip of rebuild events (one every 50 ms, stratified picks) is followed by a storm of
// back-to-back rebuilds of the three hottest collections. Journal
// compaction is off. Loads the subscriber-scale path: one large
// ProfileIndex, delivery queues, credits and digests, the digest
// ChannelSet and per-notification journal records; GDS relay is idle.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "common.h"
#include "common/rng.h"
#include "docmodel/event.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "layers.h"
#include "profiles/event_context.h"
#include "profiles/parser.h"
#include "workload/generators.h"

using namespace gsalert;

namespace perfbench {

namespace {

constexpr std::size_t kCollections = 4000;
constexpr std::size_t kSubscriptions = 400'000;
constexpr std::size_t kClients = 400;
constexpr int kDripEvents = 160;    // one every 50 ms
constexpr int kStormTargets = 3;    // hottest ranks rebuilt in the storm
constexpr int kStormRounds = 8;     // rebuilds per target, 5 ms apart
constexpr int kOracleEvents = 6;    // events re-checked by brute force

struct Published {
  std::size_t rank;
  std::uint64_t version;
};

docmodel::Event make_event(const std::string& origin, std::uint64_t seq,
                           const CollectionRef& coll, std::uint64_t version) {
  docmodel::Event event;
  event.id = {origin, seq};
  event.type = docmodel::EventType::kCollectionRebuilt;
  event.collection = coll;
  event.physical_origin = coll;
  event.build_version = version;
  return event;
}

}  // namespace

void run_storm(const Options& opts, Report& report, Tally& tally) {
  SpanLog spans;
  if (opts.trace) spans.enable();
  const double setup_t0 = wall_seconds();
  const std::uint64_t heap_t0 = heap_bytes();

  sim::Network net{derive_seed(opts.seed, 1)};
  net.set_default_path(kAccessPath);
  gds::GdsTree tree = gds::build_figure2_tree(net);
  gsnet::ServerConfig server_config;
  server_config.journal.compact_threshold_bytes = 0;
  auto* server =
      net.make_node<gsnet::GreenstoneServer>("Hamilton", server_config);
  alerting::AlertingConfig config;
  config.delivery.credits = 8;
  config.delivery.queue_capacity = 4096;
  config.delivery.default_window = SimTime::millis(100);
  auto service = std::make_unique<alerting::AlertingService>(config);
  alerting::AlertingService* alerting = service.get();
  server->set_extension(std::move(service));
  server->attach_gds(tree.leaf_for(0)->id());

  // Client sinks keep one packed key and one latency sample per notice.
  std::vector<SimTime> publish_at;  // event seq - 1 -> publish time
  std::vector<std::uint64_t> received;
  std::vector<double> latency_ms;
  received.reserve(1 << 20);
  latency_ms.reserve(1 << 20);
  bool drop_pending = opts.drop_one;
  std::vector<alerting::Client*> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    auto* client = net.make_node<alerting::Client>("c" + std::to_string(i));
    client->set_home(server->id());
    client->set_notification_sink(
        [&](SubscriptionId sub, const docmodel::Event& event, SimTime at) {
          if (drop_pending) {
            drop_pending = false;
            return;
          }
          received.push_back(pair_key(sub, event.id.seq));
          const std::size_t idx = static_cast<std::size_t>(event.id.seq) - 1;
          if (idx < publish_at.size()) {
            latency_ms.push_back((at - publish_at[idx]).as_millis());
          }
        });
    clients.push_back(client);
  }
  net.start();
  net.run_until(net.now() + SimTime::seconds(1));
  const std::uint64_t heap_world = heap_bytes();

  std::vector<CollectionRef> collections;
  for (std::size_t i = 0; i < kCollections; ++i) {
    collections.push_back({"hamilton", "c" + std::to_string(i)});
  }
  const double load_t0 = wall_seconds();
  {
    ScopedSpan span{spans, "alerting.subscribe_load"};
    Rng rng{derive_seed(opts.seed, 2)};
    workload::SubscriptionGen gen{rng, collections};
    for (std::size_t i = 0; i < kSubscriptions; ++i) {
      const auto result = alerting->subscribe_local(
          clients[i % kClients]->id(), gen.make_subscription());
      if (!result.ok() || result.value() != i + 1) {
        tally.fail(1, "subscribe_local failed or returned a non-dense id");
        return;
      }
      const SubscriptionId sub = result.value();
      if (sub % 3 == 1) {
        alerting->set_delivery_policy(
            sub, {alerting::DeliveryMode::kCoalesce, SimTime::millis(100)});
      } else if (sub % 3 == 2) {
        alerting->set_delivery_policy(
            sub, {alerting::DeliveryMode::kDigest, SimTime::millis(300)});
      }
    }
  }
  const double load_s = wall_seconds() - load_t0;
  const std::uint64_t heap_loaded = heap_bytes();
  const double setup_s = wall_seconds() - setup_t0;

  // --- measured phase: open-loop publish schedule in simulated time -----
  World world{&net, tree.nodes, {server}, {alerting}, clients};
  const Counters before = opts.trace ? snapshot(world) : Counters{};
  obs::Profiler profiler;
  if (opts.trace) profiler.enable();
  const double run_t0 = wall_seconds();

  std::vector<std::uint64_t> version(kCollections, 1);
  std::vector<Published> published;
  const auto publish = [&](std::size_t rank) {
    published.push_back({rank, ++version[rank]});
    publish_at.push_back(net.now());
    const docmodel::Event event =
        make_event(server->name(), published.size(), collections[rank],
                   published.back().version);
    ScopedSpan span{spans, "gsnet.publish"};
    server->extension()->on_local_event(event);
  };
  const SimTime t0 = net.now();
  Rng pick{derive_seed(opts.seed, 3)};
  const std::vector<std::size_t> drip =
      stratified_zipf(pick, kCollections, 0.7, kDripEvents);
  for (int k = 0; k < kDripEvents; ++k) {
    net.schedule_control(t0 + SimTime::millis(50 * k) - net.now(),
                         [&, k] { publish(drip[k]); });
  }
  const SimTime storm_start =
      t0 + SimTime::millis(50 * kDripEvents) + SimTime::seconds(1);
  for (int round = 0; round < kStormRounds; ++round) {
    for (int target = 0; target < kStormTargets; ++target) {
      const SimTime at = storm_start +
                         SimTime::millis(5 * (round * kStormTargets + target));
      net.schedule_control(at - net.now(), [&, target] {
        publish(static_cast<std::size_t>(target));
      });
    }
  }
  run_sliced(net, storm_start + SimTime::millis(200), spans);
  const bool drained = drain(net, spans, [&] {
    return alerting->delivery().queue_depth_total() == 0 &&
           alerting->delivery().inflight() == 0;
  });
  const double measured_s = wall_seconds() - run_t0;
  profiler.disable();
  const Counters after = opts.trace ? snapshot(world) : Counters{};

  // --- oracle: replay every event against the live index ----------------
  std::vector<std::uint64_t> expected;
  std::vector<std::vector<profiles::ProfileId>> oracle_hits;
  Rng oracle_pick{derive_seed(opts.seed, 4)};
  std::vector<std::size_t> oracle_events;
  for (int i = 0; i < kOracleEvents - 1; ++i) {
    oracle_events.push_back(oracle_pick.index(kDripEvents));
  }
  oracle_events.push_back(published.size() - 1);  // a storm event
  std::sort(oracle_events.begin(), oracle_events.end());
  oracle_events.erase(std::unique(oracle_events.begin(), oracle_events.end()),
                      oracle_events.end());
  double replay_s = 0;
  {
    ScopedSpan span{spans, "profiles.replay_match"};
    for (std::size_t i = 0; i < published.size(); ++i) {
      const docmodel::Event event =
          make_event(server->name(), i + 1, collections[published[i].rank],
                     published[i].version);
      const double t = wall_seconds();
      std::vector<profiles::ProfileId> hits =
          alerting->index().match(profiles::EventContext::from(event));
      replay_s += wall_seconds() - t;
      for (profiles::ProfileId id : hits) expected.push_back(pair_key(id, i + 1));
      if (std::binary_search(oracle_events.begin(), oracle_events.end(), i)) {
        std::sort(hits.begin(), hits.end());
        oracle_hits.push_back(std::move(hits));
      }
    }
  }
  const std::uint64_t notifications = received.size();
  tally.compare(expected, received);
  if (!drained) tally.fail(1, "delivery stage did not drain");
  if (alerting->delivery().stats().spilled != 0) {
    tally.fail(alerting->delivery().stats().spilled, "notifications spilled");
  }
  if (alerting->stats().notifications_sent != expected.size()) {
    tally.fail(1, "notifications_sent != expected hit pairs");
  }

  // Brute force: re-generate every subscription from the seed and check
  // Profile::matches against a seeded sample of events.
  if (opts.full_oracle) {
    std::vector<std::vector<profiles::ProfileId>> brute(oracle_events.size());
    std::vector<profiles::EventContext> contexts;
    for (std::size_t e : oracle_events) {
      contexts.push_back(profiles::EventContext::from(
          make_event(server->name(), e + 1, collections[published[e].rank],
                     published[e].version)));
    }
    Rng rng{derive_seed(opts.seed, 2)};
    workload::SubscriptionGen gen{rng, collections};
    for (std::size_t i = 0; i < kSubscriptions; ++i) {
      auto profile = profiles::parse_profile(gen.make_subscription());
      if (!profile.ok()) {
        tally.fail(1, "oracle could not parse a generated subscription");
        break;
      }
      for (std::size_t k = 0; k < contexts.size(); ++k) {
        if (profile.value().matches(contexts[k])) brute[k].push_back(i + 1);
      }
    }
    for (std::size_t k = 0; k < brute.size(); ++k) {
      if (brute[k] != oracle_hits[k]) {
        tally.fail(1, "index hit set differs from brute-force match");
      }
    }
  }

  const double nodes = static_cast<double>(net.node_count());
  report_e2e(report, {.setup_s = setup_s,
                      .measured_s = measured_s,
                      .notifications = notifications,
                      .latency_ms = &latency_ms,
                      .sub_ops = kSubscriptions,
                      .sub_ops_s = load_s,
                      .state_bytes_per_sub =
                          static_cast<double>(heap_loaded - heap_world) /
                          kSubscriptions,
                      .state_bytes_per_node =
                          static_cast<double>(heap_world - heap_t0) / nodes});
  report.info("events", static_cast<double>(published.size()));
  if (opts.trace) {
    report_layers(report, before, after,
                  {.profiler = &profiler,
                   .spans = &spans,
                   .events_published = published.size(),
                   .notifications = notifications,
                   .live_subscriptions = alerting->subscription_count(),
                   .replay_match_s = replay_s,
                   .sub_load_s = load_s,
                   .subs_loaded = kSubscriptions,
                   .notify_samples = latency_ms.size()});
    finish_trace(opts, spans, profiler);
  }
}

}  // namespace perfbench
