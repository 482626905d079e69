// churn: the write path beside reads. One DL server holds a steady live set
// of SubscriptionGen subscriptions over 1k collections for 64 clients.
// Every 10 ms tick, 20 clients send Client::subscribe and the 20 oldest
// subscriptions get Client::cancel; a Zipf rebuild (stratified picks) is
// published every 50 ms. The journal keeps the library's default policy (64 KiB
// compaction), so snapshot cost grows with live state. Loads
// ProfileIndex::add/remove and arena compaction, subscribe request/reply
// over transport::Endpoint, journal append and snapshot compaction;
// large-index matching and delivery are light.
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "common.h"
#include "common/rng.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "layers.h"
#include "profiles/event_context.h"
#include "workload/generators.h"

using namespace gsalert;

namespace perfbench {

namespace {

constexpr std::size_t kCollections = 1'000;
constexpr std::size_t kLive = 100'000;
constexpr std::size_t kClients = 64;
constexpr int kTicks = 2'000;
constexpr int kOpsPerTick = 20;      // subscribes and cancels, each
constexpr int kTicksPerRebuild = 5;  // 10 ms ticks -> one rebuild / 50 ms
constexpr SimTime kTick = SimTime::millis(10);

struct LiveSub {
  SubscriptionId id;
  std::size_t client;
};

}  // namespace

void run_churn(const Options& opts, Report& report, Tally& tally) {
  SpanLog spans;
  if (opts.trace) spans.enable();
  // State the sinks and callbacks write into outlives the network.
  std::vector<SimTime> publish_at;  // event seq - 1 -> publish time
  std::vector<std::uint64_t> received;
  std::vector<double> latency_ms;
  std::vector<double> subscribe_ms;
  // Sim time at which a cancel was seen applied (upper bound), per sub id.
  std::vector<SimTime> cancelled_by;
  std::deque<LiveSub> live;
  std::vector<SubscriptionId> pending_cancels;
  std::uint64_t after_cancel = 0, subscribes = 0, acked = 0, cancels = 0,
                cancels_done = 0;
  bool drop_pending = opts.drop_one;

  const double setup_t0 = wall_seconds();
  const std::uint64_t heap_t0 = heap_bytes();
  sim::Network net{derive_seed(opts.seed, 1)};
  net.set_default_path(kAccessPath);
  gds::GdsTree tree = gds::build_figure2_tree(net);
  auto* server = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  auto service = std::make_unique<alerting::AlertingService>();
  alerting::AlertingService* alerting = service.get();
  server->set_extension(std::move(service));
  server->attach_gds(tree.leaf_for(0)->id());

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
          const SimTime published = publish_at[event.id.seq - 1];
          latency_ms.push_back((at - published).as_millis());
          if (sub < cancelled_by.size() && published >= cancelled_by[sub]) {
            after_cancel += 1;
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
  Rng sub_rng{derive_seed(opts.seed, 2)};
  workload::SubscriptionGen gen{sub_rng, collections};
  const double load_t0 = wall_seconds();
  {
    ScopedSpan span{spans, "alerting.subscribe_load"};
    for (std::size_t i = 0; i < kLive; ++i) {
      const auto result = alerting->subscribe_local(
          clients[i % kClients]->id(), gen.make_subscription());
      if (!result.ok()) {
        tally.fail(1, "subscribe_local failed");
        return;
      }
      live.push_back({result.value(), i % kClients});
    }
  }
  const double load_s = wall_seconds() - load_t0;
  const std::uint64_t heap_loaded = heap_bytes();
  const double setup_s = wall_seconds() - setup_t0;
  cancelled_by.assign(kLive + kTicks * kOpsPerTick + 1,
                      SimTime::micros(std::numeric_limits<std::int64_t>::max()));

  // --- measured phase ---------------------------------------------------
  World world{&net, tree.nodes, {server}, {alerting}, clients};
  const Counters before = opts.trace ? snapshot(world) : Counters{};
  obs::Profiler profiler;
  if (opts.trace) profiler.enable();
  const double run_t0 = wall_seconds();

  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> version(kCollections, 1);
  double oracle_s = 0;  // the benchmark's own matching, not the program's
  Rng pick{derive_seed(opts.seed, 3)};
  const std::vector<std::size_t> rebuilds = stratified_zipf(
      pick, kCollections, 0.7, kTicks / kTicksPerRebuild);
  const auto poll_cancels = [&] {
    std::erase_if(pending_cancels, [&](SubscriptionId id) {
      if (alerting->index().contains(id)) return false;
      cancelled_by[id] = net.now();
      cancels_done += 1;
      return true;
    });
  };
  const auto tick = [&](int k) {
    poll_cancels();
    for (int j = 0; j < kOpsPerTick; ++j) {
      const std::size_t c =
          static_cast<std::size_t>(k * kOpsPerTick + j) % kClients;
      const SimTime sent = net.now();
      subscribes += 1;
      clients[c]->subscribe(
          gen.make_subscription(),
          [&, c, sent](Result<SubscriptionId> result) {
            if (!result.ok()) return;
            acked += 1;
            subscribe_ms.push_back((net.now() - sent).as_millis());
            live.push_back({result.value(), c});
          });
    }
    for (int j = 0; j < kOpsPerTick && !live.empty(); ++j) {
      const LiveSub oldest = live.front();
      live.pop_front();
      cancels += 1;
      clients[oldest.client]->cancel(oldest.id);
      pending_cancels.push_back(oldest.id);
    }
    if (k % kTicksPerRebuild != 0) return;
    const std::size_t rank = rebuilds[static_cast<std::size_t>(k / kTicksPerRebuild)];
    docmodel::Event event;
    event.id = {server->name(), publish_at.size() + 1};
    event.type = docmodel::EventType::kCollectionRebuilt;
    event.collection = collections[rank];
    event.physical_origin = collections[rank];
    event.build_version = ++version[rank];
    publish_at.push_back(net.now());
    const double t = wall_seconds();
    for (profiles::ProfileId id :
         alerting->index().match(profiles::EventContext::from(event))) {
      expected.push_back(pair_key(id, event.id.seq));
    }
    oracle_s += wall_seconds() - t;
    ScopedSpan span{spans, "gsnet.publish"};
    server->extension()->on_local_event(event);
  };
  const SimTime t0 = net.now();
  for (int k = 0; k < kTicks; ++k) {
    net.schedule_control(t0 + kTick * k - net.now(), [&, k] { tick(k); });
  }
  run_sliced(net, t0 + kTick * kTicks, spans);
  const bool drained = drain(
      net, spans,
      [&] {
        poll_cancels();
        return pending_cancels.empty() && acked == subscribes;
      },
      SimTime::seconds(5));
  const double measured_s = wall_seconds() - run_t0 - oracle_s;
  profiler.disable();
  const Counters after = opts.trace ? snapshot(world) : Counters{};

  // --- oracle -------------------------------------------------------------
  const std::uint64_t notifications = received.size();
  tally.compare(expected, received);
  tally.attempted += subscribes + cancels;
  tally.unacked += (subscribes - acked) + (cancels - cancels_done);
  tally.unexpected += after_cancel;
  if (!drained) tally.fail(1, "subscribe/cancel traffic did not drain");
  if (alerting->stats().notifications_sent != expected.size()) {
    tally.fail(1, "notifications_sent != expected hit pairs");
  }
  if (alerting->subscription_count() != kLive) {
    tally.fail(1, "live subscription count drifted");
  }

  report_e2e(report, {.setup_s = setup_s,
                      .measured_s = measured_s,
                      .notifications = notifications,
                      .latency_ms = &latency_ms,
                      .sub_ops = acked + cancels_done,
                      .sub_ops_s = measured_s,
                      .state_bytes_per_sub =
                          static_cast<double>(heap_loaded - heap_world) / kLive,
                      .state_bytes_per_node =
                          static_cast<double>(heap_world - heap_t0) /
                          static_cast<double>(net.node_count())});
  report.info("events", static_cast<double>(publish_at.size()));
  report.info("subscribes_acked", static_cast<double>(acked));
  report.info("cancels_completed", static_cast<double>(cancels_done));
  // Subscribe request->ack latency, sim time, exact over every ack.
  report.info("subscribe_samples", static_cast<double>(subscribe_ms.size()));
  report.info("subscribe_p999_ms", exact_quantile(subscribe_ms, 0.999));
  if (opts.trace) {
    report_layers(report, before, after,
                  {.profiler = &profiler,
                   .spans = &spans,
                   .events_published = publish_at.size(),
                   .notifications = notifications,
                   .live_subscriptions = alerting->subscription_count(),
                   .replay_match_s = oracle_s,
                   .sub_load_s = load_s,
                   .subs_loaded = kLive,
                   .notify_samples = latency_ms.size()});
    finish_trace(opts, spans, profiler);
  }
}

}  // namespace perfbench
