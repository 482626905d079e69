#include "layers.h"

#include <algorithm>

#include "wire/codec.h"

namespace perfbench {

namespace {

void add_journal(Counters& c, const gsalert::journal::Journal* j) {
  if (j == nullptr) return;
  const gsalert::journal::JournalStats& s = j->stats();
  c.appends += s.appends;
  c.commits += s.commits;
  c.bytes_appended += s.bytes_appended;
  c.compactions += s.compactions;
  c.snapshot_bytes += s.snapshot_bytes;
}

void add_endpoint(Counters& c, const gsalert::transport::EndpointStats& s) {
  c.endpoint_requests += s.requests;
  c.endpoint_retransmits += s.retransmits;
  c.endpoint_timeouts += s.timeouts;
}

void add_channel(Counters& c, const gsalert::transport::ChannelStats& s) {
  c.channel_sent += s.sends;
  c.channel_retransmits += s.retransmits;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void run_sliced(gsalert::sim::Network& net, gsalert::SimTime until,
                SpanLog& spans, gsalert::SimTime slice) {
  while (net.now() < until) {
    ScopedSpan span{spans, "sim.run_until"};
    net.run_until(std::min(until, net.now() + slice));
  }
}

bool drain(gsalert::sim::Network& net, SpanLog& spans,
           const std::function<bool()>& quiet, gsalert::SimTime limit) {
  ScopedSpan span{spans, "sim.drain"};
  const gsalert::SimTime deadline = net.now() + limit;
  while (!quiet() && net.now() < deadline) {
    net.run_until(net.now() + gsalert::SimTime::millis(500));
  }
  return quiet();
}

Counters snapshot(const World& world) {
  Counters c;
  const gsalert::sim::NetStats& net = world.net->stats();
  c.events = world.net->scheduler().stats().executed;
  c.packets = net.sent;
  c.bytes_copied = net.bytes_copied;
  c.bytes_shared = net.bytes_shared;
  c.dropped = net.dropped_loss + net.dropped_down + net.dropped_blocked;

  const gsalert::wire::WriterStats& ws = gsalert::wire::writer_stats();
  c.writers = ws.writers;
  c.grows = ws.grows;
  c.reserve_shortfalls = ws.reserve_shortfalls;

  for (const gsalert::gds::GdsServer* g : world.gds) {
    const gsalert::gds::GdsNodeStats& s = g->stats();
    c.broadcasts_seen += s.broadcasts_seen;
    c.duplicates_suppressed += s.duplicates_suppressed;
    c.deliveries += s.deliveries;
    c.rtt_probes += s.rtt_probes_sent;
    c.reparents += s.reparents + s.adaptive_reparents;
    c.parked += g->park_stats().parked;
    c.park_expired += g->park_stats().expired;
    add_journal(c, g->journal());
  }
  for (gsalert::gsnet::GreenstoneServer* server : world.servers) {
    add_endpoint(c, server->endpoint_stats());
    add_endpoint(c, server->gds().endpoint_stats());
    add_journal(c, server->journal());
  }
  for (const gsalert::alerting::Client* client : world.clients) {
    add_endpoint(c, client->endpoint_stats());
  }
  for (const gsalert::alerting::AlertingService* svc : world.services) {
    add_channel(c, svc->channel_stats());
    add_channel(c, svc->delivery().channel_stats());
    const gsalert::profiles::MatchStats& m = svc->match_stats();
    c.candidates += m.candidates;
    c.eq_probe_hits += m.eq_probe_hits;
    c.residual_evals += m.residual_evals;
    c.predicate_cache_hits += m.predicate_cache_hits;
    c.predicate_cache_misses += m.predicate_cache_misses;
    c.query_cache_hits += m.query_cache_hits;
    c.arena_compactions += svc->index().compaction_count();
    const gsalert::alerting::AlertingStats& a = svc->stats();
    c.filter_matches += a.filter_matches;
    c.body_encodes += a.notify_body_encodes;
    c.duplicate_events += a.duplicate_events;
    c.seen_events += a.events_received;
    const gsalert::alerting::DeliveryStats& d = svc->delivery().stats();
    c.enqueued += d.enqueued;
    c.digests_sent += d.digests_sent;
    c.digest_notifications += d.digest_notifications;
    c.stalls += d.stalls;
    c.spilled += d.spilled;
    c.max_queue_depth = std::max(c.max_queue_depth, d.max_queue_depth);
    c.coalesced_merges += d.coalesced_merges;
  }
  return c;
}

void report_layers(Report& r, const Counters& b, const Counters& a,
                   const LayerInputs& in) {
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const std::vector<Frame> frames =
      in.profiler ? profiler_frames(*in.profiler) : std::vector<Frame>{};
  const double profiled_ms =
      in.profiler ? static_cast<double>(in.profiler->profiled_wall_ns()) / 1e6
                  : 0.0;
  const double events = static_cast<double>(in.events_published);
  const double notifications = static_cast<double>(in.notifications);

  // sim — the serial kernel and the wire model.
  const Frame dispatch = frame_sum(frames, "sim.dispatch");
  r.layer("sim.events", d(a.events, b.events), "count");
  r.layer("sim.dispatch_self_ms", dispatch.self_ms, "ms");
  r.layer("sim.unattributed_frac", ratio(dispatch.self_ms, profiled_ms),
          "ratio");
  r.layer("sim.net_packets", d(a.packets, b.packets), "count");
  r.layer("sim.net_bytes_copied", d(a.bytes_copied, b.bytes_copied), "B");
  r.layer("sim.net_bytes_shared", d(a.bytes_shared, b.bytes_shared), "B");
  r.layer("sim.net_dropped", d(a.dropped, b.dropped), "count");

  // wire — encode-path allocations.
  r.layer("wire.writers_per_notification",
          ratio(d(a.writers, b.writers), notifications), "ratio");
  r.layer("wire.grows", d(a.grows, b.grows), "count");
  r.layer("wire.reserve_shortfalls",
          d(a.reserve_shortfalls, b.reserve_shortfalls), "count");

  // transport — reliable channels, request/reply endpoints, parking.
  r.layer("transport.channel_sent", d(a.channel_sent, b.channel_sent),
          "count");
  r.layer("transport.channel_retransmits",
          d(a.channel_retransmits, b.channel_retransmits), "count");
  r.layer("transport.endpoint_requests",
          d(a.endpoint_requests, b.endpoint_requests), "count");
  r.layer("transport.endpoint_retransmits",
          d(a.endpoint_retransmits, b.endpoint_retransmits), "count");
  r.layer("transport.endpoint_timeouts",
          d(a.endpoint_timeouts, b.endpoint_timeouts), "count");
  r.layer("transport.parked", d(a.parked, b.parked), "count");
  r.layer("transport.park_expired", d(a.park_expired, b.park_expired),
          "count");

  // gds — the broadcast relay.
  const Frame relay = frame_sum(frames, "gds.handle_broadcast");
  const double seen = d(a.broadcasts_seen, b.broadcasts_seen);
  r.layer("gds.broadcasts_seen", seen, "count");
  r.layer("gds.dup_frac",
          ratio(d(a.duplicates_suppressed, b.duplicates_suppressed), seen),
          "ratio");
  r.layer("gds.deliveries", d(a.deliveries, b.deliveries), "count");
  r.layer("gds.handle_broadcast_ms", relay.total_ms, "ms");
  r.layer("gds.ns_per_broadcast",
          ratio(relay.total_ms * 1e6, static_cast<double>(relay.calls)), "ns");
  r.layer("gds.rtt_probes", d(a.rtt_probes, b.rtt_probes), "count");
  r.layer("gds.reparents", d(a.reparents, b.reparents), "count");

  // gsnet — raising each event at its origin server (benchmark span
  // "gsnet.publish": Scenario::publish_rebuild, i.e. collection build +
  // retrieval index + extension hook, in flood; the server's extension
  // hook on_local_event with a synthetic event in storm and churn).
  const auto [publish_s, publishes] = in.spans->total_seconds("gsnet.publish");
  r.layer("gsnet.publish_us_per_event",
          ratio(publish_s * 1e6, static_cast<double>(publishes)), "us");

  // profiles — the matcher, per published event summed over every server
  // that filtered it.
  const double candidates = d(a.candidates, b.candidates);
  const double pred_hits = d(a.predicate_cache_hits, b.predicate_cache_hits);
  r.layer("profiles.match_us_per_event", ratio(in.replay_match_s * 1e6, events),
          "us");
  r.layer("profiles.candidates_per_event", ratio(candidates, events), "count");
  r.layer("profiles.eq_probe_hits_per_event",
          ratio(d(a.eq_probe_hits, b.eq_probe_hits), events), "count");
  r.layer("profiles.residual_evals_per_event",
          ratio(d(a.residual_evals, b.residual_evals), events), "count");
  r.layer("profiles.hit_frac",
          ratio(d(a.filter_matches, b.filter_matches), candidates), "ratio");
  r.layer("profiles.predicate_cache_hit_frac",
          ratio(pred_hits,
                pred_hits +
                    d(a.predicate_cache_misses, b.predicate_cache_misses)),
          "ratio");
  r.layer("profiles.query_cache_hits", d(a.query_cache_hits, b.query_cache_hits),
          "count");
  r.layer("profiles.arena_compactions",
          d(a.arena_compactions, b.arena_compactions), "count");

  // alerting — filter_and_notify and the subscription path.
  const Frame filter = frame_sum(frames, "alerting.filter_and_notify");
  r.layer("alerting.filter_ms", filter.total_ms, "ms");
  r.layer("alerting.filter_us_per_call",
          ratio(filter.total_ms * 1e3, static_cast<double>(filter.calls)), "us");
  r.layer("alerting.subscribe_us_per_op",
          ratio(in.sub_load_s * 1e6, static_cast<double>(in.subs_loaded)),
          "us");
  r.layer("alerting.notify_body_encodes_per_event",
          ratio(d(a.body_encodes, b.body_encodes), events), "ratio");
  r.layer("alerting.duplicate_events",
          d(a.duplicate_events, b.duplicate_events), "count");
  r.layer("alerting.seen_events", d(a.seen_events, b.seen_events), "count");
  r.layer("alerting.notify_samples", static_cast<double>(in.notify_samples),
          "count");

  // alerting delivery stage — queues, credits, digests.
  const double digests = d(a.digests_sent, b.digests_sent);
  r.layer("alerting.delivery.enqueued", d(a.enqueued, b.enqueued), "count");
  r.layer("alerting.delivery.digests_sent", digests, "count");
  r.layer("alerting.delivery.notifications_per_digest",
          ratio(d(a.digest_notifications, b.digest_notifications), digests),
          "ratio");
  r.layer("alerting.delivery.stalls", d(a.stalls, b.stalls), "count");
  r.layer("alerting.delivery.spilled", d(a.spilled, b.spilled), "count");
  r.layer("alerting.delivery.max_queue_depth",
          static_cast<double>(a.max_queue_depth), "count");
  r.layer("alerting.delivery.coalesced_merges",
          d(a.coalesced_merges, b.coalesced_merges), "count");

  // journal — appends, group commits, compaction.
  const Frame commit = frame_sum(frames, "journal.commit");
  const Frame compact = frame_sum(frames, "journal.compact");
  r.layer("journal.appends", d(a.appends, b.appends), "count");
  r.layer("journal.commits", d(a.commits, b.commits), "count");
  r.layer("journal.bytes_appended", d(a.bytes_appended, b.bytes_appended),
          "B");
  r.layer("journal.commit_ms", commit.total_ms, "ms");
  r.layer("journal.compactions", d(a.compactions, b.compactions), "count");
  // A share of the profiled wall, not a time: storm and flood never compact.
  r.layer("journal.compact_frac", ratio(compact.total_ms, profiled_ms),
          "ratio");
  r.layer("journal.snapshot_bytes", static_cast<double>(a.snapshot_bytes),
          "B");
  r.layer("journal.snapshot_bytes_per_sub",
          ratio(static_cast<double>(a.snapshot_bytes),
                static_cast<double>(in.live_subscriptions)),
          "B");

  // obs — the profiler's own estimate of its cost.
  r.layer("obs.profiler_overhead_frac",
          in.profiler ? in.profiler->overhead_fraction() : 0.0, "ratio");
}

}  // namespace perfbench
