// Per-layer metrics of a traced run, read from outside the program: the
// public stats accessors of every layer (snapshotted before and after the
// measured phase), the obs::Profiler frames, and the benchmark's own spans.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "common.h"
#include "gds/gds_server.h"
#include "gsnet/greenstone_server.h"
#include "sim/network.h"

namespace perfbench {

/// Client and server access links for the single-server workloads: 10 ms
/// one way plus up to 4 ms of uniform jitter, so sim-time latencies spread
/// with the seed instead of sitting on one value.
inline const gsalert::sim::PathConfig kAccessPath{
    .latency = gsalert::SimTime::millis(10),
    .jitter = gsalert::SimTime::millis(4)};

/// Advance simulated time to `until` in `slice` steps, one span per step.
void run_sliced(gsalert::sim::Network& net, gsalert::SimTime until,
                SpanLog& spans,
                gsalert::SimTime slice = gsalert::SimTime::millis(500));

/// Run 500 ms steps (span "sim.drain") until `quiet` holds or `limit` of
/// simulated time has passed; returns whether it went quiet.
bool drain(gsalert::sim::Network& net, SpanLog& spans,
           const std::function<bool()>& quiet,
           gsalert::SimTime limit = gsalert::SimTime::seconds(30));

/// The nodes of one simulated world, grouped by layer.
struct World {
  gsalert::sim::Network* net = nullptr;
  std::vector<gsalert::gds::GdsServer*> gds;
  std::vector<gsalert::gsnet::GreenstoneServer*> servers;
  std::vector<gsalert::alerting::AlertingService*> services;
  std::vector<gsalert::alerting::Client*> clients;
};

/// Every cumulative counter the per-layer metrics are derived from.
struct Counters {
  // sim
  std::uint64_t events = 0, packets = 0, bytes_copied = 0, bytes_shared = 0,
                dropped = 0;
  // wire
  std::uint64_t writers = 0, grows = 0, reserve_shortfalls = 0;
  // transport
  std::uint64_t channel_sent = 0, channel_retransmits = 0,
                endpoint_requests = 0, endpoint_retransmits = 0,
                endpoint_timeouts = 0, parked = 0, park_expired = 0;
  // gds
  std::uint64_t broadcasts_seen = 0, duplicates_suppressed = 0,
                deliveries = 0, rtt_probes = 0, reparents = 0;
  // profiles
  std::uint64_t candidates = 0, eq_probe_hits = 0, residual_evals = 0,
                predicate_cache_hits = 0, predicate_cache_misses = 0,
                query_cache_hits = 0, arena_compactions = 0;
  // alerting + delivery
  std::uint64_t filter_matches = 0, body_encodes = 0, duplicate_events = 0,
                seen_events = 0, enqueued = 0, digests_sent = 0, digest_notifications = 0,
                stalls = 0, spilled = 0, max_queue_depth = 0,
                coalesced_merges = 0;
  // journal
  std::uint64_t appends = 0, commits = 0, bytes_appended = 0,
                compactions = 0, snapshot_bytes = 0;
};

Counters snapshot(const World& world);

/// What the workload measured itself, beside the layer counters.
struct LayerInputs {
  const gsalert::obs::Profiler* profiler = nullptr;
  const SpanLog* spans = nullptr;
  std::uint64_t events_published = 0;
  std::uint64_t notifications = 0;   // received by client sinks / logs
  std::uint64_t live_subscriptions = 0;
  double replay_match_s = 0;         // replayed ProfileIndex::match wall
  double sub_load_s = 0;             // subscription load step wall
  std::uint64_t subs_loaded = 0;
  std::size_t notify_samples = 0;
};

/// Emit every per-layer metric (the same names on every workload; a layer
/// a workload never enters reports 0).
void report_layers(Report& report, const Counters& before,
                   const Counters& after, const LayerInputs& in);

}  // namespace perfbench
