// The latency-truth layer: end-to-end notification latency and its
// per-stage decomposition, derived from the causal trace spans the rest
// of the stack already emits (docs/OBSERVABILITY.md "Latency SLOs").
//
// LatencyTracker is a SpanSink that turns the span stream into the
// user-visible number the paper's service lives or dies by — sim-time
// from a `publish` at a DL server to each `notify` at a subscriber —
// plus the stage decomposition: flood progress (`gds-deliver`),
// store-and-forward dwell (`gds-park-flush` dwell_ms), retransmit delay
// (`retry` since_ms) and hop counts. Every stage is a gsalert::Histogram
// (common/histogram.h: bounded relative error below 1/32, O(1) record).
// Wall-clock stages (match CPU, journal fsync) cannot ride spans without
// breaking the byte-identical-trace guarantee, so they are merged into
// the same LatencyBreakdown by the owner (workload::Scenario::outcome).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "obs/trace.h"

namespace gsalert::obs {

class MetricsRegistry;

/// Metric label set, `{{"node","gds-1"},...}`. Defined here (the lowest
/// obs header that needs it) and re-exported by metrics_registry.h.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Everything the latency layer knows about one run, in one place.
/// Sim-time stages come from the tracker; wall-clock stages (match CPU,
/// journal fsync) are merged in by the owner. All exported together by
/// export_to(), one series per stage (see docs/OBSERVABILITY.md).
struct LatencyBreakdown {
  Histogram e2e_ms;               // publish -> notify, sim-time
  Histogram flood_ms;             // publish -> each gds-deliver
  Histogram park_dwell_ms;        // store-and-forward custody dwell
  Histogram retransmit_delay_ms;  // retry fired N ms after first send
  Histogram match_cpu_us;         // wall-clock filter/match per event
  Histogram fsync_us;             // wall-clock journal group commit
  Histogram notify_hops;          // network hops behind each notify

  void merge(const LatencyBreakdown& other);
  /// Export every stage under `latency.*` / `latency.stage.*` with
  /// `labels`. Always emits every series (count=0 when a stage never
  /// fired) so the bench sentinel can hold a fixed schema.
  void export_to(MetricsRegistry& registry, const Labels& labels = {}) const;
};

/// Times one wall-clock stage sample (match CPU, journal fsync) into
/// `hist`, in microseconds, from construction to destruction.
class StageTimer {
 public:
  explicit StageTimer(Histogram& hist);
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point t0_;
};

/// Span sink computing the sim-time half of a LatencyBreakdown from the
/// live span stream. Install with ScopedSink (or let workload::Scenario
/// keep one armed for its lifetime).
class LatencyTracker : public SpanSink {
 public:
  void on_span(const Span& span) override;

  /// For benches without an alerting pipeline (e.g. collection-access
  /// probes): feed the end-to-end number directly.
  void record_e2e_ms(double ms) { breakdown_.e2e_ms.record(ms); }

  const LatencyBreakdown& breakdown() const { return breakdown_; }
  LatencyBreakdown& breakdown() { return breakdown_; }

  std::uint64_t notifies_seen() const { return notifies_seen_; }
  std::uint64_t orphan_spans() const { return orphan_spans_; }

  void clear();

 private:
  double trace_start_ms(std::uint64_t trace_id, bool* known) const;

  // trace id -> publish time (ms). Bounded open map: traces are dense
  // ids from the deterministic allocator, so an eviction ring suffices.
  static constexpr std::size_t kMaxTraces = 8192;
  struct TraceStart {
    std::uint64_t trace_id = 0;
    double at_ms = 0.0;
  };
  std::array<TraceStart, kMaxTraces> starts_{};

  LatencyBreakdown breakdown_;
  std::uint64_t notifies_seen_ = 0;
  std::uint64_t orphan_spans_ = 0;  // notify/deliver with unknown trace
};

}  // namespace gsalert::obs
