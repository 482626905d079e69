#include "obs/latency.h"

#include <cstdlib>

#include "obs/metrics_registry.h"

namespace gsalert::obs {

StageTimer::StageTimer(Histogram& hist)
    : hist_(hist), t0_(std::chrono::steady_clock::now()) {}

StageTimer::~StageTimer() {
  hist_.record(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0_)
                              .count()) /
      1000.0);
}

// ---------- LatencyBreakdown ------------------------------------------------

void LatencyBreakdown::merge(const LatencyBreakdown& other) {
  e2e_ms.merge(other.e2e_ms);
  flood_ms.merge(other.flood_ms);
  park_dwell_ms.merge(other.park_dwell_ms);
  retransmit_delay_ms.merge(other.retransmit_delay_ms);
  match_cpu_us.merge(other.match_cpu_us);
  fsync_us.merge(other.fsync_us);
  notify_hops.merge(other.notify_hops);
}

void LatencyBreakdown::export_to(MetricsRegistry& registry,
                                 const Labels& labels) const {
  registry.histogram("latency.e2e_ms", labels).merge(e2e_ms);
  registry.histogram("latency.stage.flood_ms", labels).merge(flood_ms);
  registry.histogram("latency.stage.park_dwell_ms", labels)
      .merge(park_dwell_ms);
  registry.histogram("latency.stage.retransmit_delay_ms", labels)
      .merge(retransmit_delay_ms);
  registry.histogram("latency.stage.match_cpu_us", labels).merge(match_cpu_us);
  registry.histogram("latency.stage.fsync_us", labels).merge(fsync_us);
  registry.histogram("latency.notify_hops", labels).merge(notify_hops);
}

// ---------- LatencyTracker --------------------------------------------------

namespace {
const std::string* find_arg(const Span& span, const char* key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return &v;
  }
  return nullptr;
}
}  // namespace

double LatencyTracker::trace_start_ms(std::uint64_t trace_id,
                                      bool* known) const {
  const TraceStart& slot = starts_[trace_id % kMaxTraces];
  *known = slot.trace_id == trace_id && trace_id != 0;
  return slot.at_ms;
}

void LatencyTracker::on_span(const Span& span) {
  if (span.trace_id == 0) return;
  const double at_ms = span.at.as_millis();
  if (span.name == "publish") {
    // The first publish of a trace is the user-visible t0. Rename
    // cascades re-publish under the same trace later — keep the origin.
    TraceStart& slot = starts_[span.trace_id % kMaxTraces];
    if (slot.trace_id != span.trace_id) {
      slot.trace_id = span.trace_id;
      slot.at_ms = at_ms;
    }
    return;
  }
  if (span.name == "notify") {
    bool known = false;
    const double start = trace_start_ms(span.trace_id, &known);
    if (!known) {
      orphan_spans_ += 1;
      return;
    }
    notifies_seen_ += 1;
    breakdown_.e2e_ms.record(at_ms - start);
    breakdown_.notify_hops.record(static_cast<double>(span.hop));
    return;
  }
  if (span.name == "gds-deliver") {
    bool known = false;
    const double start = trace_start_ms(span.trace_id, &known);
    if (known) {
      breakdown_.flood_ms.record(at_ms - start);
    } else {
      orphan_spans_ += 1;
    }
    return;
  }
  if (span.name == "gds-park-flush") {
    if (const std::string* dwell = find_arg(span, "dwell_ms")) {
      breakdown_.park_dwell_ms.record(std::strtod(dwell->c_str(), nullptr));
    }
    return;
  }
  if (span.name == "retry") {
    if (const std::string* since = find_arg(span, "since_ms")) {
      breakdown_.retransmit_delay_ms.record(
          std::strtod(since->c_str(), nullptr));
    }
    return;
  }
}

void LatencyTracker::clear() {
  starts_.fill(TraceStart{});
  breakdown_ = LatencyBreakdown{};
  notifies_seen_ = 0;
  orphan_spans_ = 0;
}

}  // namespace gsalert::obs
