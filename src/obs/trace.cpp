#include "obs/trace.h"

#include <algorithm>

namespace gsalert::obs {

namespace {
// The simulation runs on one thread, so the trace state is plain
// process-wide data.
std::vector<SpanSink*>& sinks() {
  static std::vector<SpanSink*> s;
  return s;
}
TraceContext g_active;
std::uint64_t g_next_id = 1;

TraceContext emit(const TraceContext& parent, std::string_view name,
                  std::string_view node, SimTime at, SpanArgs args) {
  if (sinks().empty()) return parent;
  Span span;
  span.trace_id = parent.traced() ? parent.trace_id : g_next_id++;
  span.span_id = g_next_id++;
  span.parent_span_id = parent.traced() ? parent.span_id : 0;
  span.hop = parent.hop;
  span.at = at;
  span.name = std::string{name};
  span.node = std::string{node};
  span.args = std::move(args);
  for (SpanSink* sink : sinks()) sink->on_span(span);
  return TraceContext{span.trace_id, span.span_id, span.hop};
}
}  // namespace

void add_sink(SpanSink* sink) { sinks().push_back(sink); }

void remove_sink(SpanSink* sink) {
  auto& s = sinks();
  s.erase(std::remove(s.begin(), s.end(), sink), s.end());
}

bool active() { return !sinks().empty(); }

void reset_ids() {
  g_next_id = 1;
  g_active = TraceContext{};
}

TraceContext current_context() { return g_active; }

TraceContext emit_span(std::string_view name, std::string_view node,
                       SimTime at, SpanArgs args) {
  return emit(g_active, name, node, at, std::move(args));
}

TraceContext emit_span_under(const TraceContext& parent,
                             std::string_view name, std::string_view node,
                             SimTime at, SpanArgs args) {
  return emit(parent, name, node, at, std::move(args));
}

TraceScope::TraceScope(TraceContext ctx) : saved_(g_active) {
  g_active = ctx;
}

TraceScope::~TraceScope() { g_active = saved_; }

}  // namespace gsalert::obs
