#include "baselines/gs_flooding.h"

#include "alerting/messages.h"
#include "profiles/event_context.h"
#include "wire/envelope.h"

namespace gsalert::baselines {

void GsFloodAlerting::add_neighbor(const std::string& host, NodeId node) {
  neighbors_.emplace_back(host, node);
}

void GsFloodAlerting::on_subscribed(const Sub& /*sub*/,
                                    profiles::Profile profile) {
  (void)index_.add(std::move(profile));
}

void GsFloodAlerting::on_cancelled(SubscriptionId id, const Sub&) {
  (void)index_.remove(id);
}

void GsFloodAlerting::filter_local(const docmodel::Event& event) {
  const profiles::EventContext ctx = profiles::EventContext::from(event);
  for (profiles::ProfileId id : index_.match(ctx)) {
    notify_client(id, event);
  }
}

void GsFloodAlerting::forward(const docmodel::Event& event,
                              std::uint16_t ttl, NodeId except) {
  if (ttl == 0) return;
  wire::Writer w;
  event.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGsFlood, server_->name(), "",
      server_->next_msg_id(), std::move(w));
  env.ttl = ttl;
  for (const auto& [host, node] : neighbors_) {
    if (node == except) continue;
    server_->send_to(node, env);
    stats_.forwards += 1;
  }
}

void GsFloodAlerting::on_local_event(const docmodel::Event& event) {
  seen_.insert(event.id.origin, event.id.seq);
  stats_.events_flooded += 1;
  filter_local(event);
  forward(event, ttl_, NodeId::invalid());
}

bool GsFloodAlerting::handle_strategy_envelope(NodeId from,
                                               const wire::Envelope& env) {
  if (env.type != wire::MessageType::kGsFlood) return false;
  auto event = alerting::decode_event(env.body);
  if (!event.ok()) return true;
  const docmodel::EventId& id = event.value().id;
  const bool seen_before = !seen_.insert(id.origin, id.seq);
  if (seen_before) {
    stats_.duplicates += 1;
    if (dedup_enabled_) return true;
    // Without dedup the event is processed (and re-forwarded) again — the
    // duplicate/livelock pathology on cyclic topologies.
  }
  stats_.events_received += 1;
  if (!seen_before) filter_local(event.value());
  forward(event.value(), static_cast<std::uint16_t>(env.ttl - 1), from);
  return true;
}

}  // namespace gsalert::baselines
