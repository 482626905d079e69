#include "baselines/centralized.h"

#include "alerting/messages.h"
#include "profiles/event_context.h"
#include "profiles/parser.h"
#include "wire/envelope.h"

namespace gsalert::baselines {

namespace {
std::uint64_t owner_key(NodeId node, SubscriptionId sub) {
  return (static_cast<std::uint64_t>(node.value()) << 32) ^ sub;
}
}  // namespace

void CentralServer::on_packet(NodeId from, const sim::Packet& packet) {
  auto decoded = wire::unpack(packet);
  if (!decoded.ok()) return;
  const wire::Envelope& env = decoded.value();
  switch (env.type) {
    case wire::MessageType::kRvSubscribe: {
      // Ack first — even a malformed control message must stop the
      // sender's retransmit loop (retrying cannot fix it).
      network().send(this->id(), from,
                     wire::make_envelope(wire::MessageType::kRvAck, name(),
                                         env.src, env.msg_id, wire::Writer{})
                         .pack());
      auto body = RemoteProfileBody::decode(env.body);
      if (!body.ok()) return;
      const RemoteProfileBody& msg = body.value();
      const std::uint64_t key = owner_key(from, msg.owner_sub_id);
      if (msg.remove) {
        const auto it = by_owner_.find(key);
        if (it != by_owner_.end()) {
          (void)index_.remove(it->second);
          owners_.erase(it->second);
          by_owner_.erase(it);
        }
        return;
      }
      auto parsed = profiles::parse_profile(msg.profile_text);
      if (!parsed.ok()) return;
      const profiles::ProfileId id = next_id_++;
      parsed.value().id = id;
      if (index_.add(std::move(parsed).take()).is_ok()) {
        owners_[id] = {from, msg.owner_sub_id};
        by_owner_[key] = id;
      }
      return;
    }
    case wire::MessageType::kCentralPublish: {
      auto event = alerting::decode_event(env.body);
      if (!event.ok()) return;
      const profiles::EventContext ctx =
          profiles::EventContext::from(event.value());
      for (profiles::ProfileId id : index_.match(ctx)) {
        const auto owner = owners_.find(id);
        if (owner == owners_.end()) continue;
        alerting::NotificationBody note;
        note.subscription_id = owner->second.second;
        note.event = event.value();
        wire::Writer w;
        note.encode(w);
        network().send(this->id(), owner->second.first,
                       wire::make_envelope(wire::MessageType::kCentralNotify,
                                           name(), "", next_msg_++,
                                           std::move(w))
                           .pack());
      }
      return;
    }
    default:
      return;
  }
}

void CentralizedAlerting::on_subscribed(const Sub& sub,
                                        profiles::Profile profile) {
  RemoteProfileBody body;
  body.owner_server = server_->name();
  body.owner_sub_id = profile.id;
  body.profile_text = sub.profile_text;
  wire::Writer w;
  body.encode(w);
  reliable_control(central_,
                   wire::make_envelope(wire::MessageType::kRvSubscribe,
                                       server_->name(), "",
                                       server_->next_msg_id(),
                                       std::move(w)));
}

void CentralizedAlerting::on_cancelled(SubscriptionId id, const Sub& /*sub*/) {
  RemoteProfileBody body;
  body.owner_server = server_->name();
  body.owner_sub_id = id;
  body.remove = true;
  wire::Writer w;
  body.encode(w);
  reliable_control(central_,
                   wire::make_envelope(wire::MessageType::kRvSubscribe,
                                       server_->name(), "",
                                       server_->next_msg_id(),
                                       std::move(w)));
}

void CentralizedAlerting::on_local_event(const docmodel::Event& event) {
  wire::Writer w;
  event.encode(w);
  server_->send_to(central_,
                   wire::make_envelope(wire::MessageType::kCentralPublish,
                                       server_->name(), "",
                                       server_->next_msg_id(),
                                       std::move(w)));
}

bool CentralizedAlerting::handle_strategy_envelope(NodeId /*from*/,
                                                   const wire::Envelope& env) {
  if (env.type != wire::MessageType::kCentralNotify) return false;
  auto body = alerting::NotificationBody::decode(env.body);
  if (!body.ok()) return true;
  notify_client(body.value().subscription_id, body.value().event);
  return true;
}

}  // namespace gsalert::baselines
