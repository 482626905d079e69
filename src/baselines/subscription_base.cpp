#include "baselines/subscription_base.h"

#include "profiles/parser.h"

namespace gsalert::baselines {

bool SubscriptionExtensionBase::handle_envelope(NodeId from,
                                                const wire::Envelope& env) {
  switch (env.type) {
    case wire::MessageType::kSubscribe: {
      auto body = alerting::SubscribeBody::decode(env.body);
      alerting::SubscribeAckBody ack;
      ack.request_id = env.msg_id;
      if (!body.ok()) {
        ack.error = body.error().str();
      } else {
        auto parsed = profiles::parse_profile(body.value().profile_text);
        if (!parsed.ok()) {
          ack.error = parsed.error().str();
        } else {
          const SubscriptionId id = next_sub_++;
          parsed.value().id = id;
          Sub sub{from, body.value().profile_text};
          subs_[id] = sub;
          on_subscribed(sub, std::move(parsed).take());
          ack.ok = true;
          ack.subscription_id = id;
        }
      }
      wire::Writer w;
      ack.encode(w);
      server_->send_to(from,
                       wire::make_envelope(wire::MessageType::kSubscribeAck,
                                           server_->name(), "", env.msg_id,
                                           std::move(w)));
      return true;
    }
    case wire::MessageType::kCancelSubscription: {
      auto body = alerting::CancelBody::decode(env.body);
      if (!body.ok()) return true;
      const auto it = subs_.find(body.value().subscription_id);
      if (it != subs_.end()) {
        const Sub sub = it->second;
        subs_.erase(it);
        on_cancelled(body.value().subscription_id, sub);
      }
      return true;
    }
    case wire::MessageType::kRvAck:
      (void)endpoint_.complete(env.msg_id, env);
      return true;
    default:
      return handle_strategy_envelope(from, env);
  }
}

void SubscriptionExtensionBase::reliable_control(NodeId to,
                                                 wire::Envelope env) {
  if (!endpoint_.attached()) {
    endpoint_.attach(&server_->net(), server_->id(), server_->name(),
                     0xBA5E11E5ULL ^ server_->id().value());
  }
  const std::uint64_t key = env.msg_id;
  endpoint_.request(key, std::move(env), {.to = to},
                    [](const wire::Envelope*) {
                      // Nothing to do on ack; a deadline means the broker
                      // stayed unreachable and the control message is
                      // dropped (bounded persistence, not a full outbox).
                    });
}

void SubscriptionExtensionBase::notify_client(SubscriptionId id,
                                              const docmodel::Event& event) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return;
  // Same wire shape as the gsalert delivery stage: bare event payload in
  // the body, subscription id in msg_id.
  server_->send_to(it->second.client,
                   wire::make_envelope(wire::MessageType::kNotification,
                                       server_->name(), "", id,
                                       wire::Frame{alerting::encode_event(
                                           event)}));
  notifications_sent_ += 1;
}

}  // namespace gsalert::baselines
