// Shared plumbing for baseline alerting extensions: the client-facing
// subscribe/cancel/notify protocol, identical to the real service so the
// same Client nodes and workloads drive every strategy.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "alerting/messages.h"
#include "common/types.h"
#include "gsnet/greenstone_server.h"
#include "gsnet/server_extension.h"
#include "profiles/profile.h"
#include "transport/endpoint.h"

namespace gsalert::baselines {

class SubscriptionExtensionBase : public gsnet::ServerExtension {
 public:
  std::size_t subscription_count() const { return subs_.size(); }

  bool handle_envelope(NodeId from, const wire::Envelope& env) override;
  /// Control messages pending at a crash are dropped: their retransmit
  /// timers died with it (counted as cancelled).
  void on_recovered() override { endpoint_.cancel_all(); }

  /// Retransmit/timeout counters for broker control messages.
  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

 protected:
  struct Sub {
    NodeId client;
    std::string profile_text;
  };

  /// Strategy hooks invoked after the subscription table was updated.
  /// `profile` arrives parsed with id == subscription id.
  virtual void on_subscribed(const Sub& sub, profiles::Profile profile) = 0;
  virtual void on_cancelled(SubscriptionId id, const Sub& sub) = 0;
  /// Messages of the strategy's own protocol.
  virtual bool handle_strategy_envelope(NodeId from,
                                        const wire::Envelope& env) = 0;

  /// Deliver an event to the client of a local subscription.
  void notify_client(SubscriptionId id, const docmodel::Event& event);

  /// Send a broker control message (subscribe/unsubscribe) through the
  /// transport endpoint: retransmitted with backoff until the broker's
  /// kRvAck (echoing msg_id) arrives or the deadline passes. Publishes
  /// remain fire-and-forget — the lossiness the benches measure is the
  /// event path, not the control plane.
  void reliable_control(NodeId to, wire::Envelope env);

  std::map<SubscriptionId, Sub> subs_;
  SubscriptionId next_sub_ = 1;
  std::uint64_t notifications_sent_ = 0;
  transport::Endpoint endpoint_;

 public:
  std::uint64_t notifications_sent() const { return notifications_sent_; }
};

}  // namespace gsalert::baselines
