// Baseline B1 — a centralized alerting service in the style of
// SIFT/Hermes'01 (paper §2.1): one central server holds every profile;
// every event is unicast to it; notifications route back through the
// subscriber's home DL server. The bench measures the central node's load
// concentration and the outage cost when it fails.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "baselines/messages.h"
#include "baselines/subscription_base.h"
#include "profiles/index.h"
#include "sim/node.h"

namespace gsalert::baselines {

/// The central matching node. Profiles from all servers are indexed here.
class CentralServer : public sim::Node {
 public:
  void on_packet(NodeId from, const sim::Packet& packet) override;

  std::size_t profile_count() const { return index_.profile_count(); }

 private:
  profiles::ProfileIndex index_;
  // Dense central ids; maps back to (owner server node, owner sub id).
  std::unordered_map<profiles::ProfileId, std::pair<NodeId, SubscriptionId>>
      owners_;
  // (owner node value, owner sub id) -> central id, for unsubscribes.
  std::unordered_map<std::uint64_t, profiles::ProfileId> by_owner_;
  profiles::ProfileId next_id_ = 1;
  std::uint64_t next_msg_ = 1;
};

/// Per-DL-server extension: forwards subscriptions and events to the
/// central node and relays notifications back to clients.
class CentralizedAlerting : public SubscriptionExtensionBase {
 public:
  explicit CentralizedAlerting(NodeId central) : central_(central) {}

  void on_local_event(const docmodel::Event& event) override;

 protected:
  void on_subscribed(const Sub& sub, profiles::Profile profile) override;
  void on_cancelled(SubscriptionId id, const Sub& sub) override;
  bool handle_strategy_envelope(NodeId from,
                                const wire::Envelope& env) override;

 private:
  NodeId central_;
};

}  // namespace gsalert::baselines
