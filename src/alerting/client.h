// An alerting client: a user at some Greenstone server. Subscribes with
// profile text over the client protocol and records every notification for
// correctness and latency analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alerting/messages.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/endpoint.h"

namespace gsalert::alerting {

class Client : public sim::Node {
 public:
  struct ReceivedNotification {
    SubscriptionId subscription_id = 0;
    docmodel::Event event;
    SimTime at;
  };

  /// The server this user interacts with (their "single unified access
  /// point" — challenge 3 in the paper).
  void set_home(NodeId server) { home_ = server; }
  NodeId home() const { return home_; }

  /// Send a Subscribe request; callback fires with the ack (subscription
  /// id on success).
  using SubscribeCallback =
      std::function<void(Result<SubscriptionId>)>;
  void subscribe(const std::string& profile_text,
                 SubscribeCallback callback = {});

  void cancel(SubscriptionId id);

  const std::vector<ReceivedNotification>& notifications() const {
    return notifications_;
  }
  const std::vector<SubscriptionId>& subscriptions() const {
    return subscription_ids_;
  }
  void clear_notifications() { notifications_.clear(); }

  /// Streaming sink for subscriber-scale benches: when set, notifications
  /// are handed to the callback instead of being stored (and the
  /// per-notification dedup ledger is skipped — sink users run loss-free
  /// unmanaged workloads where wire duplicates cannot occur).
  using NotificationSink =
      std::function<void(SubscriptionId, const docmodel::Event&, SimTime)>;
  void set_notification_sink(NotificationSink sink) {
    sink_ = std::move(sink);
  }

  /// Digest traffic counters (coalesce / digest delivery modes).
  std::uint64_t digests_received() const { return digests_received_; }
  std::uint64_t digest_replays_dropped() const { return digest_replays_; }

  /// Retransmit/timeout counters for subscribe requests.
  const transport::EndpointStats& endpoint_stats() const {
    return endpoint_.stats();
  }

  void on_packet(NodeId from, const sim::Packet& packet) override;
  void on_timer(std::uint64_t token) override;

 private:
  static constexpr std::uint8_t kEndpointTag = 1;

  NodeId home_;
  std::uint64_t next_request_ = 1;
  // Pending subscribe requests (retries + deadline) live in the endpoint;
  // acks for retransmitted subscribes dedup against it, so a subscription
  // id is recorded at most once per request.
  transport::Endpoint endpoint_;
  std::vector<SubscriptionId> subscription_ids_;
  std::vector<ReceivedNotification> notifications_;
  NotificationSink sink_;
  // The server sends one notification per (subscription, event); a second
  // arrival is a wire-level duplicate and is not recorded.
  std::unordered_set<std::string> seen_notifications_;
  // Channel-managed digests retransmit until acked; replays of a digest
  // we already processed are dropped wholesale by (sender, digest_seq).
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen_digests_;
  std::uint64_t digests_received_ = 0;
  std::uint64_t digest_replays_ = 0;

  void record_notification(NodeId from, SubscriptionId sub,
                           docmodel::Event event);
};

}  // namespace gsalert::alerting
