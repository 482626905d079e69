// An alerting client: a user at some Greenstone server. Subscribes with
// profile text over the client protocol and records every notification for
// correctness and latency analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alerting/messages.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/node.h"
#include "transport/endpoint.h"
#include "wire/envelope.h"

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
  /// are handed to the callback instead of being stored, and the
  /// per-notification dedup ledger is skipped. Sink users run networks
  /// without loss or duplication, credit-managed (perfbench `storm`) or
  /// not; a replayed digest is still dropped by (sender, msg_id) before
  /// the sink.
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

  /// Subscribes pending at a crash are dropped: their timers died with
  /// it, so their callbacks never fire.
  void on_recover() override { endpoint_.cancel_all(); }
  void on_packet(NodeId from, const sim::Packet& packet) override;

 private:
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
  // arrival from the same sender is a wire-level duplicate and is not
  // recorded.
  struct NotificationKey {
    std::uint32_t sender = 0;
    SubscriptionId sub = 0;
    docmodel::EventId event;

    bool operator==(const NotificationKey&) const = default;
  };
  struct NotificationKeyHash {
    std::size_t operator()(const NotificationKey& k) const noexcept {
      std::size_t h = std::hash<docmodel::EventId>{}(k.event);
      h ^= k.sub + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.sender + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    }
  };
  std::unordered_set<NotificationKey, NotificationKeyHash>
      seen_notifications_;
  // Replayed digests are dropped wholesale by (sender, msg_id): the
  // channel seq of a managed digest, whose every seq below chan_base was
  // acked, hence received, so only seqs above the highest chan_base - 1
  // are kept; an unmanaged digest's msg id, kept exactly (no chan_base).
  struct SeenDigests {
    std::uint64_t floor = 0;
    std::set<std::uint64_t> above;
  };
  std::unordered_map<std::uint32_t, SeenDigests> seen_digests_;
  std::uint64_t digests_received_ = 0;
  std::uint64_t digest_replays_ = 0;

  /// First arrival of this digest from `from`? Records it either way.
  bool first_digest_arrival(NodeId from, const wire::Envelope& env);
  void record_notification(NodeId from, SubscriptionId sub,
                           docmodel::Event event);
};

}  // namespace gsalert::alerting
