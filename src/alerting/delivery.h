// Per-subscriber delivery stage between match and wire (ROADMAP item 2).
// Matching is fast; this layer makes the *send* side survive
// subscriber-scale fan-out:
//
//   encode once   the event body is encoded into one refcounted
//                 wire::Frame by filter_and_notify and aliased across
//                 every matching subscriber — N matches cost one body
//                 encode (gated at 1/event in tests/perf_budget.txt).
//   backpressure  with credits > 0, per-client delivery rides a
//                 transport::ChannelSet; a client with `credits` unacked
//                 digests stalls its queue, and acks resume it once the
//                 window drains to the low watermark (hysteresis).
//   coalescing    per-subscription policy: immediate, coalesce-window
//                 (burst + duplicate merge), or periodic digest. Queued
//                 notifications for one client flush as a single
//                 kNotificationDigest whose entries alias the
//                 encode-once payload bytes.
//   bounded queues  each client queue spills beyond `queue_capacity`,
//                 dropping the oldest coalescible entry first.
//
// A policy lives on its subscription (AlertingService::subs_), so one
// lookup per hit yields both the client and the policy, and cancelling
// the subscription deletes its policy.
//
// Durability mirrors the channel outbox: queued entries journal
// enq/done records (types 76..81), snapshots write the live queues and
// the digest channel as the same records (plus 84..85 for the counters
// and channel peers), and pending_keys() exposes everything accepted but
// not yet on a client for the chaos crash-durability superset check.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alerting/messages.h"
#include "common/types.h"
#include "docmodel/event.h"
#include "transport/channel.h"
#include "wire/envelope.h"

namespace gsalert::alerting {

class AlertingService;

enum class DeliveryMode : std::uint8_t {
  kImmediate = 0,  // one kNotification (or digest-of-one) per match
  kCoalesce = 1,   // hold `window` after the first hit, merge duplicates
  kDigest = 2,     // periodic digest: one message per client per window
};

struct DeliveryPolicy {
  DeliveryMode mode = DeliveryMode::kImmediate;
  /// Coalesce window / digest period. zero() = the stage's default.
  SimTime window = SimTime::zero();
};

struct DeliveryConfig {
  /// Max unacked digests per client before its queue stalls. 0 disables
  /// the managed (channel-backed) path entirely: immediate notifications
  /// go straight to the wire and digests are fire-and-forget — the
  /// pre-delivery-stage contract.
  std::size_t credits = 0;
  /// A stalled client resumes once unacked <= low_watermark
  /// (0 = credits / 2).
  std::size_t low_watermark = 0;
  /// Per-client queue bound; beyond it the oldest coalescible entry
  /// spills (then the oldest of any mode).
  std::size_t queue_capacity = 1024;
  /// Window for policies that leave DeliveryPolicy::window at zero.
  SimTime default_window = SimTime::millis(100);
  /// Initial retransmit interval of the managed digest channel.
  SimTime retry_interval = SimTime::seconds(1);
};

struct DeliveryStats {
  std::uint64_t enqueued = 0;           // entries queued (coalesce/digest/stall)
  std::uint64_t sent_immediate = 0;     // hits delivered without windowing
  std::uint64_t digests_sent = 0;       // kNotificationDigest messages
  std::uint64_t digest_notifications = 0;  // entries shipped inside digests
  std::uint64_t coalesced_merges = 0;   // duplicate (sub, event) merged away
  std::uint64_t spilled = 0;            // entries dropped at queue capacity
  std::uint64_t stalls = 0;             // queue paused on exhausted credits
  std::uint64_t resumes = 0;            // queue resumed at the low watermark
  std::uint64_t max_queue_depth = 0;    // deepest any client queue ever got
};

/// One AlertingService's delivery stage. The service owns it, feeds it
/// match hits with their subscription's policy, and forwards timers /
/// acks / journal records; the stage reaches back through its owner
/// (friend) for the wire, the journal, the notification observer and,
/// when replaying a queue entry, its subscription's policy.
class DeliveryStage {
 public:
  /// Timer tokens (bits 58/59; ChannelSet default is 60, Endpoint 61).
  static constexpr std::uint64_t kChannelToken = 1ULL << 58;
  static constexpr std::uint64_t kFlushToken = 1ULL << 59;

  explicit DeliveryStage(AlertingService& owner) : owner_(owner) {}

  void configure(const DeliveryConfig& config);
  const DeliveryConfig& config() const { return config_; }
  /// Bind the digest channel + timers to the owner's network (idempotent;
  /// the service calls this from its own ensure_channels).
  void ensure_attached();
  /// Credit-managed (channel-backed) delivery?
  bool managed() const { return config_.credits > 0; }

  /// One match hit for subscription `sub`, delivered under its `policy`.
  /// `event` is shared across the fan-out for observers; `bytes` is the
  /// encode-once event payload frame.
  void offer(NodeId client, SubscriptionId sub, DeliveryPolicy policy,
             const std::shared_ptr<const docmodel::Event>& event,
             const wire::Frame& bytes);

  /// Flush-timer + digest-channel timer dispatch; false when not ours.
  bool on_timer(std::uint64_t token);
  /// kNotificationAck from a client (peer = client node name).
  void on_ack(const std::string& peer, std::uint64_t seq);
  /// Re-arm timers after a node restart.
  void on_restart();
  /// Drop queued entries for a cancelled subscription. Deliberately not
  /// journaled: replaying the cancellation record re-drops them.
  void drop_subscription(SubscriptionId sub);

  std::size_t queue_depth_total() const;
  /// Current deepest per-client queue (the perf_budget bound).
  std::size_t queue_depth_max() const;
  /// Unacked digests on the managed channel.
  std::size_t inflight() const { return channel_.unacked_total(); }
  const DeliveryStats& stats() const { return stats_; }
  const transport::ChannelStats& channel_stats() const {
    return channel_.stats();
  }

  /// "client#sub#origin#seq" keys for every notification accepted but not
  /// yet on a client: queued entries plus unacked digest envelopes.
  /// Sorted and deduplicated (crash-durability superset check).
  std::vector<std::string> pending_keys() const;

  // --- durability (driven by AlertingService's extension hooks) ---------
  void clear();
  /// Full state as records: counters, then the subscriptions' policy
  /// records (written by `put_policies`, since the owner keeps policies on
  /// its subscriptions), queue entries, channel.
  void snapshot(const journal::RecordSink& out,
                const std::function<void()>& put_policies) const;
  /// Apply one of the stage's records; false when not ours or malformed.
  bool replay_journal(std::uint8_t type, wire::Reader& r);

 private:
  struct QueueEntry {
    std::uint64_t seq = 0;  // server-wide entry id (journal enq/done key)
    SubscriptionId sub = 0;
    docmodel::EventId event_id;
    std::shared_ptr<const docmodel::Event> event;  // for the observer
    wire::Frame bytes;                             // encode_event() payload
    DeliveryMode mode = DeliveryMode::kImmediate;
  };
  struct ClientQueue {
    NodeId node;
    std::string name;
    std::deque<QueueEntry> entries;
    SimTime flush_due = SimTime::zero();
    bool flush_armed = false;
    bool stalled = false;  // waiting for the credit window to drain
  };

  ClientQueue& queue_for(NodeId client);
  SimTime window_of(const DeliveryPolicy& policy) const;
  std::size_t low_watermark() const;
  bool credit_available(const ClientQueue& q) const;
  void enqueue(ClientQueue& q, SubscriptionId sub,
               const std::shared_ptr<const docmodel::Event>& event,
               const wire::Frame& bytes, DeliveryMode mode, SimTime window);
  void spill_one(ClientQueue& q);
  /// Send one kNotification straight to the wire (unmanaged immediate).
  void send_immediate(ClientQueue& q, SubscriptionId sub,
                      const docmodel::Event& event, const wire::Frame& bytes);
  /// Encode `entries` (views of queued frames) as one kNotificationDigest
  /// and put it on the wire (managed: reliable channel; unmanaged:
  /// fire-and-forget).
  void ship(ClientQueue& q,
            std::vector<NotificationDigestBody::Entry> entries);
  /// Ship every queued entry of `q` as one digest (credit permitting).
  void flush(ClientQueue& q);
  void arm_flush(ClientQueue& q, SimTime due);
  void arm_timer(SimTime due);
  SimTime earliest_flush() const;
  std::uint64_t alloc_digest_seq();
  void note_sent(const ClientQueue& q, SubscriptionId sub,
                 const docmodel::Event& event);
  bool restore_entry(NodeId node, const std::string& name,
                     std::uint64_t entry_seq, SubscriptionId sub,
                     std::vector<std::byte> event_bytes);

  AlertingService& owner_;
  DeliveryConfig config_;
  // Keyed by client node name; on_timer flushes in this order.
  std::map<std::string, ClientQueue> queues_;
  transport::ChannelSet channel_;              // managed digest delivery
  std::uint64_t next_entry_seq_ = 1;
  std::uint64_t digest_seq_ = 0;
  bool timer_armed_ = false;
  SimTime timer_target_ = SimTime::zero();
  DeliveryStats stats_;
};

}  // namespace gsalert::alerting
