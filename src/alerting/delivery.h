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
//                 window drains to credits / 2 (hysteresis).
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
// Durability: an entry stays queued until the client acks the digest that
// shipped it, and its enq record is the only one carrying its bytes (types
// 76..79; snapshots add 80 and 84). The digest channel journals nothing: a
// restart rebuilds each in-flight digest from its entries. pending_keys()
// exposes everything accepted but not yet acked for the chaos
// crash-durability superset check.
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
  /// Per-client queue bound; beyond it the oldest coalescible entry
  /// spills (then the oldest of any mode).
  std::size_t queue_capacity = 1024;
  /// Window for policies that leave DeliveryPolicy::window at zero.
  SimTime default_window = SimTime::millis(100);
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
/// match hits with their subscription's policy, and forwards acks and
/// journal records. The stage and its digest channel arm their own
/// timers; the stage reaches back through its owner (friend) for the
/// wire, the journal, the notification observer and, when replaying a
/// queue entry, its subscription's policy.
class DeliveryStage {
 public:
  DeliveryStage(AlertingService& owner, const DeliveryConfig& config)
      : owner_(owner), config_(config) {}

  /// Bind the digest channel to the owner's network (idempotent; the
  /// service calls this from its own ensure_channels).
  void ensure_attached();
  /// Credit-managed (channel-backed) delivery?
  bool managed() const { return config_.credits > 0; }

  /// One match hit for subscription `sub`, delivered under its `policy`.
  /// `event` is shared across the fan-out for observers; `bytes` is the
  /// encode-once event payload frame, which a queued hit keeps as it is
  /// (a flooded event's is a slice of its GDS deliver body).
  void offer(NodeId client, SubscriptionId sub, DeliveryPolicy policy,
             const std::shared_ptr<const docmodel::Event>& event,
             const wire::Frame& bytes);

  /// kNotificationAck (peer = client node name): retires digest `seq`.
  void on_ack(const std::string& peer, std::uint64_t seq);
  /// After a restart: recovered digests back on the channel, timers armed.
  void on_restart();
  /// Drop waiting entries for a cancelled subscription. Deliberately not
  /// journaled: replaying the cancellation record re-drops them.
  void drop_subscription(SubscriptionId sub);

  /// Waiting (not in-flight) entries, summed and per deepest client.
  std::size_t queue_depth_total() const;
  std::size_t queue_depth_max() const;
  /// Unacked digests on the managed channel.
  std::size_t inflight() const { return channel_.unacked_total(); }
  const DeliveryStats& stats() const { return stats_; }
  const transport::ChannelStats& channel_stats() const {
    return channel_.stats();
  }

  /// "client#sub#origin#seq" keys for every queued entry, waiting or in
  /// flight. Sorted and deduplicated (crash-durability superset check).
  std::vector<std::string> pending_keys() const;

  // --- durability (driven by AlertingService's extension hooks) ---------
  void clear();
  /// Full state as records: the entry counter, the subscriptions' policy
  /// records (written by `put_policies`, since the owner keeps policies on
  /// its subscriptions), then per client its next digest seq and entries.
  void snapshot(const journal::RecordSink& out,
                const std::function<void()>& put_policies) const;
  /// Apply one of the stage's records; false when not ours or malformed.
  bool replay_journal(std::uint8_t type, wire::Reader& r);

 private:
  struct QueueEntry {
    std::uint64_t seq = 0;     // server-wide entry id (journal spill key)
    std::uint64_t digest = 0;  // channel seq that shipped it; 0 = waiting
    SubscriptionId sub = 0;
    std::shared_ptr<const docmodel::Event> event;  // for the observer
    wire::Frame bytes;                             // encode_event() payload
    DeliveryMode mode = DeliveryMode::kImmediate;
  };
  using Entries = std::deque<QueueEntry>;
  struct ClientQueue {
    NodeId node;
    std::string name;
    // Every entry until the ack of the digest that shipped it, in the
    // enq record's shape: shipped entries first, in digest order, then
    // the `waiting` ones in arrival order.
    Entries entries;
    std::size_t waiting = 0;   // the unshipped tail of `entries`
    std::size_t inflight = 0;  // unacked digests
    std::uint64_t next_digest = 1;  // the channel's next seq to this client
    SimTime flush_due = SimTime::zero();
    bool flush_armed = false;
    bool stalled = false;  // waiting for the credit window to drain

    Entries::iterator waiting_begin() { return entries.end() - waiting; }
    Entries::const_iterator waiting_begin() const {
      return entries.end() - waiting;
    }
  };

  /// The queue of `client` (made when `create`); nullptr when none.
  ClientQueue* queue_for(NodeId client, bool create);
  void stall(ClientQueue& q);
  void enqueue(ClientQueue& q, SubscriptionId sub,
               const std::shared_ptr<const docmodel::Event>& event,
               const wire::Frame& bytes, DeliveryMode mode, SimTime window);
  void spill_one(ClientQueue& q);
  /// Send one kNotification straight to the wire (unmanaged immediate).
  void send_immediate(ClientQueue& q, SubscriptionId sub,
                      const docmodel::Event& event, const wire::Frame& bytes);
  /// Send the entries [first, last) of `q` as one kNotificationDigest:
  /// managed, they stay queued, tagged with the returned channel seq;
  /// unmanaged, fire-and-forget, they leave the queue (returns 0).
  std::uint64_t ship(ClientQueue& q, Entries::iterator first,
                     Entries::iterator last);
  wire::Envelope digest_envelope(Entries::const_iterator first,
                                 Entries::const_iterator last) const;
  /// Ship every waiting entry of `q` as one digest (credit permitting).
  void flush(ClientQueue& q);
  /// The first shipped entry of `q` with a digest seq of at least `seq`.
  static Entries::iterator shipped_from(ClientQueue& q, std::uint64_t seq);
  /// Drop the entries digest `seq` shipped; false when it is not in flight.
  bool retire(ClientQueue& q, std::uint64_t seq);
  void arm_timer(SimTime due);
  /// The flush timer fired: flush every due queue, re-arm, commit.
  void on_flush_timer();
  SimTime earliest_flush() const;
  void note_sent(const ClientQueue& q, SubscriptionId sub,
                 const docmodel::Event& event);
  bool restore_entry(wire::Reader& r);

  AlertingService& owner_;
  DeliveryConfig config_;
  // Keyed by client node name; on_flush_timer flushes in this order.
  std::map<std::string, ClientQueue> queues_;
  transport::ChannelSet channel_;  // managed digest delivery (volatile)
  std::uint64_t next_entry_seq_ = 1;
  bool timer_armed_ = false;
  SimTime timer_target_ = SimTime::zero();
  DeliveryStats stats_;
};

}  // namespace gsalert::alerting
