#include "alerting/delivery.h"

#include <algorithm>
#include <span>
#include <utility>

#include "alerting/alerting_service.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace gsalert::alerting {

namespace {
// Journal record types (64..254 are extension records; 64..75 and 82..83
// belong to AlertingService itself — see docs/DURABILITY.md).
constexpr std::uint8_t kJDelivEnq = 76;  // node u32, name str, seq u64,
                                         // sub u64, event bytes
constexpr std::uint8_t kJDelivDone = 77;   // seq u64 (sent or spilled)
constexpr std::uint8_t kJDChanSend = 78;   // 78..80: channel_ send/ack/floor
constexpr std::uint8_t kJDigestSeq = 81;   // seq u64
constexpr std::uint8_t kJDelivEntrySeq = 84;  // next_entry_seq u64 (snapshots)
constexpr std::uint8_t kJDChanPeer = 85;   // channel_ peer (snapshots)

using journal::str_wire;

// One encoder per record shape; live appends and snapshots share them.
void put_enqueued(const journal::RecordSink& out, NodeId node,
                  const std::string& name, std::uint64_t seq,
                  SubscriptionId sub, std::span<const std::byte> event) {
  out.put(kJDelivEnq, 4 + str_wire(name) + 8 + 8 + 4 + event.size(),
          [&](wire::Writer& w) {
            w.u32(node.value());
            w.str(name);
            w.u64(seq);
            w.u64(sub);
            w.bytes(event);
          });
}

std::string pending_key(NodeId client, SubscriptionId sub,
                        const docmodel::EventId& id) {
  return std::to_string(client.value()) + "#" + std::to_string(sub) + "#" +
         id.str();
}
}  // namespace

void DeliveryStage::configure(const DeliveryConfig& config) {
  config_ = config;
}

SimTime DeliveryStage::window_of(const DeliveryPolicy& policy) const {
  return policy.window.as_micros() > 0 ? policy.window
                                       : config_.default_window;
}

void DeliveryStage::ensure_attached() {
  if (channel_.attached() || owner_.server_ == nullptr) return;
  gsnet::GreenstoneServer* server = owner_.server_;
  channel_.set_timer_token(kChannelToken);
  channel_.set_journal([this] { return owner_.log(); }, kJDChanSend,
                       kJDChanPeer);
  channel_.attach(
      &server->net(), server->id(), server->name(),
      [this](const std::string& peer, const wire::Envelope& env) {
        const auto it = queues_.find(peer);
        const NodeId dest = it != queues_.end()
                                ? it->second.node
                                : owner_.server_->net().find_node(peer);
        if (dest.valid()) owner_.server_->send_to(dest, env);
      },
      0xDE11FE27ULL ^ server->id().value());
}

DeliveryStage::ClientQueue& DeliveryStage::queue_for(NodeId client) {
  const sim::Node* node = owner_.server_->net().node(client);
  const std::string& name = node->name();
  ClientQueue& q = queues_[name];
  q.node = client;
  if (q.name.empty()) q.name = name;
  return q;
}

std::uint64_t DeliveryStage::alloc_digest_seq() {
  digest_seq_ += 1;
  owner_.log().put_u64(kJDigestSeq, digest_seq_);
  return digest_seq_;
}

void DeliveryStage::note_sent(const ClientQueue& q, SubscriptionId sub,
                              const docmodel::Event& event) {
  if (owner_.notification_observer_) {
    owner_.notification_observer_(q.node, sub, event);
  }
  owner_.stats_.notifications_sent += 1;
}

void DeliveryStage::send_immediate(ClientQueue& q, SubscriptionId sub,
                                   const docmodel::Event& event,
                                   const wire::Frame& bytes) {
  if (owner_.notification_observer_) {
    owner_.notification_observer_(q.node, sub, event);
  }
  // The subscription id rides msg_id (fixed-width header field), so the
  // body stays the shared encode-once event frame: no per-subscriber
  // encode, no per-subscriber body allocation.
  wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotification,
                          owner_.server_->name(), "", sub, bytes);
  owner_.server_->send_to(q.node, env);
  owner_.stats_.notifications_sent += 1;
  stats_.sent_immediate += 1;
}

bool DeliveryStage::credit_available(const ClientQueue& q) const {
  return channel_.unacked_to(q.name) < config_.credits;
}

void DeliveryStage::offer(NodeId client, SubscriptionId sub,
                          DeliveryPolicy policy,
                          const std::shared_ptr<const docmodel::Event>& event,
                          wire::Frame& bytes) {
  GSALERT_PROFILE("delivery.offer");
  ensure_attached();
  ClientQueue& q = queue_for(client);
  if (policy.mode == DeliveryMode::kImmediate) {
    if (!managed()) {
      send_immediate(q, sub, *event, bytes);
      return;
    }
    if (!q.stalled && credit_available(q)) {
      // Digest-of-one on the reliable channel: same framing as windowed
      // delivery, so the client's ack/dedup path is uniform.
      ship(q, {{sub, bytes.span()}});
      note_sent(q, sub, *event);
      stats_.sent_immediate += 1;
      return;
    }
    if (!q.stalled) {
      q.stalled = true;
      stats_.stalls += 1;
      if (obs::active()) {
        obs::emit_span("delivery-stall", owner_.server_->name(),
                       owner_.server_->net().now(),
                       {{"client", q.name},
                        {"unacked",
                         std::to_string(channel_.unacked_to(q.name))}});
      }
    }
    enqueue(q, sub, event, bytes, DeliveryMode::kImmediate, SimTime::zero());
    return;
  }
  enqueue(q, sub, event, bytes, policy.mode, window_of(policy));
}

void DeliveryStage::enqueue(
    ClientQueue& q, SubscriptionId sub,
    const std::shared_ptr<const docmodel::Event>& event,
    wire::Frame& bytes, DeliveryMode mode, SimTime window) {
  if (mode != DeliveryMode::kImmediate) {
    for (const QueueEntry& e : q.entries) {
      if (e.mode != DeliveryMode::kImmediate && e.sub == sub &&
          e.event_id == event->id) {
        stats_.coalesced_merges += 1;
        return;
      }
    }
  }
  if (config_.queue_capacity > 0 &&
      q.entries.size() >= config_.queue_capacity) {
    spill_one(q);
  }
  // A flooded event's bytes are a slice of the GDS deliver frame, which
  // also holds the envelope and the rest of its batch. A queued entry can
  // outlive the delivery by a window or a stall, so it keeps a copy of
  // just the event, made once and shared by the event's later hits.
  if (bytes.partial()) {
    const std::span<const std::byte> view = bytes.span();
    bytes = wire::Frame{std::vector<std::byte>(view.begin(), view.end())};
  }
  QueueEntry entry;
  entry.seq = next_entry_seq_++;
  entry.sub = sub;
  entry.event_id = event->id;
  entry.event = event;
  entry.bytes = bytes;
  entry.mode = mode;
  put_enqueued(owner_.log(), q.node, q.name, entry.seq, sub, bytes.span());
  q.entries.push_back(std::move(entry));
  stats_.enqueued += 1;
  stats_.max_queue_depth =
      std::max<std::uint64_t>(stats_.max_queue_depth, q.entries.size());
  if (mode != DeliveryMode::kImmediate) {
    arm_flush(q, owner_.server_->net().now() + window);
  }
}

void DeliveryStage::spill_one(ClientQueue& q) {
  auto victim = std::find_if(q.entries.begin(), q.entries.end(),
                             [](const QueueEntry& e) {
                               return e.mode != DeliveryMode::kImmediate;
                             });
  if (victim == q.entries.end()) victim = q.entries.begin();
  if (obs::active()) {
    obs::emit_span("delivery-spill", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"sub", std::to_string(victim->sub)},
                    {"event", victim->event_id.str()}});
  }
  owner_.log().put_u64(kJDelivDone, victim->seq);
  q.entries.erase(victim);
  stats_.spilled += 1;
}

void DeliveryStage::ship(ClientQueue& q,
                         std::vector<NotificationDigestBody::Entry> entries) {
  NotificationDigestBody body;
  body.digest_seq = alloc_digest_seq();
  body.entries = std::move(entries);
  wire::Writer w;
  body.encode(w);
  wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotificationDigest,
                          owner_.server_->name(), "", 0, std::move(w));
  if (obs::active()) {
    obs::emit_span("delivery-flush", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"entries", std::to_string(body.entries.size())},
                    {"digest", std::to_string(body.digest_seq)}});
  }
  if (managed()) {
    channel_.send(q.name, std::move(env));
  } else {
    env.msg_id = owner_.server_->next_msg_id();
    owner_.server_->send_to(q.node, env);
  }
  stats_.digests_sent += 1;
  stats_.digest_notifications += body.entries.size();
}

void DeliveryStage::flush(ClientQueue& q) {
  GSALERT_PROFILE("delivery.flush");
  q.flush_armed = false;
  if (q.entries.empty()) {
    q.stalled = false;
    return;
  }
  if (managed() && !credit_available(q)) {
    if (!q.stalled) {
      q.stalled = true;
      stats_.stalls += 1;
      if (obs::active()) {
        obs::emit_span("delivery-stall", owner_.server_->name(),
                       owner_.server_->net().now(),
                       {{"client", q.name},
                        {"unacked",
                         std::to_string(channel_.unacked_to(q.name))}});
      }
    }
    return;
  }
  if (q.stalled) {
    q.stalled = false;
    stats_.resumes += 1;
    if (obs::active()) {
      obs::emit_span("delivery-resume", owner_.server_->name(),
                     owner_.server_->net().now(),
                     {{"client", q.name},
                      {"entries", std::to_string(q.entries.size())}});
    }
  }
  std::vector<NotificationDigestBody::Entry> entries;
  entries.reserve(q.entries.size());
  for (const QueueEntry& e : q.entries) {
    entries.push_back({e.sub, e.bytes.span()});
  }
  ship(q, std::move(entries));
  for (const QueueEntry& e : q.entries) {
    note_sent(q, e.sub, *e.event);
    owner_.log().put_u64(kJDelivDone, e.seq);
  }
  q.entries.clear();
}

void DeliveryStage::arm_flush(ClientQueue& q, SimTime due) {
  if (!q.flush_armed || due < q.flush_due) {
    q.flush_armed = true;
    q.flush_due = due;
    arm_timer(due);
  }
}

void DeliveryStage::arm_timer(SimTime due) {
  if (timer_armed_ && timer_target_ <= due) return;
  timer_armed_ = true;
  timer_target_ = due;
  const SimTime now = owner_.server_->net().now();
  const SimTime delay = due > now ? due - now : SimTime::micros(1);
  owner_.server_->net().set_timer(owner_.server_->id(), delay, kFlushToken);
}

SimTime DeliveryStage::earliest_flush() const {
  SimTime best = SimTime::micros(-1);
  for (const auto& [name, q] : queues_) {
    if (!q.flush_armed) continue;
    if (best.as_micros() < 0 || q.flush_due < best) best = q.flush_due;
  }
  return best;
}

bool DeliveryStage::on_timer(std::uint64_t token) {
  if (channel_.on_timer(token)) return true;
  if (token != kFlushToken) return false;
  timer_armed_ = false;
  const SimTime now = owner_.server_->net().now();
  for (auto& [name, q] : queues_) {
    if (q.flush_armed && q.flush_due <= now) flush(q);
  }
  const SimTime next = earliest_flush();
  if (next.as_micros() >= 0) arm_timer(next);
  return true;
}

void DeliveryStage::on_ack(const std::string& peer, std::uint64_t seq) {
  channel_.on_ack(peer, seq);
  const auto it = queues_.find(peer);
  if (it == queues_.end()) return;
  ClientQueue& q = it->second;
  if (!q.stalled) return;
  if (q.entries.empty()) {
    q.stalled = false;
    return;
  }
  // Hysteresis: resume only once the window has drained to half the
  // credits, not on the first freed credit.
  if (channel_.unacked_to(peer) <= config_.credits / 2) flush(q);
}

void DeliveryStage::on_restart() {
  channel_.on_restart();
  timer_armed_ = false;
  const SimTime next = earliest_flush();
  if (next.as_micros() >= 0) {
    arm_timer(std::max(next, owner_.server_->net().now() +
                                 SimTime::micros(1)));
  }
}

void DeliveryStage::drop_subscription(SubscriptionId sub) {
  for (auto& [name, q] : queues_) {
    std::erase_if(q.entries,
                  [sub](const QueueEntry& e) { return e.sub == sub; });
  }
}

std::size_t DeliveryStage::queue_depth_total() const {
  std::size_t total = 0;
  for (const auto& [name, q] : queues_) total += q.entries.size();
  return total;
}

std::size_t DeliveryStage::queue_depth_max() const {
  std::size_t deepest = 0;
  for (const auto& [name, q] : queues_) {
    deepest = std::max(deepest, q.entries.size());
  }
  return deepest;
}

std::vector<std::string> DeliveryStage::pending_keys() const {
  std::vector<std::string> out;
  for (const auto& [name, q] : queues_) {
    for (const QueueEntry& e : q.entries) {
      out.push_back(pending_key(q.node, e.sub, e.event_id));
    }
  }
  channel_.for_each_unacked([&](const std::string& peer, std::uint64_t,
                                const wire::Envelope& env) {
    if (env.type != wire::MessageType::kNotificationDigest) return;
    auto body = NotificationDigestBody::decode(env.body);
    if (!body.ok()) return;
    const auto it = queues_.find(peer);
    const NodeId client = it != queues_.end()
                              ? it->second.node
                              : owner_.server_->net().find_node(peer);
    for (const NotificationDigestBody::Entry& entry : body.value().entries) {
      auto event = decode_event(entry.event);
      if (!event.ok()) continue;
      out.push_back(
          pending_key(client, entry.subscription_id, event.value().id));
    }
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- durability -----------------------------------------------------------

bool DeliveryStage::restore_entry(NodeId node, const std::string& name,
                                  std::uint64_t entry_seq, SubscriptionId sub,
                                  std::vector<std::byte> event_bytes) {
  auto event = decode_event(event_bytes);
  if (!event.ok()) return false;
  ClientQueue& q = queues_[name];
  q.node = node;
  if (q.name.empty()) q.name = name;
  QueueEntry entry;
  entry.seq = entry_seq;
  entry.sub = sub;
  entry.event_id = event.value().id;
  entry.event =
      std::make_shared<const docmodel::Event>(std::move(event).take());
  entry.bytes = wire::Frame{std::move(event_bytes)};
  // Policy records replay before queue entries (snapshot order, and in the
  // log a policy precedes the hits it shaped).
  const auto owner_sub = owner_.subs_.find(sub);
  entry.mode = owner_sub != owner_.subs_.end() ? owner_sub->second.policy.mode
                                               : DeliveryMode::kImmediate;
  q.entries.push_back(std::move(entry));
  if (entry_seq >= next_entry_seq_) next_entry_seq_ = entry_seq + 1;
  // Recovered backlog flushes as soon as the restart re-arms timers.
  q.flush_armed = true;
  q.flush_due = SimTime::zero();
  return true;
}

void DeliveryStage::clear() {
  queues_.clear();
  channel_.clear_peers();
  next_entry_seq_ = 1;
  digest_seq_ = 0;
  timer_armed_ = false;
}

void DeliveryStage::snapshot(
    const journal::RecordSink& out,
    const std::function<void()>& put_policies) const {
  out.put_u64(kJDelivEntrySeq, next_entry_seq_);
  out.put_u64(kJDigestSeq, digest_seq_);
  // Policies first: a replayed queue entry takes its subscription's mode.
  put_policies();
  for (const auto& [name, q] : queues_) {
    for (const QueueEntry& e : q.entries) {
      put_enqueued(out, q.node, name, e.seq, e.sub, e.bytes.span());
    }
  }
  channel_.snapshot(out);
}

bool DeliveryStage::replay_journal(std::uint8_t type, wire::Reader& r) {
  switch (type) {
    case kJDelivEnq: {
      const NodeId node{r.u32()};
      const std::string name = r.str();
      const std::uint64_t seq = r.u64();
      const SubscriptionId sub = r.u64();
      std::vector<std::byte> bytes = r.bytes();
      return r.ok() && restore_entry(node, name, seq, sub, std::move(bytes));
    }
    case kJDelivDone: {
      const std::uint64_t seq = r.u64();
      if (!r.ok()) return false;
      for (auto& [name, q] : queues_) {
        std::erase_if(q.entries,
                      [seq](const QueueEntry& e) { return e.seq == seq; });
      }
      return true;
    }
    case kJDigestSeq:
    case kJDelivEntrySeq: {
      const std::uint64_t seq = r.u64();
      if (!r.ok()) return false;
      std::uint64_t& counter =
          type == kJDigestSeq ? digest_seq_ : next_entry_seq_;
      counter = std::max(counter, seq);
      return true;
    }
    default:
      return channel_.replay(type, r);
  }
}

}  // namespace gsalert::alerting
