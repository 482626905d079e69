#include "alerting/delivery.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "alerting/alerting_service.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace gsalert::alerting {

namespace {
// Journal records (64..254 are extension records; 64..75 and 82..83
// belong to AlertingService itself — see docs/DURABILITY.md). Only enq
// records carry a notification's bytes; digest seq 0 means waiting (enq)
// or an unmanaged digest (ship).
constexpr std::uint8_t kJDelivEnq = 76;  // client u32, entry seq u64, sub
                                         // u64, digest seq u64, event bytes
constexpr std::uint8_t kJDelivSpill = 77;       // entry seq u64
constexpr std::uint8_t kJDelivShip = 78;        // client u32, digest seq u64
constexpr std::uint8_t kJDelivAck = 79;         // client u32, digest seq u64
constexpr std::uint8_t kJDelivNextDigest = 80;  // client u32, seq u64 (snap.)
constexpr std::uint8_t kJDelivEntrySeq = 84;    // next entry seq u64 (snap.)

// One encoder per record shape; live appends and snapshots share them.
void put_enqueued(const journal::RecordSink& out, NodeId client,
                  std::uint64_t seq, SubscriptionId sub, std::uint64_t digest,
                  std::span<const std::byte> event) {
  out.put(kJDelivEnq, 4 + 8 + 8 + 8 + 4 + event.size(),
          [&](wire::Writer& w) {
            w.u32(client.value());
            w.u64(seq);
            w.u64(sub);
            w.u64(digest);
            w.bytes(event);
          });
}

void put_client_seq(const journal::RecordSink& out, std::uint8_t type,
                    NodeId client, std::uint64_t seq) {
  out.put(type, 4 + 8, [&](wire::Writer& w) {
    w.u32(client.value());
    w.u64(seq);
  });
}

std::string pending_key(NodeId client, SubscriptionId sub,
                        const docmodel::EventId& id) {
  return std::to_string(client.value()) + "#" + std::to_string(sub) + "#" +
         id.str();
}
}  // namespace

void DeliveryStage::ensure_attached() {
  if (channel_.attached() || owner_.server_ == nullptr) return;
  gsnet::GreenstoneServer* server = owner_.server_;
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

DeliveryStage::ClientQueue* DeliveryStage::queue_for(NodeId client,
                                                     bool create) {
  const sim::Node* node = owner_.server_ != nullptr
                              ? owner_.server_->net().node(client)
                              : nullptr;
  if (node == nullptr) return nullptr;
  const auto it = queues_.find(node->name());
  if (it != queues_.end()) return &it->second;
  if (!create) return nullptr;
  ClientQueue& q = queues_[node->name()];
  q.node = client;
  q.name = node->name();
  return &q;
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
  note_sent(q, sub, event);
  // The subscription id rides msg_id (fixed-width header field), so the
  // body stays the shared encode-once event frame: no per-subscriber
  // encode, no per-subscriber body allocation.
  wire::Envelope env =
      wire::make_envelope(wire::MessageType::kNotification,
                          owner_.server_->name(), "", sub, bytes);
  owner_.server_->send_to(q.node, env);
  stats_.sent_immediate += 1;
}

void DeliveryStage::stall(ClientQueue& q) {
  q.stalled = true;
  stats_.stalls += 1;
  if (obs::active()) {
    obs::emit_span("delivery-stall", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"unacked", std::to_string(q.inflight)}});
  }
}

void DeliveryStage::offer(NodeId client, SubscriptionId sub,
                          DeliveryPolicy policy,
                          const std::shared_ptr<const docmodel::Event>& event,
                          const wire::Frame& bytes) {
  GSALERT_PROFILE("delivery.offer");
  ensure_attached();
  ClientQueue& q = *queue_for(client, /*create=*/true);
  if (policy.mode == DeliveryMode::kImmediate) {
    if (!managed()) {
      send_immediate(q, sub, *event, bytes);
      return;
    }
    if (!q.stalled && q.inflight < config_.credits) {
      // Digest-of-one on the reliable channel: same framing as windowed
      // delivery, so the client's ack/dedup path is uniform. One record.
      const auto one = q.entries.insert(
          q.waiting_begin(), QueueEntry{next_entry_seq_++, 0, sub, event,
                                        bytes, DeliveryMode::kImmediate});
      const std::uint64_t entry_seq = one->seq;
      note_sent(q, sub, *event);
      const std::uint64_t digest = ship(q, one, std::next(one));
      put_enqueued(owner_.log(), q.node, entry_seq, sub, digest, bytes.span());
      stats_.sent_immediate += 1;
      return;
    }
    if (!q.stalled) stall(q);
    enqueue(q, sub, event, bytes, DeliveryMode::kImmediate, SimTime::zero());
    return;
  }
  enqueue(q, sub, event, bytes, policy.mode,
          policy.window.as_micros() > 0 ? policy.window
                                        : config_.default_window);
}

void DeliveryStage::enqueue(
    ClientQueue& q, SubscriptionId sub,
    const std::shared_ptr<const docmodel::Event>& event,
    const wire::Frame& bytes, DeliveryMode mode, SimTime window) {
  if (mode != DeliveryMode::kImmediate) {
    for (auto it = q.waiting_begin(); it != q.entries.end(); ++it) {
      if (it->mode != DeliveryMode::kImmediate && it->sub == sub &&
          it->event->id == event->id) {
        stats_.coalesced_merges += 1;
        return;
      }
    }
  }
  if (config_.queue_capacity > 0 && q.waiting >= config_.queue_capacity) {
    spill_one(q);
  }
  const std::uint64_t entry_seq = next_entry_seq_++;
  put_enqueued(owner_.log(), q.node, entry_seq, sub, 0, bytes.span());
  q.entries.push_back(QueueEntry{entry_seq, 0, sub, event, bytes, mode});
  q.waiting += 1;
  stats_.enqueued += 1;
  stats_.max_queue_depth =
      std::max<std::uint64_t>(stats_.max_queue_depth, q.waiting);
  const SimTime due = owner_.server_->net().now() + window;
  if (mode != DeliveryMode::kImmediate &&
      (!q.flush_armed || due < q.flush_due)) {
    q.flush_armed = true;
    q.flush_due = due;
    arm_timer(due);
  }
}

void DeliveryStage::spill_one(ClientQueue& q) {
  auto victim = std::find_if(q.waiting_begin(), q.entries.end(),
                             [](const QueueEntry& e) {
                               return e.mode != DeliveryMode::kImmediate;
                             });
  if (victim == q.entries.end()) victim = q.waiting_begin();
  if (obs::active()) {
    obs::emit_span("delivery-spill", owner_.server_->name(),
                   owner_.server_->net().now(),
                   {{"client", q.name},
                    {"sub", std::to_string(victim->sub)},
                    {"event", victim->event->id.str()}});
  }
  owner_.log().put_u64(kJDelivSpill, victim->seq);
  q.entries.erase(victim);
  q.waiting -= 1;
  stats_.spilled += 1;
}

wire::Envelope DeliveryStage::digest_envelope(
    Entries::const_iterator first, Entries::const_iterator last) const {
  NotificationDigestBody body;
  body.entries.reserve(static_cast<std::size_t>(last - first));
  for (; first != last; ++first) {
    body.entries.push_back({first->sub, first->bytes.span()});
  }
  wire::Writer w;
  body.encode(w);
  return wire::make_envelope(wire::MessageType::kNotificationDigest,
                             owner_.server_->name(), "", 0, std::move(w));
}

std::uint64_t DeliveryStage::ship(ClientQueue& q, Entries::iterator first,
                                  Entries::iterator last) {
  wire::Envelope env = digest_envelope(first, last);
  const auto count = static_cast<std::size_t>(last - first);
  stats_.digests_sent += 1;
  stats_.digest_notifications += count;
  std::uint64_t digest = 0;
  if (managed()) {
    digest = channel_.send(q.name, std::move(env));
    q.next_digest = digest + 1;
  } else {
    env.msg_id = owner_.server_->next_msg_id();
    owner_.server_->send_to(q.node, env);
  }
  if (obs::active()) {
    obs::emit_span(
        "delivery-flush", owner_.server_->name(),
        owner_.server_->net().now(),
        {{"client", q.name},
         {"entries", std::to_string(count)},
         {"digest", std::to_string(managed() ? digest : env.msg_id)}});
  }
  if (managed()) {
    for (; first != last; ++first) first->digest = digest;
    q.inflight += 1;
  } else {
    q.entries.erase(first, last);
  }
  return digest;
}

void DeliveryStage::flush(ClientQueue& q) {
  GSALERT_PROFILE("delivery.flush");
  q.flush_armed = false;
  if (q.waiting == 0) {
    q.stalled = false;
    return;
  }
  if (managed() && q.inflight >= config_.credits) {
    if (!q.stalled) stall(q);
    return;
  }
  if (q.stalled) {
    q.stalled = false;
    stats_.resumes += 1;
    if (obs::active()) {
      obs::emit_span("delivery-resume", owner_.server_->name(),
                     owner_.server_->net().now(),
                     {{"client", q.name},
                      {"entries", std::to_string(q.waiting)}});
    }
  }
  const auto first = q.waiting_begin();
  for (auto it = first; it != q.entries.end(); ++it) {
    note_sent(q, it->sub, *it->event);
  }
  q.waiting = 0;
  const std::uint64_t digest = ship(q, first, q.entries.end());
  put_client_seq(owner_.log(), kJDelivShip, q.node, digest);
}

DeliveryStage::Entries::iterator DeliveryStage::shipped_from(
    ClientQueue& q, std::uint64_t seq) {
  return std::lower_bound(
      q.entries.begin(), q.waiting_begin(), seq,
      [](const QueueEntry& e, std::uint64_t d) { return e.digest < d; });
}

bool DeliveryStage::retire(ClientQueue& q, std::uint64_t seq) {
  const auto shipped = q.waiting_begin();
  const auto first = shipped_from(q, seq);
  auto last = first;
  while (last != shipped && last->digest == seq) ++last;
  if (first == last) return false;
  q.entries.erase(first, last);
  q.inflight -= 1;
  return true;
}

void DeliveryStage::arm_timer(SimTime due) {
  if (timer_armed_ && timer_target_ <= due) return;
  timer_armed_ = true;
  timer_target_ = due;
  const SimTime now = owner_.server_->net().now();
  const SimTime delay = due > now ? due - now : SimTime::micros(1);
  // A timer superseded by an earlier one, or disarmed, does nothing.
  owner_.server_->net().set_timer(owner_.server_->id(), delay, [this, due] {
    if (timer_armed_ && timer_target_ == due) on_flush_timer();
  });
}

SimTime DeliveryStage::earliest_flush() const {
  SimTime best = SimTime::micros(-1);
  for (const auto& [name, q] : queues_) {
    if (!q.flush_armed) continue;
    if (best.as_micros() < 0 || q.flush_due < best) best = q.flush_due;
  }
  return best;
}

void DeliveryStage::on_flush_timer() {
  timer_armed_ = false;
  const SimTime now = owner_.server_->net().now();
  for (auto& [name, q] : queues_) {
    if (q.flush_armed && q.flush_due <= now) flush(q);
  }
  const SimTime next = earliest_flush();
  if (next.as_micros() >= 0) arm_timer(next);
  // Group commit: one fsync for every ship record the flushes appended.
  owner_.server_->commit_journal();
}

void DeliveryStage::on_ack(const std::string& peer, std::uint64_t seq) {
  channel_.on_ack(peer, seq);
  const auto it = queues_.find(peer);
  if (it == queues_.end()) return;
  ClientQueue& q = it->second;
  // The client acks every replay too; only the first ack retires.
  if (!retire(q, seq)) return;
  put_client_seq(owner_.log(), kJDelivAck, q.node, seq);
  if (!q.stalled) return;
  if (q.waiting == 0) {
    q.stalled = false;
    return;
  }
  // Hysteresis: resume only once the window has drained to half the
  // credits, not on the first freed credit.
  if (q.inflight <= config_.credits / 2) flush(q);
}

void DeliveryStage::on_restart() {
  // The digest channel journals nothing: each recovered in-flight digest
  // goes back under its original seq, encoded from its entries in their
  // order (the body the client may already hold).
  for (const auto& [name, q] : queues_) {
    const auto shipped = q.waiting_begin();
    for (auto first = q.entries.begin(); first != shipped;) {
      const std::uint64_t digest = first->digest;
      const auto last =
          std::find_if(first, shipped, [digest](const QueueEntry& e) {
            return e.digest != digest;
          });
      channel_.restore(name, digest + 1, 0, digest_envelope(first, last));
      first = last;
    }
    if (q.next_digest > 1) channel_.restore(name, q.next_digest, 0);
  }
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
    const auto kept =
        std::remove_if(q.waiting_begin(), q.entries.end(),
                       [sub](const QueueEntry& e) { return e.sub == sub; });
    q.waiting -= static_cast<std::size_t>(q.entries.end() - kept);
    q.entries.erase(kept, q.entries.end());
  }
}

std::size_t DeliveryStage::queue_depth_total() const {
  std::size_t total = 0;
  for (const auto& [name, q] : queues_) total += q.waiting;
  return total;
}

std::size_t DeliveryStage::queue_depth_max() const {
  std::size_t deepest = 0;
  for (const auto& [name, q] : queues_) {
    deepest = std::max(deepest, q.waiting);
  }
  return deepest;
}

std::vector<std::string> DeliveryStage::pending_keys() const {
  std::vector<std::string> out;
  for (const auto& [name, q] : queues_) {
    for (const QueueEntry& e : q.entries) {
      out.push_back(pending_key(q.node, e.sub, e.event->id));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- durability -----------------------------------------------------------
//
// Replay parses and checks a whole record before it changes anything, so
// a damaged record is refused and applies nothing.

bool DeliveryStage::restore_entry(wire::Reader& r) {
  const NodeId client{r.u32()};
  const std::uint64_t entry_seq = r.u64();
  const SubscriptionId sub = r.u64();
  const std::uint64_t digest = r.u64();
  std::vector<std::byte> event_bytes = r.bytes();
  auto event = decode_event(event_bytes);
  ClientQueue* q = r.done() && event.ok() ? queue_for(client, true) : nullptr;
  if (q == nullptr) return false;
  // Policy records replay before queue entries (snapshot order, and in the
  // log a policy precedes the hits it shaped).
  const AlertingService::Subscription* owner_sub = owner_.find_sub(sub);
  const auto shared =
      std::make_shared<const docmodel::Event>(std::move(event).take());
  QueueEntry entry{entry_seq, digest, sub, shared,
                   wire::Frame{std::move(event_bytes)},
                   owner_sub != nullptr ? owner_sub->policy.mode
                                        : DeliveryMode::kImmediate};
  next_entry_seq_ = std::max(next_entry_seq_, entry_seq + 1);
  if (digest != 0) {
    // After every shipped entry of a digest up to this one.
    const auto at = std::upper_bound(
        q->entries.begin(), q->waiting_begin(), digest,
        [](std::uint64_t d, const QueueEntry& e) { return d < e.digest; });
    if (at == q->entries.begin() || std::prev(at)->digest != digest) {
      q->inflight += 1;
    }
    q->entries.insert(at, std::move(entry));
    q->next_digest = std::max(q->next_digest, digest + 1);
    return true;
  }
  q->entries.push_back(std::move(entry));
  q->waiting += 1;
  // Recovered backlog flushes as soon as the restart re-arms timers.
  q->flush_armed = true;
  q->flush_due = SimTime::zero();
  return true;
}

bool DeliveryStage::replay_journal(std::uint8_t type, wire::Reader& r) {
  if (type == kJDelivEnq) return restore_entry(r);
  if (type == kJDelivSpill || type == kJDelivEntrySeq) {
    const std::uint64_t seq = r.u64();
    if (!r.done()) return false;
    if (type == kJDelivEntrySeq) {
      next_entry_seq_ = std::max(next_entry_seq_, seq);
      return true;
    }
    for (auto& [name, q] : queues_) {
      const auto it = std::find_if(
          q.waiting_begin(), q.entries.end(),
          [seq](const QueueEntry& e) { return e.seq == seq; });
      if (it != q.entries.end()) {
        q.entries.erase(it);
        q.waiting -= 1;
        return true;
      }
    }
    return false;
  }
  if (type != kJDelivShip && type != kJDelivAck && type != kJDelivNextDigest) {
    return false;
  }
  const NodeId client{r.u32()};
  const std::uint64_t seq = r.u64();
  ClientQueue* q = r.done() ? queue_for(client, type == kJDelivNextDigest)
                            : nullptr;
  if (q == nullptr) return false;
  if (type == kJDelivAck) return retire(*q, seq);
  if (type == kJDelivNextDigest) {
    q->next_digest = std::max(q->next_digest, seq);
    return true;
  }
  // A flush ships every waiting entry, and never under a seq in flight.
  const auto shipped = q->waiting_begin();
  const auto at = shipped_from(*q, seq);
  if (q->waiting == 0 || (seq != 0 && at != shipped && at->digest == seq)) {
    return false;
  }
  q->waiting = 0;
  if (seq == 0) {
    q->entries.erase(shipped, q->entries.end());
    return true;
  }
  for (auto it = shipped; it != q->entries.end(); ++it) it->digest = seq;
  std::rotate(at, shipped, q->entries.end());  // keep digest order
  q->inflight += 1;
  q->next_digest = std::max(q->next_digest, seq + 1);
  return true;
}

void DeliveryStage::clear() {
  queues_.clear();
  channel_.clear_peers();
  next_entry_seq_ = 1;
  timer_armed_ = false;
}

void DeliveryStage::snapshot(
    const journal::RecordSink& out,
    const std::function<void()>& put_policies) const {
  out.put_u64(kJDelivEntrySeq, next_entry_seq_);
  // Policies first: a replayed queue entry takes its subscription's mode.
  put_policies();
  for (const auto& [name, q] : queues_) {
    if (q.next_digest > 1) {
      put_client_seq(out, kJDelivNextDigest, q.node, q.next_digest);
    }
    for (const QueueEntry& e : q.entries) {
      put_enqueued(out, q.node, e.seq, e.sub, e.digest, e.bytes.span());
    }
  }
}

}  // namespace gsalert::alerting
