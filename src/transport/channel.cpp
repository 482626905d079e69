#include "transport/channel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace gsalert::transport {

namespace {

using journal::str_wire;

// One encoder per record shape; live appends and snapshots share them.
void put_send(const journal::RecordSink& out, std::uint8_t type,
              const std::string& peer, std::uint64_t seq,
              const wire::Envelope& env) {
  const std::size_t flat = env.flat_size();
  out.put(type, str_wire(peer) + 8 + 4 + flat, [&](wire::Writer& w) {
    w.str(peer);
    w.u64(seq);
    // The envelope as a bytes() field, flattened in place.
    w.u32(static_cast<std::uint32_t>(flat));
    env.flatten_into(w);
  });
}

void put_peer_u64(const journal::RecordSink& out, std::uint8_t type,
                  const std::string& peer, std::uint64_t value) {
  out.put(type, str_wire(peer) + 8, [&](wire::Writer& w) {
    w.str(peer);
    w.u64(value);
  });
}

void put_peer(const journal::RecordSink& out, std::uint8_t type,
              const std::string& peer, std::uint64_t next_seq,
              std::uint64_t floor) {
  out.put(type, str_wire(peer) + 8 + 8, [&](wire::Writer& w) {
    w.str(peer);
    w.u64(next_seq);
    w.u64(floor);
  });
}

}  // namespace

void ChannelSet::attach(sim::Network* net, NodeId self,
                        std::string self_name, TransmitFn transmit,
                        std::uint64_t jitter_seed) {
  net_ = net;
  self_ = self;
  self_name_ = std::move(self_name);
  transmit_ = std::move(transmit);
  rng_ = Rng{jitter_seed};
}

void ChannelSet::stamp_and_transmit(const std::string& peer,
                                    PeerState& state, std::uint64_t seq,
                                    Unacked& entry) {
  entry.env.msg_id = seq;
  // chan_base re-stamped on every (re)transmit: acks may have advanced
  // the window since the original send. Header-only mutation — the body
  // frame stays aliased.
  entry.env.chan_base =
      state.unacked.empty() ? seq : state.unacked.begin()->first;
  transmit_(peer, entry.env);
}

SimTime ChannelSet::earliest_due() const {
  SimTime best = SimTime::micros(std::numeric_limits<std::int64_t>::max());
  bool any = false;
  for (const auto& [peer, state] : peers_) {
    for (const auto& [seq, entry] : state.unacked) {
      if (!any || entry.due < best) best = entry.due;
      any = true;
    }
  }
  return any ? best : SimTime::micros(-1);
}

void ChannelSet::arm(SimTime due) {
  if (armed_ && timer_target_ <= due) return;
  armed_ = true;
  timer_target_ = due;
  const SimTime now = net_->now();
  const SimTime delay = due > now ? due - now : SimTime::micros(1);
  // A timer superseded by an earlier one, or disarmed, does nothing.
  net_->set_timer(self_, delay, [this, due] {
    if (armed_ && timer_target_ == due) on_retry_timer();
  });
}

std::uint64_t ChannelSet::send(const std::string& peer, wire::Envelope env) {
  PeerState& state = peers_[peer];
  const std::uint64_t seq = state.next_seq++;
  Unacked entry;
  entry.env = std::move(env);
  entry.rto = kPolicy.initial_rto;
  entry.first_sent = net_->now();
  entry.due = net_->now() + jittered(entry.rto, kPolicy.jitter, rng_);
  stats_.sends += 1;
  // Insert before stamping so chan_base sees this entry as outstanding.
  auto [it, inserted] = state.unacked.emplace(seq, std::move(entry));
  (void)inserted;
  stamp_and_transmit(peer, state, seq, it->second);
  if (log_) put_send(log(), first_type_, peer, seq, it->second.env);
  arm(it->second.due);
  return seq;
}

bool ChannelSet::on_ack(const std::string& peer, std::uint64_t seq) {
  const auto peer_it = peers_.find(peer);
  if (peer_it == peers_.end()) return false;
  if (peer_it->second.unacked.erase(seq) == 0) return false;
  stats_.acked += 1;
  put_peer_u64(log(), first_type_ + 1, peer, seq);
  return true;
}

ChannelSet::Incoming ChannelSet::on_data(const wire::Envelope& env) {
  PeerState& state = peers_[env.src];
  const std::uint64_t floor_before = state.floor;
  Incoming incoming = on_data_apply(state, env);
  if (state.floor > floor_before) {
    put_peer_u64(log(), first_type_ + 2, env.src, state.floor);
  }
  return incoming;
}

ChannelSet::Incoming ChannelSet::on_data_apply(PeerState& state,
                                               const wire::Envelope& env) {
  Incoming incoming;
  const std::uint64_t seq = env.msg_id;
  // Adopt the sender's window base as our floor: everything below
  // `chan_base` was acked by us in the past (or predates this channel),
  // so base - 1 is a safe "already handled" horizon even on first
  // contact with a retransmitted backlog.
  if (env.chan_base > 0 && env.chan_base - 1 > state.floor) {
    state.floor = env.chan_base - 1;
  }
  if (seq <= state.floor) {
    stats_.dup_drops += 1;
    incoming.duplicate = true;
    return incoming;
  }
  std::map<std::uint64_t, wire::Envelope>& held = state.reorder;
  if (seq == state.floor + 1) {
    incoming.deliver.push_back(env);
    state.floor = seq;
    stats_.delivered += 1;
  } else if (held.contains(seq)) {
    stats_.dup_drops += 1;  // still held, still unacked
  } else if (held.size() >= kReorderCap) {
    // Refused unacked: the sender retransmits it once the gap drains.
    stats_.reorder_overflows += 1;
  } else {
    held.emplace(seq, env);  // unacked until delivered
    stats_.reorder_buffered += 1;
  }
  // Only delivered seqs are acked, so a held copy at or below the floor
  // is stale (delivered by an earlier incarnation whose floor a lying
  // fsync lost) and goes. Then release whatever is now in order.
  held.erase(held.begin(), held.upper_bound(state.floor));
  while (!held.empty() && held.begin()->first == state.floor + 1) {
    incoming.deliver.push_back(std::move(held.begin()->second));
    held.erase(held.begin());
    state.floor += 1;
    stats_.delivered += 1;
  }
  return incoming;
}

void ChannelSet::on_retry_timer() {
  armed_ = false;
  const SimTime now = net_->now();
  for (auto& [peer, state] : peers_) {
    for (auto& [seq, entry] : state.unacked) {
      if (entry.due > now) continue;
      stats_.retransmits += 1;
      if (obs::active()) {
        // The stored envelope keeps its original trace stamps, so the
        // retry span hangs off the span that first sent it.
        obs::emit_span_under(
            obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                              entry.env.hop},
            "retry", self_name_, now,
            {{"host", peer},
             {"msg_id", std::to_string(seq)},
             {"since_ms",
              std::to_string((now - entry.first_sent).as_millis())}});
      }
      stamp_and_transmit(peer, state, seq, entry);
      entry.rto = grow_rto(entry.rto, kPolicy.backoff, kPolicy.max_rto);
      entry.due = now + jittered(entry.rto, kPolicy.jitter, rng_);
    }
  }
  const SimTime next = earliest_due();
  if (next.as_micros() >= 0) arm(next);
}

void ChannelSet::set_journal(std::function<journal::RecordSink()> log,
                             std::uint8_t first, std::uint8_t peer_type) {
  log_ = std::move(log);
  first_type_ = first;
  peer_type_ = peer_type;
}

void ChannelSet::snapshot(const journal::RecordSink& out) const {
  // A peer that never sent and never advanced its floor holds no durable
  // state; skipping it keeps snapshot and log recovery identical.
  for (const auto& [peer, state] : peers_) {
    if (state.next_seq > 1 || state.floor > 0) {
      put_peer(out, peer_type_, peer, state.next_seq, state.floor);
    }
  }
  for (const auto& [peer, state] : peers_) {
    for (const auto& [seq, entry] : state.unacked) {
      put_send(out, first_type_, peer, seq, entry.env);
    }
  }
}

bool ChannelSet::replay(std::uint8_t type, wire::Reader& r) {
  const bool send = type == first_type_;
  const bool ack = type == first_type_ + 1;
  const bool floor = type == first_type_ + 2;
  if (!send && !ack && !floor && type != peer_type_) return false;
  // Every record starts with (peer str, u64).
  const std::string peer = r.str();
  const std::uint64_t value = r.u64();
  if (send) {
    const std::vector<std::byte> flat = r.bytes();
    auto env = wire::unpack(flat);
    if (!r.ok() || !env.ok()) return false;
    restore(peer, value + 1, 0, std::move(env).take());
    return true;
  }
  if (ack) {
    if (!r.ok()) return false;
    if (const auto it = peers_.find(peer); it != peers_.end()) {
      it->second.unacked.erase(value);
    }
    return true;
  }
  // A floor record carries the floor; a peer record next_seq, then floor.
  const std::uint64_t new_floor = floor ? value : r.u64();
  if (!r.ok()) return false;
  restore(peer, floor ? 1 : value, new_floor);
  return true;
}

void ChannelSet::restore(const std::string& peer, std::uint64_t next_seq,
                         std::uint64_t floor,
                         std::optional<wire::Envelope> unacked) {
  PeerState& state = peers_[peer];
  state.next_seq = std::max(state.next_seq, next_seq);
  state.floor = std::max(state.floor, floor);
  if (!unacked) return;
  // Back in the retransmit set under its original seq; due/rto restart
  // at the policy's initial values.
  Unacked entry;
  entry.env = std::move(*unacked);
  entry.rto = kPolicy.initial_rto;
  entry.first_sent = net_ ? net_->now() : SimTime::zero();
  entry.due = entry.first_sent + jittered(entry.rto, kPolicy.jitter, rng_);
  state.unacked.insert_or_assign(next_seq - 1, std::move(entry));
}

void ChannelSet::on_restart() {
  armed_ = false;
  const SimTime next = earliest_due();
  if (next.as_micros() >= 0) {
    arm(std::max(next, net_->now() + SimTime::micros(1)));
  }
}

std::size_t ChannelSet::unacked_total() const {
  std::size_t total = 0;
  for (const auto& [peer, state] : peers_) total += state.unacked.size();
  return total;
}

}  // namespace gsalert::transport
