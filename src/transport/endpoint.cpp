#include "transport/endpoint.h"

#include <utility>

#include "obs/trace.h"

namespace gsalert::transport {

void Endpoint::attach(sim::Network* net, NodeId self, std::string self_name,
                      std::uint64_t jitter_seed) {
  net_ = net;
  self_ = self;
  self_name_ = std::move(self_name);
  rng_ = Rng{jitter_seed};
}

void Endpoint::transmit(const Pending& entry) {
  if (entry.options.send) {
    entry.options.send(entry.env);
  } else {
    net_->send(self_, entry.options.to, entry.env.pack());
  }
}

void Endpoint::arm(std::uint64_t key, Pending& entry, SimTime delay) {
  entry.timer_seq = next_timer_++;
  net_->set_timer(self_, delay, [this, key, seq = entry.timer_seq] {
    on_request_timer(key, seq);
  });
}

void Endpoint::request(std::uint64_t key, wire::Envelope env,
                       Options options, ReplyCallback cb) {
  stats_.requests += 1;
  Pending entry;
  entry.env = std::move(env);
  entry.options = std::move(options);
  entry.cb = std::move(cb);
  const SimTime now = net_->now();
  entry.deadline = now + entry.options.policy.deadline;
  entry.rto = entry.options.policy.initial_rto;
  entry.first_sent = now;
  transmit(entry);
  const SimTime first = std::min(
      jittered(entry.rto, entry.options.policy.jitter, rng_),
      entry.options.policy.deadline);
  auto [it, inserted] = pending_.insert_or_assign(key, std::move(entry));
  (void)inserted;
  arm(key, it->second, first);
}

bool Endpoint::complete(std::uint64_t key, const wire::Envelope& reply) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    stats_.late_replies += 1;
    return false;
  }
  ReplyCallback cb = std::move(it->second.cb);
  pending_.erase(it);
  stats_.replies += 1;
  if (cb) cb(&reply);
  return true;
}

void Endpoint::on_request_timer(std::uint64_t key, std::uint64_t seq) {
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.timer_seq != seq) return;  // stale
  Pending& entry = it->second;
  const SimTime now = net_->now();
  const RetryPolicy& policy = entry.options.policy;

  if (now >= entry.deadline) {
    ReplyCallback cb = std::move(entry.cb);
    if (obs::active()) {
      obs::emit_span_under(
          obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                            entry.env.hop},
          "transport-timeout", self_name_, now,
          {{"key", std::to_string(key)},
           {"retransmits", std::to_string(entry.retransmits)}});
    }
    pending_.erase(it);
    stats_.timeouts += 1;
    if (cb) cb(nullptr);
    return;
  }

  if (entry.retransmits < policy.max_retransmits) {
    entry.retransmits += 1;
    stats_.retransmits += 1;
    if (obs::active()) {
      obs::emit_span_under(
          obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                            entry.env.hop},
          "retry", self_name_, now,
          {{"key", std::to_string(key)},
           {"attempt", std::to_string(entry.retransmits)},
           {"since_ms",
            std::to_string((now - entry.first_sent).as_millis())}});
    }
    transmit(entry);  // header re-encoded; body frame aliased
    entry.rto = grow_rto(entry.rto, policy.backoff, policy.max_rto);
  }
  SimTime next = entry.deadline - now;
  if (entry.retransmits < policy.max_retransmits) {
    next = std::min(next, jittered(entry.rto, policy.jitter, rng_));
  }
  arm(key, entry, next);
}

void Endpoint::cancel_all() {
  stats_.cancelled += pending_.size();
  pending_.clear();
}

}  // namespace gsalert::transport
