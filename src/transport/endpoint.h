// Request/reply correlator: the one implementation of "send a request,
// retransmit with backoff while waiting, time out once" that previously
// existed as four hand-rolled `pending_` maps (gds_client, alerting
// client, greenstone_server, receptionist).
//
// Ownership model: the Endpoint is a member of a sim::Node (or of a
// component attached to one). The owner still receives all packets; when
// it decodes a reply it calls `complete(key, env)` with the request's
// correlation key, and the Endpoint routes the reply to the stored
// callback. The Endpoint arms its own retransmit/deadline timers: each
// closure carries the request key and its timer sequence, so only a
// request's latest timer acts, and none outlives the node's incarnation.
//
// Retransmits re-`pack()` the stored envelope: headers are re-encoded
// per attempt but the body `wire::Frame` is aliased, never copied —
// retransmits cost header bytes only (see NetStats bytes_copied).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/rng.h"
#include "sim/network.h"
#include "transport/policy.h"
#include "wire/envelope.h"

namespace gsalert::transport {

struct EndpointStats {
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;      // completed with a matched reply
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;     // callback fired with nullptr
  std::uint64_t cancelled = 0;    // dropped by cancel_all (restart)
  std::uint64_t late_replies = 0; // complete() after timeout/cancel
};

class Endpoint {
 public:
  /// Reply callback: the matched reply envelope, or nullptr when the
  /// deadline passed. Fires exactly once per request.
  using ReplyCallback = std::function<void(const wire::Envelope* reply)>;
  /// Custom transmit hook for owners that route by name / host table.
  using SendFn = std::function<void(const wire::Envelope& env)>;

  struct Options {
    RetryPolicy policy;
    NodeId to;     // direct destination; ignored when `send` is set
    SendFn send;   // optional custom transmit (e.g. via GDS relay)
  };

  /// Bind to the network. `jitter_seed` keys the deterministic backoff
  /// jitter (derive it from the node id so replays match).
  void attach(sim::Network* net, NodeId self, std::string self_name,
              std::uint64_t jitter_seed);
  bool attached() const { return net_ != nullptr; }

  /// Send `env` and register `cb` under `key` (the request id the reply
  /// will echo). The envelope is stored for retransmission; its body
  /// frame is shared, not copied.
  void request(std::uint64_t key, wire::Envelope env, Options options,
               ReplyCallback cb);

  /// Route a decoded reply to the request registered under `key`.
  /// Returns false (and counts a late reply) when no request is pending
  /// — duplicate reply, or the deadline already fired.
  bool complete(std::uint64_t key, const wire::Envelope& reply);

  /// Drop every pending request without firing callbacks. An owner
  /// calls it when it recovers from a crash: the requests' timers died
  /// with the crash, so nothing would ever retransmit or time them out.
  void cancel_all();

  std::size_t pending_count() const { return pending_.size(); }
  const EndpointStats& stats() const { return stats_; }

 private:
  struct Pending {
    wire::Envelope env;
    Options options;
    ReplyCallback cb;
    SimTime deadline;
    SimTime rto;          // current backoff interval
    SimTime first_sent;   // original transmit time; retry spans report
                          // since_ms = now - first_sent
    int retransmits = 0;
    std::uint64_t timer_seq = 0;  // only the latest timer is live
  };

  void transmit(const Pending& entry);
  void arm(std::uint64_t key, Pending& entry, SimTime delay);
  /// Timer `seq` of request `key` fired: retransmit or time out, unless
  /// the request completed or a later timer replaced this one.
  void on_request_timer(std::uint64_t key, std::uint64_t seq);

  sim::Network* net_ = nullptr;
  NodeId self_;
  std::string self_name_;
  Rng rng_{0};
  std::map<std::uint64_t, Pending> pending_;   // key -> in-flight request
  std::uint64_t next_timer_ = 1;
  EndpointStats stats_;
};

}  // namespace gsalert::transport
