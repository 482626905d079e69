#include "gds/gds_server.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace gsalert::gds {

namespace {
// Journal record types (payloads in the comments). Snapshots are the
// same records; types 12 to 14 appear only there.
constexpr std::uint8_t kJRegister = 1;     // server str, node u32
constexpr std::uint8_t kJUnregister = 2;   // server str
constexpr std::uint8_t kJRouteAdd = 3;     // name str, via u32
constexpr std::uint8_t kJRouteRemove = 4;  // name str
constexpr std::uint8_t kJChildUp = 5;      // node u32
constexpr std::uint8_t kJChildDown = 6;    // node u32
constexpr std::uint8_t kJAdopt = 7;        // parent u32
constexpr std::uint8_t kJSeen = 8;         // origin str, seq u64
constexpr std::uint8_t kJPark = 9;         // order u64, key str, expires i64, env bytes
constexpr std::uint8_t kJUnpark = 10;      // order u64
constexpr std::uint8_t kJParentSelect = 11;  // parent u32 (failover/adaptive)
constexpr std::uint8_t kJMsgId = 12;       // next_msg_id u64
constexpr std::uint8_t kJAncestors = 13;   // ring u32 seq, proper u32 seq,
                                           // parent index u32
constexpr std::uint8_t kJSeenFloor = 14;   // origin str, floor u64, passed u64
// Envelope msg-ids restart past a generous gap after recovery so ids
// minted before the crash are never reused (snapshots lag the live
// counter by up to one compaction interval).
constexpr std::uint64_t kMsgIdStride = 1ULL << 20;

// Adaptive parent selection (one ancestor probed per heartbeat tick) and
// store-and-forward tuning.
constexpr double kRttEwmaAlpha = 0.3;        // weight of each new RTT sample
constexpr std::uint64_t kRttMinSamples = 3;  // before an estimate counts
// Hysteresis: a candidate must beat the parent's smoothed RTT by this
// fraction, and adaptive re-parents are spaced at least this far apart.
constexpr double kReparentImprovement = 0.25;
constexpr SimTime kReparentMinInterval = SimTime::seconds(5);
// Parked relays held at once; beyond it the oldest is evicted.
constexpr std::size_t kParkCapacity = 128;

using journal::str_wire;

// One encoder per record shape; live appends and snapshots share them.
void put_name_node(const journal::RecordSink& out, std::uint8_t type,
                   const std::string& name, NodeId node) {
  out.put(type, str_wire(name) + 4, [&](wire::Writer& w) {
    w.str(name);
    w.u32(node.value());
  });
}

void put_name(const journal::RecordSink& out, std::uint8_t type,
              const std::string& name) {
  out.put(type, str_wire(name), [&](wire::Writer& w) { w.str(name); });
}

void put_node(const journal::RecordSink& out, std::uint8_t type,
              NodeId node) {
  out.put(type, 4, [&](wire::Writer& w) { w.u32(node.value()); });
}

void put_park(const journal::RecordSink& out, std::uint64_t order,
              const std::string& key, SimTime expires_at,
              const std::vector<std::byte>& flat) {
  out.put(kJPark, 8 + str_wire(key) + 8 + 4 + flat.size(),
          [&](wire::Writer& w) {
            w.u64(order);
            w.str(key);
            w.i64(expires_at.as_micros());
            w.bytes(flat);
          });
}

void put_ancestors(const journal::RecordSink& out,
                   const std::vector<NodeId>& ring,
                   const std::vector<NodeId>& proper, std::size_t index) {
  out.put(kJAncestors, 4 + 4 * ring.size() + 4 + 4 * proper.size() + 4,
          [&](wire::Writer& w) {
            for (const auto* list : {&ring, &proper}) {
              w.u32(static_cast<std::uint32_t>(list->size()));
              for (const NodeId a : *list) w.u32(a.value());
            }
            w.u32(static_cast<std::uint32_t>(index));
          });
}

std::vector<NodeId> read_nodes(wire::Reader& r) {
  std::vector<NodeId> nodes;
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 4) r.fail();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    nodes.push_back(NodeId{r.u32()});
  }
  return nodes;
}

std::string resolve_key(const std::string& origin, std::uint64_t query_id) {
  return origin + "#" + std::to_string(query_id);
}
}  // namespace

GdsServer::GdsServer(GdsConfig config)
    : config_(config), seen_(kJSeen, kJSeenFloor) {
  parked_.set_policy({config_.park_ttl, kParkCapacity});
}

void GdsServer::set_ancestors(std::vector<NodeId> ancestors,
                              std::size_t proper_count) {
  ancestors_ = std::move(ancestors);
  config_ancestors_ = ancestors_;
  proper_count = std::min(proper_count, ancestors_.size());
  proper_ancestors_.assign(ancestors_.begin(),
                           ancestors_.begin() +
                               static_cast<std::ptrdiff_t>(proper_count));
  config_proper_ancestors_ = proper_ancestors_;
  ancestor_index_ = 0;
  parent_ = ancestors_.empty() ? NodeId::invalid() : ancestors_.front();
}

void GdsServer::apply_adopt_ancestors(NodeId new_parent) {
  std::vector<NodeId> ancestors{new_parent};
  for (NodeId old : ancestors_) {
    if (old != new_parent) ancestors.push_back(old);
  }
  ancestors_ = std::move(ancestors);
  // An adopted parent sits above us by construction: stratum-safe.
  if (std::find(proper_ancestors_.begin(), proper_ancestors_.end(),
                new_parent) == proper_ancestors_.end()) {
    proper_ancestors_.insert(proper_ancestors_.begin(), new_parent);
  }
  ancestor_index_ = 0;
  parent_ = new_parent;
  heartbeat_misses_ = 0;
  heartbeat_outstanding_ = false;
}

void GdsServer::apply_parent_select(NodeId new_parent) {
  const auto it = std::find(ancestors_.begin(), ancestors_.end(), new_parent);
  if (it == ancestors_.end()) return;
  ancestor_index_ = static_cast<std::size_t>(it - ancestors_.begin());
  parent_ = new_parent;
  heartbeat_misses_ = 0;
  heartbeat_outstanding_ = false;
}

void GdsServer::adopt_parent(NodeId new_parent) {
  apply_adopt_ancestors(new_parent);
  put_node(log(), kJAdopt, new_parent);
  send_child_hello(/*full=*/true, subtree_names(), {});
  flush_all_parked();
  commit_journal();
}

void GdsServer::on_start() {
  ensure_journal();
  if (parent_.valid()) {
    send_child_hello(/*full=*/true, subtree_names(), {});
  }
  arm_heartbeat();
  commit_journal();
}

void GdsServer::arm_heartbeat() {
  network().set_timer(id(), config_.heartbeat_interval,
                      [this] { on_heartbeat(); });
}

void GdsServer::clear_state() {
  local_servers_.clear();
  name_routes_.clear();
  children_.clear();
  seen_.clear();
  resolve_backpaths_.clear();
  parked_.clear();
  heartbeat_misses_ = 0;
  heartbeat_outstanding_ = false;
  ancestor_index_ = 0;
  // RTT estimates are soft state: re-measured after recovery.
  rtt_outstanding_.clear();
  rtt_.clear();
  ancestors_ = config_ancestors_;
  proper_ancestors_ = config_proper_ancestors_;
  parent_ = ancestors_.empty() ? NodeId::invalid() : ancestors_.front();
}

void GdsServer::on_recover() {
  // Wipe memory, reopen the journal and replay: registrations, routes,
  // children, dedup state and parked custody all come back from disk.
  clear_state();
  journal_.reset();
  ensure_journal();
}

void GdsServer::on_rejoin() { on_start(); }

void GdsServer::send_envelope(NodeId to, const wire::Envelope& env) {
  network().send(id(), to, env.pack());
}

void GdsServer::on_packet(NodeId from, const sim::Packet& packet) {
  auto decoded = wire::unpack(packet);
  if (!decoded.ok()) {
    logf(LogLevel::kWarn, network().now(), name(),
         "dropping malformed packet from node ", from.value());
    return;
  }
  wire::Envelope env = std::move(decoded).take();
  // All handlers run under the incoming message's trace context, so any
  // envelope they mint (acks, delivers, forwards) joins the same trace.
  const obs::TraceScope trace_scope{
      obs::TraceContext{env.trace_id, env.span_id, env.hop}};
  switch (env.type) {
    case wire::MessageType::kGdsRegister:
      handle_register(from, env);
      break;
    case wire::MessageType::kGdsUnregister:
      handle_unregister(env);
      break;
    case wire::MessageType::kGdsChildHello:
      handle_child_hello(from, env);
      break;
    case wire::MessageType::kGdsHeartbeat:
      handle_heartbeat(from, env);
      break;
    case wire::MessageType::kGdsHeartbeatAck:
      handle_heartbeat_ack(from, env);
      break;
    case wire::MessageType::kGdsRttProbe:
      handle_rtt_probe(from, env);
      break;
    case wire::MessageType::kGdsRttProbeAck:
      handle_rtt_probe_ack(from, env);
      break;
    case wire::MessageType::kGdsBroadcast:
      handle_broadcast(from, env);
      break;
    case wire::MessageType::kGdsRelay:
      handle_relay(from, std::move(env));
      break;
    case wire::MessageType::kGdsMulticast:
      handle_multicast(from, env);
      break;
    case wire::MessageType::kGdsResolve:
      handle_resolve(from, env);
      break;
    case wire::MessageType::kGdsResolveReply:
      handle_resolve_reply(from, env);
      break;
    default:
      logf(LogLevel::kWarn, network().now(), name(),
           "unexpected message type ",
           static_cast<unsigned>(env.type));
  }
  // Group commit: one fsync per handled packet, however many records the
  // handlers above appended. Crashes only happen between sim events, so
  // this is the durability boundary.
  commit_journal();
}

void GdsServer::on_heartbeat() {
  if (parent_.valid()) {
    if (heartbeat_outstanding_) {
      ++heartbeat_misses_;
      if (heartbeat_misses_ >= config_.heartbeat_miss_limit) reparent();
    }
    const std::uint64_t hb_id = next_msg_id_++;
    wire::Envelope hb = wire::make_envelope(
        wire::MessageType::kGdsHeartbeat, name(), "", hb_id, wire::Writer{});
    send_envelope(parent_, hb);
    heartbeat_outstanding_ = true;
    // The heartbeat doubles as the parent's RTT probe: the ack echoes our
    // msg id, so the parent's round trip costs no extra traffic.
    if (config_.adaptive_parent) {
      rtt_outstanding_[parent_] = RttProbe{hb_id, network().now()};
    }
  }
  if (config_.adaptive_parent && !adaptive_frozen_) {
    probe_ancestor_rtt();
    maybe_adaptive_reparent();
  }
  prune_dead_children();
  const std::uint64_t expired_before = parked_.stats().expired;
  parked_.expire(network().now());
  if (obs::active() && parked_.stats().expired > expired_before) {
    obs::emit_span("gds-park-expired", name(), network().now(),
                   {{"count", std::to_string(parked_.stats().expired -
                                             expired_before)}});
  }
  arm_heartbeat();
  // Expiring parked custody and a reparent append journal records.
  commit_journal();
}

// --- registration ----------------------------------------------------------

void GdsServer::handle_register(NodeId from, const wire::Envelope& env) {
  auto body = RegisterBody::decode(env.body);
  if (!body.ok()) return;
  const std::string& server = body.value().server_name;
  const auto existing = local_servers_.find(server);
  const bool is_new = existing == local_servers_.end();
  const bool changed = is_new || existing->second != from;
  local_servers_[server] = from;
  name_routes_[server] = Route{.local = true, .via = NodeId::invalid()};
  if (changed) put_name_node(log(), kJRegister, server, from);
  if (is_new) advertise_up({server}, {});
  wire::Envelope ack = wire::make_envelope(
      wire::MessageType::kGdsRegisterAck, name(), server, env.msg_id,
      wire::Writer{});
  send_envelope(from, ack);
  // The name just became routable: hand over anything parked for it.
  flush_parked(server);
}

void GdsServer::handle_unregister(const wire::Envelope& env) {
  auto body = RegisterBody::decode(env.body);
  if (!body.ok()) return;
  const std::string& server = body.value().server_name;
  if (local_servers_.erase(server) > 0) {
    name_routes_.erase(server);
    put_name(log(), kJUnregister, server);
    advertise_up({}, {server});
  }
}

void GdsServer::handle_child_hello(NodeId from, const wire::Envelope& env) {
  auto decoded = ChildHelloBody::decode(env.body);
  if (!decoded.ok()) return;
  const ChildHelloBody& body = decoded.value();
  const auto [child_it, child_new] =
      children_.insert_or_assign(from, network().now());
  (void)child_it;
  if (child_new) put_node(log(), kJChildUp, from);

  std::vector<std::string> new_adds;
  std::vector<std::string> new_removes;
  if (body.full) {
    // Drop everything previously routed via this child, then re-learn.
    for (auto it = name_routes_.begin(); it != name_routes_.end();) {
      if (!it->second.local && it->second.via == from) {
        put_name(log(), kJRouteRemove, it->first);
        new_removes.push_back(it->first);
        it = name_routes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& name_added : body.adds) {
    auto [it, inserted] = name_routes_.try_emplace(
        name_added, Route{.local = false, .via = from});
    bool route_set = inserted;
    if (!inserted) {
      // Never clobber a local registration: with sibling-ring fallback
      // parents, advertisements can travel a cycle and come back to us.
      if (!it->second.local) {
        route_set = it->second.via != from;
        it->second = Route{.local = false, .via = from};
      }
    } else {
      new_adds.push_back(name_added);
    }
    if (route_set) put_name_node(log(), kJRouteAdd, name_added, from);
    // If this name was just re-added after a full reset, cancel the remove.
    std::erase(new_removes, name_added);
  }
  for (const auto& name_removed : body.removes) {
    const auto it = name_routes_.find(name_removed);
    if (it != name_routes_.end() && !it->second.local &&
        it->second.via == from) {
      name_routes_.erase(it);
      put_name(log(), kJRouteRemove, name_removed);
      new_removes.push_back(name_removed);
    }
  }
  if (!new_adds.empty() || !new_removes.empty()) {
    advertise_up(std::move(new_adds), std::move(new_removes));
  }
  for (const auto& name_added : body.adds) flush_parked(name_added);
}

void GdsServer::handle_heartbeat(NodeId from, const wire::Envelope& env) {
  // A heartbeat only ever comes from a node that has us as its parent, so
  // it doubles as child liveness — including children we forgot across a
  // restart (their routes return with the next periodic full hello). A
  // stale entry from a child that re-parented away ages out in the prune.
  const auto [hb_it, hb_new] = children_.insert_or_assign(from, network().now());
  (void)hb_it;
  if (hb_new) put_node(log(), kJChildUp, from);
  wire::Envelope ack = wire::make_envelope(
      wire::MessageType::kGdsHeartbeatAck, name(), env.src, env.msg_id,
      wire::Writer{});
  send_envelope(from, ack);
}

void GdsServer::handle_heartbeat_ack(NodeId from, const wire::Envelope& env) {
  // Any ack closes a pending round trip (a stale parent's RTT is still a
  // valid measurement of that link).
  if (config_.adaptive_parent) record_rtt_sample(from, env.msg_id);
  if (from != parent_) return;  // stale ack from a previous parent
  heartbeat_misses_ = 0;
  heartbeat_outstanding_ = false;
}

void GdsServer::handle_rtt_probe(NodeId from, const wire::Envelope& env) {
  // Stateless echo: probing a candidate parent must not create child
  // state there (a heartbeat would — it doubles as child liveness).
  wire::Envelope ack = wire::make_envelope(
      wire::MessageType::kGdsRttProbeAck, name(), env.src, env.msg_id,
      wire::Writer{});
  send_envelope(from, ack);
}

void GdsServer::handle_rtt_probe_ack(NodeId from, const wire::Envelope& env) {
  if (config_.adaptive_parent) record_rtt_sample(from, env.msg_id);
}

void GdsServer::record_rtt_sample(NodeId from, std::uint64_t msg_id) {
  const auto it = rtt_outstanding_.find(from);
  if (it == rtt_outstanding_.end() || it->second.msg_id != msg_id) return;
  const double sample = static_cast<double>(
      (network().now() - it->second.sent_at).as_micros());
  rtt_outstanding_.erase(it);
  auto& est = rtt_[from];
  est.ewma_micros =
      est.samples == 0
          ? sample
          : kRttEwmaAlpha * sample + (1.0 - kRttEwmaAlpha) * est.ewma_micros;
  est.samples += 1;
  stats_.rtt_samples += 1;
}

double GdsServer::rtt_ewma_micros(NodeId node) const {
  const auto it = rtt_.find(node);
  return it == rtt_.end() ? -1.0 : it->second.ewma_micros;
}

void GdsServer::probe_ancestor_rtt() {
  std::vector<NodeId> candidates;
  for (const NodeId a : proper_ancestors_) {
    if (a != parent_) candidates.push_back(a);
  }
  if (candidates.empty()) return;
  const NodeId target = candidates[rtt_probe_rr_++ % candidates.size()];
  const std::uint64_t probe_id = next_msg_id_++;
  wire::Envelope probe = wire::make_envelope(
      wire::MessageType::kGdsRttProbe, name(), "", probe_id, wire::Writer{});
  send_envelope(target, probe);
  // One outstanding probe per target: a new probe supersedes a lost one.
  rtt_outstanding_[target] = RttProbe{probe_id, network().now()};
  stats_.rtt_probes_sent += 1;
}

void GdsServer::maybe_adaptive_reparent() {
  if (!parent_.valid() || proper_ancestors_.size() < 2) return;
  const SimTime now = network().now();
  if (now - last_adaptive_reparent_ < kReparentMinInterval) return;
  const auto parent_est = rtt_.find(parent_);
  if (parent_est == rtt_.end() || parent_est->second.samples < kRttMinSamples) {
    return;
  }
  const double parent_ewma = parent_est->second.ewma_micros;
  NodeId best = NodeId::invalid();
  double best_ewma = parent_ewma * (1.0 - kReparentImprovement);
  for (const NodeId cand : proper_ancestors_) {
    if (cand == parent_) continue;
    if (std::find(ancestors_.begin(), ancestors_.end(), cand) ==
        ancestors_.end()) {
      continue;  // not currently in the failover ring (defensive)
    }
    const auto est = rtt_.find(cand);
    if (est == rtt_.end() || est->second.samples < kRttMinSamples) continue;
    if (est->second.ewma_micros < best_ewma) {
      best_ewma = est->second.ewma_micros;
      best = cand;
    }
  }
  if (!best.valid()) return;
  apply_parent_select(best);
  last_adaptive_reparent_ = now;
  stats_.adaptive_reparents += 1;
  put_node(log(), kJParentSelect, best);
  logf(LogLevel::kInfo, network().now(), name(),
       "adaptive re-parent to node ", best.value(), " (rtt ",
       static_cast<std::uint64_t>(best_ewma), "us vs ",
       static_cast<std::uint64_t>(parent_ewma), "us)");
  send_child_hello(/*full=*/true, subtree_names(), {});
  flush_all_parked();
}

void GdsServer::reparent() {
  if (ancestors_.size() <= 1) {
    // No fallback: operate headless (our subtree keeps working).
    heartbeat_misses_ = 0;
    heartbeat_outstanding_ = false;
    return;
  }
  ancestor_index_ = (ancestor_index_ + 1) % ancestors_.size();
  parent_ = ancestors_[ancestor_index_];
  heartbeat_misses_ = 0;
  heartbeat_outstanding_ = false;
  stats_.reparents += 1;
  put_node(log(), kJParentSelect, parent_);
  logf(LogLevel::kInfo, network().now(), name(), "re-parenting to node ",
       parent_.value());
  send_child_hello(/*full=*/true, subtree_names(), {});
  // The new parent may route names we could not: retry parked relays.
  flush_all_parked();
}

void GdsServer::prune_dead_children() {
  const SimTime cutoff_age =
      config_.heartbeat_interval * (config_.heartbeat_miss_limit + 1);
  const SimTime now = network().now();
  std::vector<std::string> removed_names;
  for (auto it = children_.begin(); it != children_.end();) {
    if (now - it->second > cutoff_age) {
      const NodeId dead = it->first;
      for (auto rit = name_routes_.begin(); rit != name_routes_.end();) {
        if (!rit->second.local && rit->second.via == dead) {
          put_name(log(), kJRouteRemove, rit->first);
          removed_names.push_back(rit->first);
          rit = name_routes_.erase(rit);
        } else {
          ++rit;
        }
      }
      put_node(log(), kJChildDown, dead);
      it = children_.erase(it);
    } else {
      ++it;
    }
  }
  if (!removed_names.empty()) advertise_up({}, std::move(removed_names));
}

std::vector<std::string> GdsServer::subtree_names() const {
  std::vector<std::string> names;
  names.reserve(name_routes_.size());
  for (const auto& [n, route] : name_routes_) names.push_back(n);
  return names;
}

void GdsServer::send_child_hello(bool full, std::vector<std::string> adds,
                                 std::vector<std::string> removes) {
  if (!parent_.valid()) return;
  ChildHelloBody body;
  body.stratum = config_.stratum;
  body.full = full;
  body.adds = std::move(adds);
  body.removes = std::move(removes);
  wire::Writer w;
  body.encode(w);
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsChildHello, name(), "", next_msg_id_++,
      std::move(w));
  send_envelope(parent_, env);
}

void GdsServer::advertise_up(std::vector<std::string> adds,
                             std::vector<std::string> removes) {
  send_child_hello(/*full=*/false, std::move(adds), std::move(removes));
}

// --- broadcast -----------------------------------------------------------

void GdsServer::deliver_frame(NodeId server, wire::Frame body_frame) {
  wire::Envelope env = wire::make_envelope(
      wire::MessageType::kGdsDeliver, name(), "", next_msg_id_++,
      std::move(body_frame));
  send_envelope(server, env);
  stats_.deliveries += 1;
}

void GdsServer::deliver(NodeId server, const BroadcastBody& body) {
  wire::Writer w;
  w.reserve(body.wire_size());
  body.encode(w);
  deliver_frame(server, wire::Frame{std::move(w).take()});
}

void GdsServer::handle_broadcast(NodeId from, const wire::Envelope& env) {
  GSALERT_PROFILE("gds.handle_broadcast");
  // Peek the routing fields only — the payload stays inside the shared
  // body frame and is never copied on this path.
  auto peeked = BroadcastView::peek(env.body);
  if (!peeked.ok()) return;
  const BroadcastView& body = peeked.value();
  stats_.broadcasts_seen += 1;
  if (config_.dedup_enabled &&
      !seen_.insert(body.origin_server, body.seq, log())) {
    stats_.duplicates_suppressed += 1;
    if (obs::active()) {
      obs::emit_span("gds-dup-drop", name(), network().now(),
                     {{"origin", body.origin_server},
                      {"seq", std::to_string(body.seq)}});
    }
    return;
  }
  if (env.ttl == 0) {
    if (obs::active()) {
      obs::emit_span("gds-ttl-drop", name(), network().now(),
                     {{"origin", body.origin_server},
                      {"seq", std::to_string(body.seq)}});
    }
    return;
  }

  const obs::TraceScope span_scope{
      obs::active()
          ? obs::emit_span("gds-broadcast", name(), network().now(),
                           {{"origin", body.origin_server},
                            {"seq", std::to_string(body.seq)}})
          : obs::current_context()};

  // Deliver to locally registered servers (never echo back to the
  // origin). A kGdsDeliver body is exactly the BroadcastBody bytes, so
  // every local delivery aliases the incoming frame.
  for (const auto& [server_name, node] : local_servers_) {
    if (server_name == body.origin_server) continue;
    if (delivery_observer_) {
      delivery_observer_(server_name, body.origin_server, body.seq);
    }
    const obs::TraceScope deliver_scope{
        obs::active()
            ? obs::emit_span("gds-deliver", name(), network().now(),
                             {{"dst", server_name}})
            : obs::current_context()};
    deliver_frame(node, env.body);
  }
  // Forward upwards and downwards, skipping the edge it arrived on: the
  // body frame is shared verbatim and the ~50-byte header is encoded
  // once, then copied per destination. Restamp the trace context one hop
  // past the gds-broadcast span rather than the upstream sender's.
  wire::Envelope forward = env;  // cheap: strings + a frame refcount
  forward.src = name();
  forward.ttl = static_cast<std::uint16_t>(env.ttl - 1);
  const obs::TraceContext forward_ctx = obs::current_context();
  forward.trace_id = forward_ctx.trace_id;
  forward.span_id = forward_ctx.span_id;
  forward.hop = static_cast<std::uint16_t>(forward_ctx.hop + 1);
  const sim::Packet packed = forward.pack();
  if (parent_.valid() && parent_ != from) {
    network().send(id(), parent_, packed);
  }
  for (const auto& [child, last_seen] : children_) {
    if (child != from) network().send(id(), child, packed);
  }
}

// --- relay / multicast -------------------------------------------------------

void GdsServer::handle_relay(NodeId from, wire::Envelope env) {
  auto decoded = RelayBody::decode(env.body);
  if (!decoded.ok()) return;
  RelayBody body = std::move(decoded).take();
  if (env.ttl == 0) {
    stats_.unroutable += 1;
    if (obs::active()) {
      obs::emit_span("gds-unroutable", name(), network().now(),
                     {{"dst", body.dst_server}});
    }
    return;
  }
  const obs::TraceScope relay_scope{
      obs::active()
          ? obs::emit_span("gds-relay", name(), network().now(),
                           {{"dst", body.dst_server}})
          : obs::current_context()};
  route_relay(from, std::move(env), std::move(body),
              network().now() + config_.park_ttl);
}

void GdsServer::route_relay(NodeId from, wire::Envelope env, RelayBody body,
                            SimTime park_expiry) {
  const auto route = name_routes_.find(body.dst_server);
  if (route != name_routes_.end() && route->second.local) {
    const auto server = local_servers_.find(body.dst_server);
    if (server != local_servers_.end()) {
      BroadcastBody inner;
      inner.origin_server = std::move(body.origin_server);
      inner.seq = 0;
      inner.payload_type = body.payload_type;
      inner.payload = std::move(body.payload);
      deliver(server->second, inner);
      stats_.relays_routed += 1;
    }
    return;
  }
  if (env.ttl == 0) {  // exhausted by repeated park/flush hops
    stats_.unroutable += 1;
    if (obs::active()) {
      obs::emit_span("gds-unroutable", name(), network().now(),
                     {{"dst", body.dst_server}});
    }
    return;
  }
  env.src = name();
  env.ttl -= 1;
  // Forwarded bytes are reused: restamp the context past the relay span.
  const obs::TraceContext relay_ctx = obs::current_context();
  env.trace_id = relay_ctx.trace_id;
  env.span_id = relay_ctx.span_id;
  env.hop = static_cast<std::uint16_t>(relay_ctx.hop + 1);
  if (route != name_routes_.end()) {
    send_envelope(route->second.via, env);
    stats_.relays_routed += 1;
  } else if (parent_.valid() && parent_ != from) {
    send_envelope(parent_, env);
    stats_.relays_routed += 1;
  } else {
    // No route and nowhere to forward: store-and-forward custody (paper
    // §4.1) instead of the old silent drop. Still counted unroutable —
    // the target is unknown *now*; the park is the second chance.
    stats_.unroutable += 1;
    if (obs::active()) {
      obs::emit_span("gds-park", name(), network().now(),
                     {{"dst", body.dst_server},
                      {"depth", std::to_string(parked_.size() + 1)}});
    }
    // Flatten for the journal before custody moves the envelope; the
    // eviction hook may journal unparks inside park_until, so append the
    // park record after it to keep the log causally ordered.
    std::vector<std::byte> flat;
    if (journal_) flat = env.flatten();
    const std::uint64_t order = parked_.park_until(
        body.dst_server, std::move(env), park_expiry, network().now());
    put_park(log(), order, body.dst_server, park_expiry, flat);
  }
}

void GdsServer::flush_parked(const std::string& dst) {
  if (!parked_.has(dst)) return;
  for (auto& entry : parked_.take(dst, network().now())) {
    log().put_u64(kJUnpark, entry.order);
    auto decoded = RelayBody::decode(entry.env.body);
    if (!decoded.ok()) continue;
    // Re-enter routing under a flush span chained to the parked
    // envelope's own trace, so causal traces show park -> flush -> hop.
    const obs::TraceScope scope{
        obs::active()
            ? obs::emit_span_under(
                  obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                                    entry.env.hop},
                  "gds-park-flush", name(), network().now(),
                  {{"dst", dst},
                   {"dwell_ms",
                    std::to_string((network().now() - entry.parked_at)
                                       .as_millis())}})
            : obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                                entry.env.hop}};
    route_relay(NodeId::invalid(), std::move(entry.env),
                std::move(decoded).take(), entry.expires_at);
  }
}

void GdsServer::flush_all_parked() {
  for (auto& entry : parked_.take_all(network().now())) {
    log().put_u64(kJUnpark, entry.order);
    auto decoded = RelayBody::decode(entry.env.body);
    if (!decoded.ok()) continue;
    RelayBody body = std::move(decoded).take();
    const obs::TraceScope scope{
        obs::active()
            ? obs::emit_span_under(
                  obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                                    entry.env.hop},
                  "gds-park-flush", name(), network().now(),
                  {{"dst", body.dst_server},
                   {"dwell_ms",
                    std::to_string((network().now() - entry.parked_at)
                                       .as_millis())}})
            : obs::TraceContext{entry.env.trace_id, entry.env.span_id,
                                entry.env.hop}};
    route_relay(NodeId::invalid(), std::move(entry.env), std::move(body),
                entry.expires_at);
  }
}

void GdsServer::handle_multicast(NodeId from, const wire::Envelope& env) {
  // Like broadcast, the payload is viewed in place: local deliveries share
  // one lazily-encoded frame, and per-edge forwards re-encode straight
  // from the view (each edge's target list differs, so the payload is
  // copied exactly once per edge and never into intermediate structs).
  auto decoded = MulticastBody::decode(env.body);
  if (!decoded.ok()) return;
  const MulticastBody& body = decoded.value();
  if (env.ttl == 0) return;

  const obs::TraceScope multicast_scope{
      obs::active()
          ? obs::emit_span("gds-multicast", name(), network().now(),
                           {{"origin", body.origin_server},
                            {"targets", std::to_string(body.targets.size())}})
          : obs::current_context()};

  std::vector<std::string> to_parent;
  std::unordered_map<NodeId, std::vector<std::string>> per_child;
  // All local targets receive the same inner BroadcastBody, so it is
  // encoded at most once and the frame shared across deliveries.
  wire::Frame local_frame;
  for (const auto& target : body.targets) {
    const auto route = name_routes_.find(target);
    if (route != name_routes_.end() && route->second.local) {
      const auto server = local_servers_.find(target);
      if (server != local_servers_.end()) {
        if (local_frame.empty()) {
          BroadcastBody inner;
          inner.origin_server = body.origin_server;
          inner.seq = body.seq;
          inner.payload_type = body.payload_type;
          inner.payload = body.payload;
          wire::Writer w;
          w.reserve(inner.wire_size());
          inner.encode(w);
          local_frame = wire::Frame{std::move(w).take()};
        }
        deliver_frame(server->second, local_frame);
      }
    } else if (route != name_routes_.end()) {
      per_child[route->second.via].push_back(target);
    } else if (parent_.valid() && parent_ != from) {
      to_parent.push_back(target);
    } else {
      stats_.unroutable += 1;
    }
  }
  auto forward_to = [&](NodeId hop, const std::vector<std::string>& targets) {
    wire::Writer w;
    MulticastBody::encode_fields(w, body.origin_server, body.seq, targets,
                                 body.payload_type, body.payload);
    wire::Envelope fwd = wire::make_envelope(
        wire::MessageType::kGdsMulticast, name(), "", next_msg_id_++,
        std::move(w));
    fwd.ttl = static_cast<std::uint16_t>(env.ttl - 1);
    send_envelope(hop, fwd);
  };
  for (const auto& [child, targets] : per_child) {
    forward_to(child, targets);
  }
  if (!to_parent.empty()) forward_to(parent_, to_parent);
}

// --- naming -----------------------------------------------------------------

void GdsServer::handle_resolve(NodeId from, const wire::Envelope& env) {
  auto decoded = ResolveBody::decode(env.body);
  if (!decoded.ok()) return;
  const ResolveBody& body = decoded.value();
  const std::string key = resolve_key(env.src, body.query_id);

  auto reply_with = [&](NodeId to, bool found) {
    ResolveReplyBody reply;
    reply.query_id = body.query_id;
    reply.server_name = body.server_name;
    reply.found = found;
    reply.owner_gds = found ? name() : "";
    wire::Writer w;
    reply.encode(w);
    wire::Envelope out = wire::make_envelope(
        wire::MessageType::kGdsResolveReply, name(), env.src,
        next_msg_id_++, std::move(w));
    send_envelope(to, out);
  };

  const auto route = name_routes_.find(body.server_name);
  if (route != name_routes_.end() && route->second.local) {
    reply_with(from, true);
    return;
  }
  if (env.ttl == 0) {
    reply_with(from, false);
    return;
  }
  NodeId next;
  if (route != name_routes_.end()) {
    next = route->second.via;
  } else if (parent_.valid() && parent_ != from) {
    next = parent_;
  } else {
    reply_with(from, false);
    return;
  }
  resolve_backpaths_[key] = from;
  wire::Envelope fwd = env;
  fwd.ttl -= 1;
  send_envelope(next, fwd);
}

void GdsServer::handle_resolve_reply(NodeId /*from*/,
                                     const wire::Envelope& env) {
  auto decoded = ResolveReplyBody::decode(env.body);
  if (!decoded.ok()) return;
  const std::string key = resolve_key(env.dst, decoded.value().query_id);
  const auto it = resolve_backpaths_.find(key);
  if (it == resolve_backpaths_.end()) return;  // not ours / already answered
  const NodeId back = it->second;
  resolve_backpaths_.erase(it);
  send_envelope(back, env);
}

bool GdsServer::knows_name(const std::string& name_queried) const {
  return name_routes_.contains(name_queried);
}

std::vector<std::string> GdsServer::registered_names() const {
  std::vector<std::string> names;
  names.reserve(local_servers_.size());
  for (const auto& [server, node] : local_servers_) names.push_back(server);
  std::sort(names.begin(), names.end());
  return names;
}

// --- durability --------------------------------------------------------------

void GdsServer::ensure_journal() {
  if (journal_) return;
  journal_ = std::make_unique<journal::Journal>(
      network().storage(id()), "gds", name(), config_.journal);
  journal_->set_clock([this] { return network().now(); });
  journal_->set_snapshot_writer(
      [this](const journal::RecordSink& out) { encode_snapshot(out); });
  journal_->recover(
      [this](std::uint8_t type, wire::Reader& r, std::uint64_t /*lsn*/) {
        replay_record(type, r);
      });
  next_msg_id_ += kMsgIdStride;
  // Custody the lot drops on its own (TTL expiry, capacity eviction) is
  // journaled here; entries handed back by take()/take_all() are
  // journaled by the flush paths, which see their custody ids.
  parked_.set_removal_hook(
      [this](std::uint64_t order) { log().put_u64(kJUnpark, order); });
}

void GdsServer::encode_snapshot(const journal::RecordSink& out) const {
  // Containers are hash maps: sort every section so identical state
  // always snapshots to identical bytes (recovery-equivalence tests
  // compare snapshots directly). Registrations precede routes so the
  // never-clobber-local guard sees them, as in the log.
  out.put_u64(kJMsgId, next_msg_id_);
  put_ancestors(out, ancestors_, proper_ancestors_, ancestor_index_);
  for (const auto& server : registered_names()) {
    put_name_node(out, kJRegister, server, local_servers_.at(server));
  }
  std::vector<std::string> routed;
  for (const auto& [route_name, route] : name_routes_) {
    if (!route.local) routed.push_back(route_name);
  }
  std::sort(routed.begin(), routed.end());
  for (const auto& route_name : routed) {
    put_name_node(out, kJRouteAdd, route_name, name_routes_.at(route_name).via);
  }
  std::vector<NodeId> children;
  for (const auto& [child, last_seen] : children_) children.push_back(child);
  std::sort(children.begin(), children.end());
  for (const NodeId child : children) put_node(out, kJChildUp, child);
  seen_.snapshot(out);
  parked_.for_each([&](const std::string& key,
                       const transport::ParkingLot::Entry& entry) {
    put_park(out, entry.order, key, entry.expires_at, entry.env.flatten());
  });
}

void GdsServer::replay_record(std::uint8_t type, wire::Reader& r) {
  // Replay mutates containers only: no sends, no observers, no spans —
  // the rest of the world already saw these effects before the crash.
  switch (type) {
    case kJRegister: {
      const std::string server = r.str();
      const NodeId node{r.u32()};
      if (!r.ok()) return;
      local_servers_[server] = node;
      name_routes_[server] = Route{.local = true, .via = NodeId::invalid()};
      break;
    }
    case kJUnregister: {
      const std::string server = r.str();
      if (!r.ok()) return;
      local_servers_.erase(server);
      name_routes_.erase(server);
      break;
    }
    case kJRouteAdd: {
      const std::string route_name = r.str();
      const NodeId via{r.u32()};
      if (!r.ok()) return;
      // Mirror the live never-clobber-local guard.
      if (const auto it = name_routes_.find(route_name);
          it == name_routes_.end() || !it->second.local) {
        name_routes_[route_name] = Route{.local = false, .via = via};
      }
      break;
    }
    case kJRouteRemove: {
      const std::string route_name = r.str();
      if (!r.ok()) return;
      if (const auto it = name_routes_.find(route_name);
          it != name_routes_.end() && !it->second.local) {
        name_routes_.erase(it);
      }
      break;
    }
    case kJChildUp: {
      const NodeId child{r.u32()};
      if (!r.ok()) return;
      children_[child] = network().now();
      break;
    }
    case kJChildDown: {
      const NodeId child{r.u32()};
      if (!r.ok()) return;
      children_.erase(child);
      break;
    }
    case kJAdopt: {
      const NodeId new_parent{r.u32()};
      if (!r.ok()) return;
      apply_adopt_ancestors(new_parent);
      break;
    }
    case kJParentSelect: {
      const NodeId new_parent{r.u32()};
      if (!r.ok()) return;
      apply_parent_select(new_parent);
      break;
    }
    case kJSeen:
    case kJSeenFloor:
      seen_.replay(type, r);
      break;
    case kJPark: {
      const std::uint64_t order = r.u64();
      const std::string key = r.str();
      const SimTime expires_at = SimTime::micros(r.i64());
      const std::vector<std::byte> flat = r.bytes();
      if (!r.ok()) return;
      if (auto env = wire::unpack(flat)) {
        parked_.restore(key, std::move(env).take(), expires_at, order);
      }
      break;
    }
    case kJUnpark: {
      const std::uint64_t order = r.u64();
      if (!r.ok()) return;
      parked_.remove_order(order);
      break;
    }
    case kJMsgId: {
      const std::uint64_t next = r.u64();
      if (r.ok()) next_msg_id_ = std::max(next_msg_id_, next);
      break;
    }
    case kJAncestors: {
      std::vector<NodeId> ring = read_nodes(r);
      std::vector<NodeId> proper = read_nodes(r);
      const std::uint32_t index = r.u32();
      if (!r.ok() || index >= std::max<std::size_t>(ring.size(), 1)) return;
      ancestors_ = std::move(ring);
      proper_ancestors_ = std::move(proper);
      ancestor_index_ = index;
      parent_ = ancestors_.empty() ? NodeId::invalid() : ancestors_[index];
      break;
    }
    default:
      // Unknown record type: a newer writer's record surviving a
      // downgrade. Ignore rather than fail the whole replay.
      break;
  }
}

void GdsServer::collect_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"node", name()}};
  registry.counter("gds.broadcasts_seen", labels) = stats_.broadcasts_seen;
  registry.counter("gds.duplicates_suppressed", labels) =
      stats_.duplicates_suppressed;
  registry.counter("gds.deliveries", labels) = stats_.deliveries;
  registry.counter("gds.relays_routed", labels) = stats_.relays_routed;
  registry.counter("gds.unroutable", labels) = stats_.unroutable;
  registry.counter("gds.reparents", labels) = stats_.reparents;
  registry.counter("gds.reparent.failover", labels) = stats_.reparents;
  registry.counter("gds.reparent.adaptive", labels) =
      stats_.adaptive_reparents;
  registry.counter("gds.rtt.probes_sent", labels) = stats_.rtt_probes_sent;
  registry.counter("gds.rtt.samples", labels) = stats_.rtt_samples;
  if (const auto parent_rtt = rtt_.find(parent_); parent_rtt != rtt_.end()) {
    registry.gauge("gds.rtt.parent_ewma_ms", labels) =
        parent_rtt->second.ewma_micros / 1000.0;
  }
  registry.gauge("gds.registered_servers", labels) =
      static_cast<double>(local_servers_.size());
  registry.gauge("gds.known_names", labels) =
      static_cast<double>(name_routes_.size());
  registry.gauge("gds.children", labels) =
      static_cast<double>(children_.size());
  registry.gauge("gds.dedup_gaps", labels) =
      static_cast<double>(seen_.gaps());
  const transport::ParkStats& park = parked_.stats();
  registry.counter("transport.park.parked", labels) = park.parked;
  registry.counter("transport.park.flushed", labels) = park.flushed;
  registry.counter("transport.park.expired", labels) = park.expired;
  registry.counter("transport.park.evicted", labels) = park.evicted;
  registry.gauge("transport.park.depth", labels) =
      static_cast<double>(parked_.size());
  if (journal_) journal_->collect_metrics(registry);
}

}  // namespace gsalert::gds
