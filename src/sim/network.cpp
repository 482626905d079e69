#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace gsalert::sim {

namespace {
/// Record a drop/duplication against the trace the packet belongs to.
/// Untraced packets (heartbeats, registration chatter) are skipped so a
/// tracer only sees spans it can parent.
void trace_packet_fate(const char* what, const Packet& packet,
                       const std::string& from, const std::string& to,
                       SimTime at) {
  if (packet.trace_id == 0) return;
  obs::emit_span_under(
      obs::TraceContext{packet.trace_id, packet.span_id, packet.hop}, what,
      from, at, {{"to", to}});
}
}  // namespace

Network::Network(std::uint64_t seed) : rng_(seed) {}

void Network::register_node(std::string name, std::unique_ptr<Node> node) {
  assert(node != nullptr);
  const NodeId id{static_cast<std::uint32_t>(nodes_.size() + 1)};
  node->id_ = id;
  node->name_ = name;
  node->network_ = this;
  if (!by_name_.emplace(std::move(name), id).second) {
    throw std::invalid_argument("duplicate node name: " + node->name_);
  }
  nodes_.push_back(std::move(node));
  up_.push_back(true);
  incarnations_.push_back(0);
  node_stats_.emplace_back();
}

void Network::start() {
  for (auto& node : nodes_) {
    scheduler_.schedule_after(SimTime::zero(), [n = node.get()] {
      n->on_start();
    });
  }
}

std::uint64_t Network::pair_key(NodeId a, NodeId b) {
  std::uint32_t lo = a.value(), hi = b.value();
  if (lo > hi) std::swap(lo, hi);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

void Network::set_default_path(PathConfig config) { default_path_ = config; }

void Network::set_path(NodeId a, NodeId b, PathConfig config) {
  path_overrides_[pair_key(a, b)] = config;
}

void Network::set_topology(Topology topo) {
  if (!topo.valid()) {
    throw std::invalid_argument(
        "Network::set_topology: mis-sized or asymmetric matrix for "
        "topology '" + topo.name + "'");
  }
  topology_ = std::move(topo);
}

std::size_t Network::region_of(NodeId node) const {
  if (!topology_ || !node.valid() || node.value() > nodes_.size()) return 0;
  return topology_->region_of(node.value() - 1, nodes_.size());
}

const PathConfig& Network::path_for(NodeId a, NodeId b) const {
  const auto it = path_overrides_.find(pair_key(a, b));
  if (it != path_overrides_.end()) return it->second;
  if (topology_) return topology_->at(region_of(a), region_of(b));
  return default_path_;
}

SimTime NetChaosKnobs::targeted_extra(NodeId from, NodeId to) const {
  SimTime extra = SimTime::zero();
  if (!link_latency.empty()) {
    const auto it = link_latency.find(Network::pair_key(from, to));
    if (it != link_latency.end()) extra += it->second;
  }
  if (!node_latency.empty()) {
    SimTime worst = SimTime::zero();
    if (const auto a = node_latency.find(from.value());
        a != node_latency.end()) {
      worst = a->second;
    }
    if (const auto b = node_latency.find(to.value());
        b != node_latency.end()) {
      worst = std::max(worst, b->second);
    }
    extra += worst;
  }
  return extra;
}

void Network::crash(NodeId node) {
  assert(node.value() >= 1 && node.value() <= nodes_.size());
  if (crash_observer_) crash_observer_(node);
  up_[node.value() - 1] = false;
  incarnations_[node.value() - 1] += 1;
  const auto it = storages_.find(node.value());
  if (it != storages_.end()) it->second->on_crash(rng_, storage_faults_);
}

Storage& Network::storage(NodeId node) {
  assert(node.value() >= 1 && node.value() <= nodes_.size());
  auto& slot = storages_[node.value()];
  if (!slot) slot = std::make_unique<Storage>();
  return *slot;
}

void Network::restart(NodeId node) {
  assert(node.value() >= 1 && node.value() <= nodes_.size());
  if (up_[node.value() - 1]) return;
  up_[node.value() - 1] = true;
  scheduler_.schedule_after(SimTime::zero(),
                            [n = nodes_[node.value() - 1].get()] {
                              n->on_restart();
                            });
}

bool Network::is_up(NodeId node) const {
  if (!node.valid() || node.value() > nodes_.size()) return false;
  return up_[node.value() - 1];
}

void Network::block_pair(NodeId a, NodeId b) {
  blocked_.insert(pair_key(a, b));
}

void Network::unblock_pair(NodeId a, NodeId b) {
  blocked_.erase(pair_key(a, b));
}

bool Network::is_blocked(NodeId a, NodeId b) const {
  if (blocked_.contains(pair_key(a, b))) return true;
  if (partition_active_) {
    const auto ga = partition_group_.find(a.value());
    const auto gb = partition_group_.find(b.value());
    const int group_a = ga == partition_group_.end() ? 0 : ga->second;
    const int group_b = gb == partition_group_.end() ? 0 : gb->second;
    if (group_a != group_b) return true;
  }
  return false;
}

void Network::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  partition_group_.clear();
  int group = 1;
  for (const auto& members : groups) {
    for (NodeId id : members) partition_group_[id.value()] = group;
    ++group;
  }
  partition_active_ = true;
}

void Network::clear_partition() {
  partition_group_.clear();
  partition_active_ = false;
}

bool Network::send(NodeId from, NodeId to, Packet packet) {
  if (!is_up(from)) return false;
  NetStats& st = stats_;
  st.sent += 1;
  st.bytes_sent += packet.size();
  st.bytes_copied += packet.header.size();
  st.bytes_shared += packet.body.size();
  auto& sender = node_stats_[from.value() - 1];
  sender.sent += 1;
  sender.bytes_sent += packet.size();

  const std::string& from_name = nodes_[from.value() - 1]->name();
  if (!to.valid() || to.value() > nodes_.size()) {
    st.dropped_down += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-down", packet, from_name, "<invalid>",
                        now());
    }
    return false;
  }
  const std::string& to_name = nodes_[to.value() - 1]->name();
  if (is_blocked(from, to)) {
    st.dropped_blocked += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-blocked", packet, from_name, to_name,
                        now());
    }
    return false;
  }
  if (!is_up(to)) {
    st.dropped_down += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-down", packet, from_name, to_name, now());
    }
    return false;
  }
  const PathConfig& path = path_for(from, to);
  const double loss = path.loss + chaos_.extra_loss;
  if (loss > 0.0 && rng_.chance(loss)) {
    st.dropped_loss += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-loss", packet, from_name, to_name, now());
    }
    return false;
  }
  SimTime delay = path.latency + chaos_.extra_latency;
  if (!chaos_.link_latency.empty() || !chaos_.node_latency.empty()) {
    delay += chaos_.targeted_extra(from, to);
  }
  if (path.jitter > SimTime::zero()) {
    delay += SimTime::micros(
        rng_.uniform_int(0, path.jitter.as_micros()));
  }
  if (chaos_.reorder > 0.0 && chaos_.reorder_span > SimTime::zero() &&
      rng_.chance(chaos_.reorder)) {
    delay += SimTime::micros(
        rng_.uniform_int(0, chaos_.reorder_span.as_micros()));
  }
  if (chaos_.duplication > 0.0 && rng_.chance(chaos_.duplication)) {
    // The copy trails the original by up to one base latency, so the two
    // arrivals interleave with unrelated traffic. Copying the Packet
    // duplicates only the header; the body frame is aliased (immutable by
    // type, so the two deliveries can never diverge).
    st.duplicated += 1;
    st.bytes_copied += packet.header.size();
    st.bytes_shared += packet.body.size();
    if (obs::active()) {
      trace_packet_fate("net-duplicate", packet, from_name, to_name, now());
    }
    schedule_delivery(from, to, packet,
                      delay + SimTime::micros(rng_.uniform_int(
                                  1, std::max<std::int64_t>(
                                         1, path.latency.as_micros()))));
  }
  schedule_delivery(from, to, std::move(packet), delay);
  return true;
}

void Network::schedule_delivery(NodeId from, NodeId to, Packet packet,
                                SimTime delay) {
  if (delay < SimTime::zero()) delay = SimTime::zero();
  in_flight_ += 1;
  scheduler_.schedule_after(
      delay, [this, from, to, p = std::move(packet)]() mutable {
        deliver(from, to, std::move(p));
      });
}

void Network::deliver(NodeId from, NodeId to, Packet p) {
  in_flight_ -= 1;
  NetStats& st = stats_;
  // Re-check state at arrival: the destination may have crashed or a
  // partition formed while the packet was in flight.
  if (!is_up(to)) {
    st.dropped_down += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-down", p, nodes_[from.value() - 1]->name(),
                        nodes_[to.value() - 1]->name(), now());
    }
    return;
  }
  if (is_blocked(from, to)) {
    st.dropped_blocked += 1;
    if (obs::active()) {
      trace_packet_fate("net-drop-blocked", p,
                        nodes_[from.value() - 1]->name(),
                        nodes_[to.value() - 1]->name(), now());
    }
    return;
  }
  st.delivered += 1;
  auto& receiver = node_stats_[to.value() - 1];
  receiver.received += 1;
  receiver.bytes_received += p.size();
  nodes_[to.value() - 1]->on_packet(from, p);
}

void Network::schedule_control(SimTime delay, std::function<void()> action) {
  scheduler_.schedule_after(delay, std::move(action));
}

Node* Network::node(NodeId id) const {
  if (!id.valid() || id.value() > nodes_.size()) return nullptr;
  return nodes_[id.value() - 1].get();
}

NodeId Network::find_node(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? NodeId::invalid() : it->second;
}

void Network::reset_stats() {
  stats_ = NetStats{};
  for (auto& s : node_stats_) s = NodeStats{};
}

const NodeStats& Network::node_stats(NodeId id) const {
  assert(id.valid() && id.value() <= nodes_.size());
  return node_stats_[id.value() - 1];
}

void Network::collect_metrics(obs::MetricsRegistry& registry) const {
  const NetStats& st = stats_;
  registry.counter("net.sent") = st.sent;
  registry.counter("net.delivered") = st.delivered;
  registry.counter("net.dropped_loss") = st.dropped_loss;
  registry.counter("net.dropped_down") = st.dropped_down;
  registry.counter("net.dropped_blocked") = st.dropped_blocked;
  registry.counter("net.duplicated") = st.duplicated;
  registry.counter("net.bytes_sent") = st.bytes_sent;
  registry.counter("net.bytes_copied") = st.bytes_copied;
  registry.counter("net.bytes_shared") = st.bytes_shared;
  registry.gauge("net.in_flight") = static_cast<double>(packets_in_flight());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const obs::Labels labels{{"node", nodes_[i]->name()}};
    const NodeStats& ns = node_stats_[i];
    registry.counter("net.node.sent", labels) = ns.sent;
    registry.counter("net.node.received", labels) = ns.received;
    registry.counter("net.node.bytes_sent", labels) = ns.bytes_sent;
    registry.counter("net.node.bytes_received", labels) = ns.bytes_received;
  }
}

}  // namespace gsalert::sim
