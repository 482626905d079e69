// E2 (Figure 2): the paper's seven-node GDS stratum tree with registered
// Greenstone servers. An event broadcast from Hamilton must reach every
// other server exactly once; the table reports delivery ratio, duplicates
// (must be 0), per-server hop latency, and the tree traffic.
#include <chrono>
#include <cstdio>
#include <map>

#include "alerting/alerting_service.h"
#include "alerting/client.h"
#include "common/histogram.h"
#include "gds/gds_client.h"
#include "gds/tree_builder.h"
#include "gsnet/greenstone_server.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "sim/network.h"
#include "wire/codec.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {

// A minimal registered server for the fan-out sweep: registers with its
// GDS node and counts decoded kGdsDeliver packets, so the sweep isolates
// the tree's encode/fan-out path from alerting-layer filtering cost.
class SinkServer : public sim::Node {
 public:
  void attach_gds(NodeId gds) { gds_ = gds; }
  void on_start() override {
    client_.attach(&network(), id(), name(), gds_);
    client_.start();
  }
  void on_packet(NodeId /*from*/, const sim::Packet& packet) override {
    auto env = wire::unpack(packet);
    if (env.ok() && env.value().type == wire::MessageType::kGdsDeliver) {
      ++delivered_;
    }
  }
  void broadcast(std::size_t payload_bytes) {
    client_.broadcast(0x7777,
                      std::vector<std::byte>(payload_bytes, std::byte{0x5A}));
  }
  std::uint64_t delivered() const { return delivered_; }

 private:
  gds::GdsClient client_;
  NodeId gds_;
  std::uint64_t delivered_ = 0;
};

// Sweep point: a two-stratum tree (root + `fanout` children), one sink per
// GDS node, `events` broadcasts of `payload` bytes from the root's sink.
void sweep(obs::MetricsRegistry& reg, int fanout, std::size_t payload) {
  sim::Network net{7};
  net.set_default_path({.latency = SimTime::millis(5)});
  gds::GdsTree tree = gds::build_tree(net, fanout, 2);
  std::vector<SinkServer*> sinks;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    auto* s = net.make_node<SinkServer>("sink-" + std::to_string(i));
    s->attach_gds(tree.nodes[i]->id());
    sinks.push_back(s);
  }
  net.start();
  net.run_until(SimTime::millis(300));
  net.reset_stats();
  wire::reset_writer_stats();

  const int events = 200;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    sinks[0]->broadcast(payload);
    net.run_until(net.now() + SimTime::millis(50));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_event =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      events;

  std::uint64_t delivered = 0;
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    delivered += sinks[i]->delivered();
  }
  const sim::NetStats& ns = net.stats();
  const obs::Labels labels{{"fanout", std::to_string(fanout)},
                           {"payload", std::to_string(payload)}};
  reg.counter("sweep.events", labels) = static_cast<std::uint64_t>(events);
  reg.counter("sweep.delivered", labels) = delivered;
  reg.counter("sweep.bytes_sent", labels) = ns.bytes_sent;
  reg.counter("sweep.bytes_copied", labels) = ns.bytes_copied;
  reg.counter("sweep.bytes_shared", labels) = ns.bytes_shared;
  reg.counter("sweep.messages_sent", labels) = ns.sent;
  reg.counter("sweep.ns_per_event", labels) =
      static_cast<std::uint64_t>(ns_per_event);
  const wire::WriterStats& ws = wire::writer_stats();
  reg.counter("sweep.writer_buffers", labels) = ws.writers;
  reg.counter("sweep.writer_grows", labels) = ws.grows;
  reg.counter("sweep.writer_reserve_shortfalls", labels) =
      ws.reserve_shortfalls;
  char row[200];
  std::snprintf(row, sizeof(row), "%6d %8zu %8d %10llu %12llu %12.0f",
                fanout, payload, events,
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(ns.bytes_sent),
                ns_per_event);
  workload::print_row(row);
}

}  // namespace

int main() {
  // Armed for the whole run: the figure's broadcast exercises the real
  // publish -> flood -> notify pipeline, so the spans carry e2e latency.
  obs::LatencyTracker tracker;
  const obs::ScopedSink tracker_sink{&tracker};
  sim::Network net{2};
  const SimTime hop = SimTime::millis(20);
  net.set_default_path({.latency = hop});
  gds::GdsTree tree = gds::build_figure2_tree(net);

  // One GS server per GDS node, as in the figure (Hamilton at gds-3's
  // subtree, London at gds-6's — strata 3 leaves on different branches).
  const std::array<int, 7> attach = {0, 1, 2, 3, 4, 5, 6};
  std::vector<gsnet::GreenstoneServer*> servers;
  std::vector<alerting::Client*> clients;
  for (int i = 0; i < 7; ++i) {
    const std::string host =
        i == 2 ? "Hamilton" : (i == 5 ? "London" : "Srv" + std::to_string(i));
    auto* s = net.make_node<gsnet::GreenstoneServer>(host);
    s->set_extension(std::make_unique<alerting::AlertingService>());
    s->attach_gds(tree.nodes[static_cast<std::size_t>(attach[static_cast<std::size_t>(i)])]->id());
    servers.push_back(s);
    auto* c = net.make_node<alerting::Client>("client-" + host);
    c->set_home(s->id());
    clients.push_back(c);
  }
  net.start();
  net.run_until(SimTime::millis(200));
  for (auto* c : clients) c->subscribe("host = hamilton");
  net.run_until(net.now() + SimTime::millis(200));
  net.reset_stats();

  // Hamilton announces a new collection.
  const SimTime t0 = net.now();
  docmodel::CollectionConfig config;
  config.name = "New";
  docmodel::DataSet data;
  docmodel::Document d;
  d.id = 1;
  data.add(d);
  servers[2]->add_collection(config, data);
  net.run_until(net.now() + SimTime::seconds(3));

  workload::print_table_header(
      "E2 / Figure 2 — GDS broadcast from Hamilton",
      "server      gds-node stratum notified latency_ms");
  int notified = 0;
  Histogram latency;
  for (int i = 0; i < 7; ++i) {
    const auto& notes = clients[static_cast<std::size_t>(i)]->notifications();
    const bool self = i == 2;
    char row[160];
    const double lat =
        notes.empty() ? -1 : (notes[0].at - t0).as_millis();
    if (!notes.empty() && !self) {
      ++notified;
      latency.record(lat);
    }
    std::snprintf(row, sizeof(row), "%-11s gds-%d %8u %8s %10.1f",
                  servers[static_cast<std::size_t>(i)]->name().c_str(), i + 1,
                  tree.nodes[static_cast<std::size_t>(i)]->stratum(),
                  notes.empty() ? "no" : "yes", lat);
    workload::print_row(row);
  }
  std::uint64_t dups = 0, deliveries = 0;
  for (auto* n : tree.nodes) {
    dups += n->stats().duplicates_suppressed;
    deliveries += n->stats().deliveries;
  }
  std::printf(
      "\ndelivery: %d/6 servers (plus local Hamilton client), duplicates "
      "suppressed in tree: %llu, GDS deliveries: %llu\n",
      notified, static_cast<unsigned long long>(dups),
      static_cast<unsigned long long>(deliveries));
  std::printf(
      "latency: min %.0fms p50 %.0fms max %.0fms (one-way hop = %.0fms; "
      "max path = leaf->root->leaf + edges = 5 hops)\n",
      latency.min(), latency.p50(), latency.max(), hop.as_millis());
  std::printf("total messages on the wire during broadcast: %llu\n",
              static_cast<unsigned long long>(net.stats().sent));
  obs::MetricsRegistry reg;
  net.collect_metrics(reg);
  for (auto* n : tree.nodes) n->collect_metrics(reg);
  reg.counter("bench.servers_notified") = static_cast<std::uint64_t>(notified);
  reg.histogram("bench.notify_latency_ms") = latency;
  tracker.breakdown().export_to(reg);

  workload::print_table_header(
      "fan-out / payload sweep — per-event copy volume on the GDS tree",
      "fanout  payload   events  delivered   bytes_sent  ns_per_event");
  for (const int fanout : {2, 4, 8}) {
    for (const std::size_t payload : {std::size_t{256}, std::size_t{4096},
                                      std::size_t{16384}}) {
      sweep(reg, fanout, payload);
    }
  }
  workload::write_bench_json("fig2_gds_broadcast", reg);
  return notified == 6 ? 0 : 1;
}
