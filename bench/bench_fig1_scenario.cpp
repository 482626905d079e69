// E1 (Figure 1): the exact Hamilton/London collection layout of the paper.
// Verifies federated / distributed / virtual / private semantics on the
// wire and reports, per access, the resolution depth (hops), servers
// contacted and bytes moved — the figure as an executable table.
#include <cstdio>
#include <optional>

#include "docmodel/collection.h"
#include "gsnet/greenstone_server.h"
#include "gsnet/receptionist.h"
#include "obs/latency.h"
#include "obs/metrics_registry.h"
#include "sim/network.h"
#include "workload/metrics.h"

using namespace gsalert;

namespace {
docmodel::Document make_doc(DocumentId id, const char* title) {
  docmodel::Document d;
  d.id = id;
  d.metadata.add("title", title);
  d.terms = {"paper", "figure", "one"};
  return d;
}

docmodel::CollectionConfig make_config(
    const char* name, std::vector<CollectionRef> subs = {},
    bool is_public = true) {
  docmodel::CollectionConfig c;
  c.name = name;
  c.sub_collections = std::move(subs);
  c.is_public = is_public;
  c.indexed_attributes = {"title"};
  return c;
}
}  // namespace

int main() {
  sim::Network net{1};
  net.set_default_path({.latency = SimTime::millis(25)});
  auto* hamilton = net.make_node<gsnet::GreenstoneServer>("Hamilton");
  auto* london = net.make_node<gsnet::GreenstoneServer>("London");
  auto* recep1 = net.make_node<gsnet::Receptionist>("recep-I");
  auto* recep2 = net.make_node<gsnet::Receptionist>("recep-II");
  hamilton->set_host_ref("London", london->id());
  london->set_host_ref("Hamilton", hamilton->id());
  recep1->add_host("Hamilton", hamilton->id());
  recep1->add_host("London", london->id());
  recep2->add_host("London", london->id());
  net.start();

  hamilton->add_collection(make_config("A"), docmodel::DataSet{{make_doc(1, "a")}});
  hamilton->add_collection(make_config("B"), docmodel::DataSet{{make_doc(2, "b")}});
  hamilton->add_collection(make_config("C", {{"Hamilton", "B"}}),
                           docmodel::DataSet{});
  hamilton->add_collection(make_config("D", {{"London", "E"}}),
                           docmodel::DataSet{{make_doc(4, "d")}});
  london->add_collection(make_config("E"), docmodel::DataSet{{make_doc(5, "e")}});
  london->add_collection(make_config("F", {{"London", "G"}}),
                         docmodel::DataSet{{make_doc(6, "f")}});
  london->add_collection(make_config("G", {}, false),
                         docmodel::DataSet{{make_doc(7, "g")}});
  net.run_until(SimTime::seconds(1));

  workload::print_table_header(
      "E1 / Figure 1 — collection access semantics",
      "access            kind                 docs hops servers bytes    "
      "latency_ms result");
  obs::MetricsRegistry reg;
  // No alerting pipeline here — the access round-trip IS the end-to-end
  // latency, fed to the tracker by hand so this bench still carries the
  // canonical latency.* schema the sentinel expects.
  obs::LatencyTracker tracker;
  const obs::ScopedSink tracker_sink{&tracker};
  auto probe = [&](gsnet::Receptionist* r, const CollectionRef& ref,
                   const char* kind) {
    net.reset_stats();
    const SimTime start = net.now();
    std::optional<gsnet::CollResult> result;
    std::optional<SimTime> done_at;
    r->open_collection(ref, [&](gsnet::CollResult res) {
      result = std::move(res);
      done_at = net.now();
    });
    net.run_until(net.now() + SimTime::seconds(20));
    char row[256];
    const obs::Labels labels{{"access", ref.str()}};
    reg.counter("bench.probe_ok", labels) = result->ok ? 1 : 0;
    reg.counter("bench.bytes", labels) = net.stats().bytes_sent;
    if (result->ok) {
      reg.counter("bench.hops", labels) = result->hops;
      tracker.record_e2e_ms((*done_at - start).as_millis());
      tracker.breakdown().notify_hops.record(result->hops);
      std::snprintf(row, sizeof(row),
                    "%-17s %-20s %4zu %4u %7u %-8llu %10.1f %s", ref.str().c_str(),
                    kind, result->docs.size(), result->hops,
                    result->servers_contacted,
                    static_cast<unsigned long long>(net.stats().bytes_sent),
                    (*done_at - start).as_millis(),
                    result->error.empty() ? "ok" : "partial");
    } else {
      std::snprintf(row, sizeof(row), "%-17s %-20s    -    -       - %-8s %10s %s",
                    ref.str().c_str(), kind, "-", "-",
                    result->error.c_str());
    }
    workload::print_row(row);
  };
  probe(recep1, {"Hamilton", "A"}, "solitary");
  probe(recep1, {"Hamilton", "B"}, "solitary");
  probe(recep1, {"Hamilton", "C"}, "virtual");
  probe(recep1, {"Hamilton", "D"}, "distributed");
  probe(recep1, {"London", "E"}, "sub+independent");
  probe(recep2, {"London", "F"}, "with-private-sub");
  probe(recep2, {"London", "G"}, "private(denied)");
  std::printf(
      "\nshape check: distributed D costs 1 extra hop / 1 extra server; "
      "virtual C serves sub data only; G denied directly, served via F.\n");
  tracker.breakdown().export_to(reg);
  net.collect_metrics(reg);
  workload::write_bench_json("fig1_scenario", reg);
  return 0;
}
