// WAN topology zoo: catalog integrity, scenario integration, and zoo
// worlds end to end — every zoo world delivers with no false negatives
// (the adaptive multi-region tree included), and a fixed-seed replay is
// byte-identical, adaptive re-parenting included.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "sim/topology.h"
#include "workload/scenario.h"

namespace gsalert {
namespace {

TEST(TopologyZooTest, EveryZooEntryResolvesWithValidMatrix) {
  const std::vector<std::string>& zoo = sim::topology_zoo();
  ASSERT_FALSE(zoo.empty());
  for (const std::string& name : zoo) {
    const auto topo = sim::topology_by_name(name);
    ASSERT_TRUE(topo.has_value()) << name;
    EXPECT_EQ(topo->name, name);
    EXPECT_TRUE(topo->valid()) << name;
  }
}

TEST(TopologyZooTest, UnknownNameIsNullopt) {
  EXPECT_FALSE(sim::topology_by_name("atlantis").has_value());
  EXPECT_TRUE(sim::topology_by_name("").has_value());  // uniform default
}

TEST(TopologyZooTest, ScenarioRejectsUnknownTopologyAtConstruction) {
  workload::ScenarioConfig config;
  config.sim_topology = "atlantis";
  EXPECT_THROW(workload::Scenario{config}, std::invalid_argument);
}

TEST(TopologyZooTest, RegionMatrixStretchesLatencyOverUniform) {
  // The same seed and workload on multi-region must see strictly slower
  // tails than the uniform mesh — proof the matrix actually drives
  // per-pair path latency.
  const auto p99 = [](const std::string& topology) {
    workload::ScenarioConfig config;
    config.n_servers = 8;
    config.seed = 5;
    config.sim_topology = topology;
    workload::Scenario scenario{config};
    scenario.setup_collections();
    scenario.subscribe_all(2);
    scenario.settle(SimTime::seconds(3));
    for (int i = 0; i < 5; ++i) {
      scenario.publish_random_rebuild(2);
      scenario.settle(SimTime::millis(600));
    }
    scenario.settle(SimTime::seconds(3));
    return scenario.outcome().notification_latency_ms.p99();
  };
  EXPECT_GT(p99("multi-region"), p99("uniform"));
}

// --- zoo worlds end to end -----------------------------------------------
//
// Every zoo matrix carries per-link jitter drawn from the network's seeded
// stream, so a fixed seed fixes every delivery timestamp: the full
// fingerprint and the metrics snapshot must replay exactly.

struct Fingerprint {
  std::vector<std::string> delivered;      // client#collection#version
  std::vector<std::string> notifications;  // delivered + at_micros
  std::uint64_t delivered_matching = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_zoo_scenario(const std::string& topology, bool adaptive,
                             std::uint64_t seed) {
  workload::ScenarioConfig config;
  config.strategy = workload::Strategy::kGsAlert;
  config.n_servers = 12;
  config.gds_fanout = 2;
  config.clients_per_server = 1;
  config.seed = seed;
  config.sim_topology = topology;
  config.adaptive_tree = adaptive;
  workload::Scenario scenario{config};
  scenario.setup_collections();
  scenario.subscribe_all(2);
  scenario.settle(SimTime::seconds(3));
  for (int i = 0; i < 4; ++i) {
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::seconds(1));
  }
  scenario.settle(SimTime::seconds(6));

  Fingerprint fp;
  for (std::size_t c = 0; c < scenario.clients().size(); ++c) {
    for (const auto& note : scenario.clients()[c]->notifications()) {
      std::ostringstream key;
      key << c << "#" << note.event.collection.str() << "#"
          << note.event.build_version;
      fp.delivered.push_back(key.str());
      key << "#" << note.at.as_micros();
      fp.notifications.push_back(key.str());
    }
  }
  std::sort(fp.delivered.begin(), fp.delivered.end());
  std::sort(fp.notifications.begin(), fp.notifications.end());
  const workload::Outcome outcome = scenario.outcome();
  fp.delivered_matching = outcome.delivered_matching;
  fp.false_negatives = outcome.false_negatives;
  fp.net_sent = scenario.net().stats().sent;
  fp.net_delivered = scenario.net().stats().delivered;
  return fp;
}

TEST(ZooWorldTest, EveryZooWorldDeliversWithoutFalseNegatives) {
  for (const std::string& topology : sim::topology_zoo()) {
    const Fingerprint fp = run_zoo_scenario(topology, false, 404);
    ASSERT_GT(fp.delivered_matching, 0u) << topology;
    EXPECT_EQ(fp.false_negatives, 0u) << topology;
  }
}

TEST(ZooWorldTest, AdaptiveMultiRegionDeliversWithoutFalseNegatives) {
  // Jittered RTT samples drive the adaptive tree's re-parenting, which
  // is not allowed to drop a notification.
  const Fingerprint fp = run_zoo_scenario("multi-region", true, 515);
  ASSERT_GT(fp.delivered_matching, 0u);
  EXPECT_EQ(fp.false_negatives, 0u);
}

TEST(ZooWorldTest, FixedSeedReplayMatchesFullFingerprint) {
  // Timestamps and network totals included.
  const Fingerprint a = run_zoo_scenario("mobile-churn", true, 99);
  const Fingerprint b = run_zoo_scenario("mobile-churn", true, 99);
  ASSERT_GT(a.delivered_matching, 0u);
  EXPECT_EQ(a, b);
}

TEST(ZooWorldTest, FixedSeedReplayMetricsAreByteIdentical) {
  const auto snapshot = [] {
    workload::ScenarioConfig config;
    config.n_servers = 12;
    config.seed = 23;
    config.sim_topology = "mobile-churn";
    config.adaptive_tree = true;
    workload::Scenario scenario{config};
    scenario.setup_collections();
    scenario.subscribe_all(1);
    scenario.settle(SimTime::seconds(8));
    scenario.publish_random_rebuild(2);
    scenario.settle(SimTime::seconds(3));
    obs::MetricsRegistry registry;
    scenario.collect_metrics(registry);
    return registry.text_snapshot();
  };
  const std::string a = snapshot();
  const std::string b = snapshot();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("gds.rtt.probes_sent"), std::string::npos);
}

}  // namespace
}  // namespace gsalert
