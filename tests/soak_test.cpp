// Randomized churn soak, now driven through the chaos harness: bigger
// worlds and longer fault windows than the chaos_test sweep, with the
// full invariant registry armed for the whole run:
//
//   gds-exactly-once     broadcast dedup holds under crashes and rings
//   gds-tree-well-formed directory tree reconnects after failures
//   dangling-profile     cancelled profiles never notify (I1)
//   post-heal-delivery   post-heal events delivered in full (I2/I3)
//   crash-durability     journaled state survives crash-restarts
//   wire-conservation    every packet accounted for
//
// Each parameter set is one seed-replayable world; on failure the trace
// (schedule + verdicts) is printed, and `chaos_test --seed=N` replays
// sweep-shaped repros. CI-capped: a handful of worlds, ~10s of virtual
// time each.
#include <gtest/gtest.h>

#include <string>

#include "sim/invariants.h"
#include "workload/chaos_runner.h"

namespace gsalert::workload {
namespace {

struct SoakParam {
  std::uint64_t seed;
  int n_servers;
  int gds_fanout;
  int links;      // distributed super/sub collection links
  int crashes;
  int partitions;
};

class ChurnSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ChurnSoak, InvariantsHoldUnderChurn) {
  const SoakParam param = GetParam();
  ChaosRunConfig config;
  config.seed = param.seed;
  config.n_servers = param.n_servers;
  config.gds_fanout = param.gds_fanout;
  config.clients_per_server = 2;
  config.profiles_per_client = 3;
  config.distributed_links = param.links;
  config.warmup_publishes = 6;
  config.chaos_steps = 14;
  config.final_publishes = 6;
  config.chaos.duration = SimTime::seconds(14);
  config.chaos.crashes = param.crashes;
  config.chaos.blocks = 2;
  config.chaos.partitions = param.partitions;
  config.chaos.loss_bursts = 1;
  config.chaos.latency_spikes = 1;
  config.chaos.duplication_windows = 1;
  config.chaos.reorder_windows = 1;

  const ChaosReport report = run_chaos(config);
  EXPECT_TRUE(report.ok()) << sim::format_violations(report.violations)
                           << report.trace;
  // The run must have exercised the service, not idled through the
  // faults.
  EXPECT_GT(report.outcome.expected_notifications, 0u);
  EXPECT_EQ(report.outcome.false_positives, 0u)
      << "I1: no false positives, ever";
}

// Journal growth: compaction must keep every node's durable log bounded
// across a long churn run — a log is truncated once it reaches
// max(threshold, that node's snapshot size), so it can only exceed that
// trigger by whatever one event's commit appends on top. 2 KiB is
// generous slack for the burstiest commit (a burst of channel-send
// records) and still fails at once if compaction stops
// firing (the logs then overshoot by more than 4 KiB). The 256 B floor
// sits below most nodes' snapshots (bounded dedup windows keep them
// under 1 KiB), so the snapshot-sized part of the trigger is what this
// run exercises.
TEST(JournalGrowthSoak, CompactionBoundsLogSize) {
  ChaosRunConfig config;
  config.seed = 808;
  config.n_servers = 10;
  config.gds_fanout = 2;
  config.clients_per_server = 2;
  config.profiles_per_client = 3;
  config.distributed_links = 3;
  config.warmup_publishes = 8;
  config.chaos_steps = 20;
  config.final_publishes = 8;
  config.chaos.duration = SimTime::seconds(16);
  config.chaos.crashes = 3;
  config.chaos.blocks = 2;
  config.journal_compact_bytes = 256;

  const ChaosReport report = run_chaos(config);
  EXPECT_TRUE(report.ok()) << sim::format_violations(report.violations)
                           << report.trace;
  EXPECT_GT(report.max_journal_log_bytes, config.journal_compact_bytes)
      << "no log outgrew the floor: the trigger is not following the "
         "snapshot size (or the soak idled)";
  EXPECT_LT(report.max_journal_log_over_trigger, 2048u)
      << "a journal log grew past max(threshold, its snapshot) by more "
         "than one commit";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChurnSoak,
    ::testing::Values(SoakParam{101, 8, 2, 2, 2, 1},
                      SoakParam{202, 8, 3, 0, 3, 1},
                      SoakParam{303, 12, 3, 3, 2, 1},
                      SoakParam{404, 12, 2, 2, 4, 0},
                      SoakParam{505, 16, 4, 4, 3, 1},
                      SoakParam{606, 6, 2, 1, 2, 1}),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return "seed_" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n_servers) + "_f" +
             std::to_string(info.param.gds_fanout);
    });

}  // namespace
}  // namespace gsalert::workload
