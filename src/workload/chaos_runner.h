// Chaos harness: attaches the system-wide invariant checkers to a
// Scenario, injects seeded fault schedules, and drives the standard
// chaos run protocol (healthy warmup -> faults + churn -> heal ->
// verify). tests/chaos_test.cpp sweeps seeds through run_chaos();
// benches attach a ChaosHarness to their own scenarios via --chaos-seed.
//
// The seven checkers registered for a full (kGsAlert) run:
//   gds-exactly-once     broadcast delivered at most once per
//                        (destination server, origin, seq) — the §4.1
//                        dedup guarantee, including transient ring cycles
//   gds-tree-well-formed directory tree connected after re-parenting and
//                        root failover; no orphan nodes, no cycles other
//                        than the designed same-stratum sibling ring
//   dangling-profile     no notification generated by a profile that was
//                        cancelled before the event was published (§2/§7)
//   post-heal-delivery   every expectation created after all faults heal
//                        is delivered, and all reliable outboxes drain —
//                        §7's "delayed, not lost"
//   crash-durability     state journaled before a crash survives the
//                        restart: registrations, broadcast/event dedup
//                        keys, processed forwards, and every subscription
//                        not since cancelled (honest-fsync runs only —
//                        torn-write scenarios run with full_checks=false).
//                        On credit-managed delivery runs, every queued
//                        notification pending at the crash must end up on
//                        its client or still pending at quiescence
//                        (superset check over delivery queues + unacked
//                        digest channel), cancelled subscriptions excepted
//   delivery-no-duplicate no client notification log contains the same
//                        (subscription, event) twice — digests, replays
//                        and crash re-flushes must dedup to one delivery
//   wire-conservation    every packet accepted by the network accounted
//                        for (sim::WireConservationChecker)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/chaos.h"
#include "sim/invariants.h"
#include "sim/storage.h"
#include "workload/metrics.h"
#include "workload/scenario.h"

namespace gsalert::workload {

class GdsExactlyOnceChecker;
class PostHealCompletenessChecker;

struct ChaosHarnessOptions {
  /// Register the gsalert-specific checkers (requires Strategy::kGsAlert).
  /// When false only wire conservation is checked — what baseline
  /// strategies can honestly promise.
  bool full_checks = true;
  /// Enforce Outcome::false_positives == 0 (dangling-profile checker).
  /// Harness-driven runs sequence cancels and publishes so this holds;
  /// benches with their own timelines may relax it.
  bool check_false_positives = true;
};

/// Attaches invariant checkers (and, optionally, a fault schedule) to an
/// existing Scenario. The harness must outlive the scenario's run phase;
/// its destructor detaches the observer hooks.
class ChaosHarness {
 public:
  explicit ChaosHarness(Scenario& scenario, ChaosHarnessOptions options = {});
  ~ChaosHarness();

  ChaosHarness(const ChaosHarness&) = delete;
  ChaosHarness& operator=(const ChaosHarness&) = delete;

  /// Fill `config`'s fault targets from the scenario topology (every GDS
  /// node and server crashable, tree edges and host pairs blockable,
  /// clients co-partitioned with their home server), generate a schedule
  /// from `chaos_seed`, and install it at the current virtual time.
  const sim::ChaosSchedule& inject(std::uint64_t chaos_seed,
                                   sim::ChaosConfig config = {});
  /// Install an explicit schedule (replay / minimization) at the current
  /// virtual time.
  const sim::ChaosSchedule& inject_schedule(sim::ChaosSchedule schedule);

  const sim::ChaosSchedule& schedule() const { return schedule_; }
  /// Virtual time the schedule was injected at (fault offsets are
  /// relative to this).
  SimTime injected_at() const { return injected_at_; }

  /// Snapshot ground truth for the post-heal completeness checker; call
  /// once all faults have healed and the system has re-converged.
  void mark_healed();

  std::vector<sim::Violation> check() const { return registry_.check_all(); }
  /// Deterministic per-checker verdict block.
  std::string report() const { return registry_.report(); }

  /// The harness keeps a bounded flight recorder armed for its whole
  /// lifetime (installed as a span sink, tapping the log observer).
  /// Dump it when a checker fires to see each node's recent history —
  /// run_protocol appends this to the report trace automatically.
  std::string flight_dump() const { return recorder_.dump(); }
  const obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Derive default fault targets from a scenario (exposed for callers
  /// that want to tweak the config before generating).
  static sim::ChaosConfig fill_targets(Scenario& scenario,
                                       sim::ChaosConfig config);

 private:
  Scenario& scenario_;
  obs::FlightRecorder recorder_{/*per_node_capacity=*/96};
  sim::InvariantRegistry registry_;
  GdsExactlyOnceChecker* exactly_once_ = nullptr;       // owned by registry_
  PostHealCompletenessChecker* post_heal_ = nullptr;    // owned by registry_
  sim::ChaosSchedule schedule_;
  SimTime injected_at_;
};

/// Configuration for one self-contained chaos property run.
struct ChaosRunConfig {
  std::uint64_t seed = 1;       // workload + topology + schedule seed
  int n_servers = 8;
  int gds_fanout = 2;
  int clients_per_server = 2;
  int profiles_per_client = 2;
  int distributed_links = 2;    // super/sub collection links (aux path)
  int warmup_publishes = 3;     // healthy publishes before the faults
  int chaos_steps = 10;         // publish/cancel actions across the window
  int final_publishes = 4;      // healthy publishes after full heal
  bool gds_dedup = true;        // ablation / injected-bug switch
  /// Run the delivery stage credit-managed (credits=8) with a seeded mix
  /// of per-subscription policies (immediate / coalesce / digest,
  /// windows <= 500ms) — exercises queue durability, digest replay dedup
  /// and backpressure under faults. The 300-seed sweep turns this on for
  /// every third seed.
  bool managed_delivery = false;
  sim::ChaosConfig chaos;      // window counts; targets filled per run
  /// Register the full checker set (ChaosHarnessOptions::full_checks).
  /// Torn-write runs set this false: a lying fsync may legally lose
  /// acked dedup state, so only wire conservation + explicit liveness
  /// assertions in the test itself apply.
  bool full_checks = true;
  /// Crash-time storage misbehavior (0 = honest fsync; the 300-seed
  /// sweep relies on honest fsync for its strict durability invariant).
  sim::StorageFaults storage_faults{};
  /// Journal compaction floor override for every node (0 = default).
  std::size_t journal_compact_bytes = 0;
  /// WAN topology-zoo name (ScenarioConfig::sim_topology; "" = uniform).
  /// With a multi-region topology installed, fill_targets also derives
  /// region groups for correlated regional failures.
  std::string sim_topology;
  /// Latency-aware adaptive GDS tree (ScenarioConfig::adaptive_tree).
  bool adaptive_tree = false;
  /// Query-mediator fan-outs issued across the run (post-heal queries
  /// must come back complete — every member answered, none timed out).
  int mediator_queries = 0;
};

struct ChaosReport {
  std::vector<sim::Violation> violations;
  /// Deterministic trace: fault schedule + checker verdicts. Re-running
  /// the same seed yields a byte-identical trace (DESIGN §8).
  std::string trace;
  Outcome outcome;
  sim::ChaosSchedule schedule;
  /// Largest durable journal log observed on any node at the end of the
  /// run.
  std::uint64_t max_journal_log_bytes = 0;
  /// Largest amount by which any node's durable log exceeded its
  /// compaction trigger, max(threshold, that node's .snap size); 0 when
  /// every log is within it (soak tests bound this by one commit's burst).
  std::uint64_t max_journal_log_over_trigger = 0;

  bool ok() const { return violations.empty(); }
};

/// Run the full protocol with a schedule generated from config.seed.
ChaosReport run_chaos(const ChaosRunConfig& config);
/// Same protocol, but with an explicit fault schedule.
ChaosReport run_chaos_with(const ChaosRunConfig& config,
                           const sim::ChaosSchedule& schedule);

/// Greedily shrink a violating schedule: repeatedly drop any single fault
/// whose removal still reproduces a violation. Returns the reduced
/// schedule (the original if it does not violate at all).
sim::ChaosSchedule minimize_schedule(const ChaosRunConfig& config,
                                     sim::ChaosSchedule schedule);

}  // namespace gsalert::workload
