// The simulated network: owns nodes, delivers packets with configurable
// latency/loss, and models failures (node crashes, blocked pairs,
// partitions). Connectivity is internet-like: any node may address any
// other; failures subtract reachability.
//
// One Scheduler drives every node on one thread, so pop order, rng draw
// order and every counter are a pure function of the seed: seed replay
// and the chaos sweep depend on that.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/node.h"
#include "sim/scheduler.h"
#include "sim/storage.h"
#include "sim/topology.h"  // PathConfig, Topology

namespace gsalert::obs {
class MetricsRegistry;
}  // namespace gsalert::obs

namespace gsalert::sim {

/// Aggregate counters over the whole network. At any instant the wire
/// conserves packets: sent + duplicated ==
/// delivered + dropped_loss + dropped_down + dropped_blocked + in-flight.
struct NetStats {
  std::uint64_t sent = 0;            // send() calls that found a live sender
  std::uint64_t delivered = 0;       // packets handed to on_packet
  std::uint64_t dropped_loss = 0;    // random loss
  std::uint64_t dropped_down = 0;    // destination crashed (at send or arrival)
  std::uint64_t dropped_blocked = 0; // blocked pair / partition
  std::uint64_t duplicated = 0;      // extra copies injected by chaos
  std::uint64_t bytes_sent = 0;
  // Copy-volume split per transmission (chaos duplicates included):
  // header bytes are owned and memcpy'd per destination, body bytes ride
  // in a refcounted wire::Frame and are only aliased. Before the frame
  // split, every sent byte was copied (bytes_copied == bytes_sent).
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_shared = 0;
};

/// Network-wide degradation knobs driven by chaos schedules. They stack on
/// top of per-path configuration, so a fault window can be applied and
/// removed without touching path overrides.
struct NetChaosKnobs {
  double extra_loss = 0.0;       // added to every path's drop probability
  SimTime extra_latency{};       // added to every delivery
  double duplication = 0.0;      // probability a packet is delivered twice
  double reorder = 0.0;          // probability of an extra random delay
  SimTime reorder_span{};        // extra delay bound for reordered packets
  /// Targeted latency spikes, stacked on the global extra_latency: per
  /// unordered link (keyed by Network::pair_key) and per node (regional
  /// fault windows add every member of the region). A delivery pays the
  /// link entry for its pair plus the worse of its two endpoints' node
  /// entries.
  std::unordered_map<std::uint64_t, SimTime> link_latency;
  std::unordered_map<std::uint32_t, SimTime> node_latency;

  SimTime targeted_extra(NodeId from, NodeId to) const;
};

/// Per-node counters (index by NodeId).
struct NodeStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Network {
 public:
  explicit Network(std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a node; the network takes ownership. Returns a pointer of the
  /// concrete type for direct driving from tests and workloads.
  template <typename T>
  T* add_node(std::string name, std::unique_ptr<T> node) {
    T* raw = node.get();
    register_node(std::move(name), std::move(node));
    return raw;
  }

  /// Construct a node in place.
  template <typename T, typename... Args>
  T* make_node(std::string name, Args&&... args) {
    return add_node(std::move(name),
                    std::make_unique<T>(std::forward<Args>(args)...));
  }

  /// Invoke on_start on every node (in id order). Call once after setup.
  void start();

  /// The event scheduler every node runs on.
  Scheduler& scheduler() { return scheduler_; }

  /// Current virtual time.
  SimTime now() const { return scheduler_.now(); }

  /// The network's deterministic random stream.
  Rng& rng() { return rng_; }

  /// Schedule a control action (fault injection, probes) `delay` from
  /// now: a plain scheduler event.
  void schedule_control(SimTime delay, std::function<void()> action);

  /// Default path characteristics for pairs without an override.
  void set_default_path(PathConfig config);
  /// Override characteristics for a specific unordered pair.
  void set_path(NodeId a, NodeId b, PathConfig config);

  /// Install a WAN topology: path lookup becomes override -> region
  /// matrix -> default. Not legal mid-run.
  void set_topology(Topology topo);
  const Topology* topology() const {
    return topology_ ? &*topology_ : nullptr;
  }
  /// Region of a node under the installed topology (0 without one).
  std::size_t region_of(NodeId node) const;

  /// Resolved path characteristics for a pair (override, then topology
  /// matrix, then default) — what send() will actually use.
  const PathConfig& path(NodeId a, NodeId b) const { return path_for(a, b); }

  /// Canonical unordered-pair key, shared with NetChaosKnobs'
  /// per-link targeting maps.
  static std::uint64_t pair_key(NodeId a, NodeId b);

  /// --- Failure injection ------------------------------------------------
  /// Crash: node stops sending/receiving; in-flight packets to it drop,
  /// its storage (if any) loses pending writes per the fault knobs, and
  /// its timers die (the node's next incarnation starts here).
  void crash(NodeId node);
  /// Restart a crashed node (on_restart is invoked).
  void restart(NodeId node);
  bool is_up(NodeId node) const;

  /// --- Stable storage -----------------------------------------------------
  /// The node's simulated disk, created on first use. Survives crashes
  /// (minus whatever the crash semantics destroy) for the network's
  /// lifetime.
  Storage& storage(NodeId node);
  /// Crash-time misbehavior applied to every node's storage (torn writes,
  /// bit flips). Defaults to honest fsync; chaos scenarios raise it.
  StorageFaults& storage_faults() { return storage_faults_; }
  /// Every storage instantiated so far, in id order (invariant checkers
  /// and soak tests scan log sizes through this).
  const std::map<std::uint32_t, std::unique_ptr<Storage>>& storages() const {
    return storages_;
  }

  /// Observer invoked at the instant a node crashes, before storage fault
  /// semantics apply — the durability checker snapshots the node's
  /// in-memory state here. One observer; empty function detaches.
  void set_crash_observer(std::function<void(NodeId)> fn) {
    crash_observer_ = std::move(fn);
  }

  /// Block/unblock communication between an unordered pair.
  void block_pair(NodeId a, NodeId b);
  void unblock_pair(NodeId a, NodeId b);
  bool is_blocked(NodeId a, NodeId b) const;

  /// Partition the network into groups: traffic crossing group boundaries
  /// drops. Nodes absent from all groups land in implicit group 0.
  void set_partition(const std::vector<std::vector<NodeId>>& groups);
  void clear_partition();

  /// Global degradation knobs (loss bursts, latency spikes, duplication,
  /// reordering). Mutable access so chaos faults can adjust single fields.
  NetChaosKnobs& chaos() { return chaos_; }
  const NetChaosKnobs& chaos() const { return chaos_; }

  /// Packets scheduled for delivery but not yet arrived (or dropped).
  std::uint64_t packets_in_flight() const { return in_flight_; }

  /// --- Messaging ----------------------------------------------------------
  /// Send a packet; returns false if it was dropped at send time (sender or
  /// destination down, pair blocked/partitioned) — callers treat the result
  /// as best-effort information only, matching the GDS delivery contract.
  bool send(NodeId from, NodeId to, Packet packet);

  /// Run `f` after `delay` if `node` is up then and has not crashed since:
  /// a timer dies with the incarnation that set it. `f` is its owner's
  /// handler, a closure over the owner and a key (never over an element
  /// of a container the owner may clear); it must fit SmallAction's
  /// inline buffer beside the node id and incarnation.
  template <typename F>
  void set_timer(NodeId node, SimTime delay, F&& f) {
    auto timer = [this, node, life = incarnations_[node.value() - 1],
                  f = std::forward<F>(f)]() mutable {
      if (up_[node.value() - 1] && incarnations_[node.value() - 1] == life) {
        f();
      }
    };
    static_assert(sizeof(timer) <= SmallAction::kInlineBytes,
                  "timer closure would spill to the heap");
    scheduler_.schedule_after(delay, std::move(timer));
  }

  /// --- Introspection ------------------------------------------------------
  Node* node(NodeId id) const;
  NodeId find_node(const std::string& name) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Aggregate counters.
  const NetStats& stats() const { return stats_; }
  void reset_stats();
  const NodeStats& node_stats(NodeId id) const;

  /// Export the aggregate and per-node counters into `registry` under
  /// `net.*` / `net.node.*{node=...}` (see docs/OBSERVABILITY.md).
  void collect_metrics(obs::MetricsRegistry& registry) const;

  /// Run until the event queue drains or `max_events` executed.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    return scheduler_.run(max_events);
  }
  /// Run all events with timestamp <= deadline; the clock always advances
  /// to `deadline` (see Scheduler::run_until).
  std::size_t run_until(SimTime deadline) {
    return scheduler_.run_until(deadline);
  }

 private:
  void register_node(std::string name, std::unique_ptr<Node> node);
  const PathConfig& path_for(NodeId a, NodeId b) const;
  void schedule_delivery(NodeId from, NodeId to, Packet packet,
                         SimTime delay);
  /// Arrival-time half of a delivery (drop re-checks + on_packet).
  void deliver(NodeId from, NodeId to, Packet packet);

  Scheduler scheduler_;
  Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
  std::vector<bool> up_;
  std::vector<std::uint32_t> incarnations_;  // bumped by crash()
  std::vector<NodeStats> node_stats_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::unordered_map<std::uint64_t, PathConfig> path_overrides_;
  std::unordered_set<std::uint64_t> blocked_;
  std::unordered_map<std::uint32_t, int> partition_group_;  // id -> group
  bool partition_active_ = false;
  std::map<std::uint32_t, std::unique_ptr<Storage>> storages_;
  StorageFaults storage_faults_;
  std::function<void(NodeId)> crash_observer_;
  PathConfig default_path_;
  std::optional<Topology> topology_;
  NetChaosKnobs chaos_;
  std::uint64_t in_flight_ = 0;
  NetStats stats_;
};

}  // namespace gsalert::sim
