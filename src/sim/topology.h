// First-class WAN topology: nodes belong to regions and a symmetric
// region-by-region matrix of path characteristics replaces the flat
// default-plus-overrides latency model for realistic wide-area runs.
//
// A Topology is declarative: it never touches a Network directly.
// Network::set_topology installs one, after which path lookup resolves
// explicit per-pair overrides first, then the matrix entry for the two
// endpoints' regions. Region membership is a pure function of the node
// index, so the same Topology applies to any node count and a fixed-seed
// replay stays byte-identical.
//
// The named generators below form the topology zoo used by the bench
// sweep and the chaos sweep's every-Nth-seed WAN configurations (see
// docs/TOPOLOGY.md for the catalog and the matrix format). Entries also
// carry workload hints (flash-crowd burst factor, diurnal load curve,
// correlated regional failures) that the sim core ignores and the
// workload/chaos layers interpret.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace gsalert::sim {

/// Transmission characteristics for a path.
struct PathConfig {
  SimTime latency = SimTime::millis(10);  // base one-way latency
  SimTime jitter = SimTime::zero();       // uniform extra in [0, jitter]
  double loss = 0.0;                      // drop probability per packet
};

struct Topology {
  /// How node indices map onto regions.
  enum class Assign {
    kRoundRobin,  // node i -> region i % regions (interleaved, default)
    kBlocks,      // contiguous runs of ceil(n/regions) nodes per region
  };

  std::string name = "uniform";
  std::size_t regions = 1;
  Assign assign = Assign::kRoundRobin;
  /// regions x regions path matrix, row-major; entry (a, b) must equal
  /// (b, a) — build through at() to keep it symmetric.
  std::vector<PathConfig> matrix;

  // --- workload hints (ignored by the sim core) --------------------------
  /// Publish-rate burst multiplier for rebuild storms (flash crowds).
  double flash_crowd_factor = 1.0;
  /// Modulate the publish rate over a day-shaped curve.
  bool diurnal_load = false;
  /// Enable the correlated regional-failure chaos class on this topology.
  bool regional_failures = false;
  /// Index of a high-churn (mobile) region whose links carry heavy
  /// jitter, or regions if none.
  std::size_t mobile_region = static_cast<std::size_t>(-1);

  /// Matrix access; sets both (a, b) and (b, a) through the mutable
  /// overload. Out-of-range access is a programming error (asserted).
  PathConfig& at(std::size_t a, std::size_t b);
  const PathConfig& at(std::size_t a, std::size_t b) const;

  /// Region of the node with 0-based index `node_index` out of
  /// `node_count` registered nodes (kBlocks needs the total to size its
  /// runs; kRoundRobin ignores it).
  std::size_t region_of(std::size_t node_index,
                        std::size_t node_count) const;

  /// True when the matrix has regions^2 symmetric entries.
  bool valid() const;

  // --- the zoo -----------------------------------------------------------
  /// Single region, every path identical — the legacy model.
  static Topology uniform(PathConfig base = {});
  /// Three WAN regions: 5 ms intra, 40 ms adjacent, 150 ms far.
  static Topology multi_region(std::size_t regions = 3);
  /// multi_region with the last region mobile: 80 ms base and 40 ms
  /// jitter on every link touching it, so measured RTTs churn hard.
  static Topology mobile_churn(std::size_t regions = 3);
  /// One origin region plus crowd regions, with a publish-burst hint for
  /// rebuild storms.
  static Topology flash_crowd(std::size_t crowd_regions = 3);
  /// Globe-spanning regions with a diurnal load-curve hint.
  static Topology diurnal(std::size_t regions = 3);
  /// multi_region with the correlated regional-failure chaos class armed.
  static Topology regional_failure(std::size_t regions = 3);
};

/// Look up a zoo topology by name ("uniform", "multi-region",
/// "mobile-churn", "flash-crowd", "diurnal", "regional-failure");
/// nullopt for unknown names.
std::optional<Topology> topology_by_name(const std::string& name);

/// Names of every zoo entry, in catalog order.
const std::vector<std::string>& topology_zoo();

}  // namespace gsalert::sim
