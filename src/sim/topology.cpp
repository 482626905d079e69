#include "sim/topology.h"

#include <algorithm>
#include <cassert>

namespace gsalert::sim {

namespace {

/// A symmetric matrix where every entry starts from `intra` on the
/// diagonal and `fill` off it.
Topology blank(std::string name, std::size_t regions, PathConfig intra,
               PathConfig fill) {
  Topology t;
  t.name = std::move(name);
  t.regions = std::max<std::size_t>(1, regions);
  t.matrix.assign(t.regions * t.regions, fill);
  for (std::size_t r = 0; r < t.regions; ++r) t.at(r, r) = intra;
  return t;
}

constexpr auto kIntra = PathConfig{.latency = SimTime::millis(5),
                                   .jitter = SimTime::millis(1)};

}  // namespace

PathConfig& Topology::at(std::size_t a, std::size_t b) {
  assert(a < regions && b < regions && matrix.size() == regions * regions);
  // Writes through the (a, b) slot are mirrored by the callers below; a
  // direct caller must write both triangles or keep a == b.
  return matrix[a * regions + b];
}

const PathConfig& Topology::at(std::size_t a, std::size_t b) const {
  assert(a < regions && b < regions && matrix.size() == regions * regions);
  return matrix[a * regions + b];
}

std::size_t Topology::region_of(std::size_t node_index,
                                std::size_t node_count) const {
  if (regions <= 1) return 0;
  if (assign == Assign::kRoundRobin) return node_index % regions;
  if (node_count == 0) return 0;
  return std::min(node_index * regions / node_count, regions - 1);
}

bool Topology::valid() const {
  if (regions == 0 || matrix.size() != regions * regions) return false;
  for (std::size_t a = 0; a < regions; ++a) {
    for (std::size_t b = a + 1; b < regions; ++b) {
      const PathConfig& ab = at(a, b);
      const PathConfig& ba = at(b, a);
      if (ab.latency != ba.latency || ab.jitter != ba.jitter ||
          ab.loss != ba.loss) {
        return false;
      }
    }
  }
  return true;
}

Topology Topology::uniform(PathConfig base) {
  Topology t = blank("uniform", 1, base, base);
  return t;
}

Topology Topology::multi_region(std::size_t regions) {
  Topology t = blank("multi-region", regions, kIntra, PathConfig{});
  for (std::size_t a = 0; a < t.regions; ++a) {
    for (std::size_t b = a + 1; b < t.regions; ++b) {
      // Ring distance stands in for geography: neighbours are one WAN
      // hop (40 ms), everything further is intercontinental (150 ms).
      const std::size_t d =
          std::min(b - a, t.regions - (b - a));
      const PathConfig far{.latency = SimTime::millis(150),
                           .jitter = SimTime::millis(10)};
      const PathConfig near{.latency = SimTime::millis(40),
                            .jitter = SimTime::millis(4)};
      t.at(a, b) = d <= 1 ? near : far;
      t.at(b, a) = t.at(a, b);
    }
  }
  return t;
}

Topology Topology::mobile_churn(std::size_t regions) {
  Topology t = multi_region(regions);
  t.name = "mobile-churn";
  t.mobile_region = t.regions - 1;
  const PathConfig mobile{.latency = SimTime::millis(80),
                          .jitter = SimTime::millis(40)};
  for (std::size_t r = 0; r + 1 < t.regions; ++r) {
    t.at(r, t.mobile_region) = mobile;
    t.at(t.mobile_region, r) = mobile;
  }
  t.at(t.mobile_region, t.mobile_region) =
      PathConfig{.latency = SimTime::millis(20),
                 .jitter = SimTime::millis(15)};
  return t;
}

Topology Topology::flash_crowd(std::size_t crowd_regions) {
  const std::size_t regions = std::max<std::size_t>(2, crowd_regions + 1);
  Topology t = blank("flash-crowd", regions,
                     kIntra,
                     PathConfig{.latency = SimTime::millis(100),
                                .jitter = SimTime::millis(8)});
  // Region 0 is the origin; the crowd reaches it one hop faster than it
  // reaches itself.
  for (std::size_t r = 1; r < t.regions; ++r) {
    const PathConfig to_origin{.latency = SimTime::millis(60),
                               .jitter = SimTime::millis(6)};
    t.at(0, r) = to_origin;
    t.at(r, 0) = to_origin;
  }
  t.flash_crowd_factor = 8.0;
  return t;
}

Topology Topology::diurnal(std::size_t regions) {
  Topology t = multi_region(regions);
  t.name = "diurnal";
  t.diurnal_load = true;
  return t;
}

Topology Topology::regional_failure(std::size_t regions) {
  Topology t = multi_region(regions);
  t.name = "regional-failure";
  t.regional_failures = true;
  return t;
}

std::optional<Topology> topology_by_name(const std::string& name) {
  if (name.empty() || name == "uniform") return Topology::uniform();
  if (name == "multi-region") return Topology::multi_region();
  if (name == "mobile-churn") return Topology::mobile_churn();
  if (name == "flash-crowd") return Topology::flash_crowd();
  if (name == "diurnal") return Topology::diurnal();
  if (name == "regional-failure") return Topology::regional_failure();
  return std::nullopt;
}

const std::vector<std::string>& topology_zoo() {
  static const std::vector<std::string> kZoo{
      "uniform",       "multi-region", "mobile-churn",
      "flash-crowd",   "diurnal",      "regional-failure",
  };
  return kZoo;
}

}  // namespace gsalert::sim
