#include "sim/chaos.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"

namespace gsalert::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kBlockPair:
      return "block";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kLossBurst:
      return "loss-burst";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kDuplication:
      return "duplication";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kRegionalFailure:
      return "regional-failure";
  }
  return "?";
}

namespace {

void sort_faults(std::vector<Fault>& faults) {
  std::stable_sort(faults.begin(), faults.end(),
                   [](const Fault& x, const Fault& y) {
                     return x.start < y.start;
                   });
}

bool overlaps(const Fault& f, SimTime start, SimTime end) {
  return f.start < end && start < f.end;
}

/// True when the fault drives Network::set_partition / clear_partition —
/// those compose with nothing, so at most one such window is active.
bool uses_partition(FaultKind kind) {
  return kind == FaultKind::kPartition ||
         kind == FaultKind::kRegionalFailure;
}

/// True when the fault owns its region's node_latency entries for the
/// window (regional failures and per-region spikes).
bool owns_region_latency(const Fault& f) {
  return f.kind == FaultKind::kRegionalFailure ||
         (f.kind == FaultKind::kLatencySpike && !f.groups.empty());
}

/// Conflict rules keeping begin/end actions composable: same node never
/// crashes twice concurrently, same pair is not blocked twice, only one
/// partition-driving window at a time, targeted windows never stack on
/// the same link/region, and global knob windows of one kind don't stack.
bool conflicts(const std::vector<Fault>& accepted, const Fault& cand) {
  for (const Fault& f : accepted) {
    if (!overlaps(f, cand.start, cand.end)) continue;
    if (uses_partition(f.kind) && uses_partition(cand.kind)) return true;
    if (owns_region_latency(f) && owns_region_latency(cand) &&
        f.region == cand.region) {
      return true;
    }
    if (f.kind != cand.kind) continue;
    switch (cand.kind) {
      case FaultKind::kCrash:
        if (f.node == cand.node) return true;
        break;
      case FaultKind::kBlockPair:
        if ((f.a == cand.a && f.b == cand.b) ||
            (f.a == cand.b && f.b == cand.a)) {
          return true;
        }
        break;
      case FaultKind::kLatencySpike: {
        // Scoped spikes stack freely across distinct targets; two spikes
        // conflict only when they share a scope.
        const bool f_global = !f.a.valid() && f.groups.empty();
        const bool cand_global = !cand.a.valid() && cand.groups.empty();
        if (f_global && cand_global) return true;
        if (f.a.valid() && cand.a.valid() &&
            ((f.a == cand.a && f.b == cand.b) ||
             (f.a == cand.b && f.b == cand.a))) {
          return true;
        }
        break;
      }
      default:
        return true;  // partition / global knobs: one window at a time
    }
  }
  return false;
}

}  // namespace

ChaosSchedule::ChaosSchedule(std::vector<Fault> faults)
    : faults_(std::move(faults)) {
  sort_faults(faults_);
}

ChaosSchedule ChaosSchedule::generate(const ChaosConfig& config,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fault> faults;

  auto draw_window = [&](Fault& f) {
    const std::int64_t span = std::max<std::int64_t>(
        1, (config.duration - config.min_fault).as_micros());
    f.start = SimTime::micros(rng.uniform_int(0, span));
    const SimTime len = SimTime::micros(rng.uniform_int(
        config.min_fault.as_micros(), config.max_fault.as_micros()));
    f.end = std::min(f.start + len, config.duration);
  };
  auto admit = [&](Fault f) {
    if (f.end <= f.start) return;
    if (conflicts(faults, f)) return;  // deterministic skip, not a retry
    faults.push_back(std::move(f));
  };

  for (int i = 0; i < config.crashes && !config.crash_targets.empty(); ++i) {
    Fault f{.kind = FaultKind::kCrash};
    draw_window(f);
    f.node = config.crash_targets[rng.index(config.crash_targets.size())];
    admit(std::move(f));
  }
  for (int i = 0; i < config.blocks && !config.block_candidates.empty();
       ++i) {
    Fault f{.kind = FaultKind::kBlockPair};
    draw_window(f);
    const auto& pair =
        config.block_candidates[rng.index(config.block_candidates.size())];
    f.a = pair.first;
    f.b = pair.second;
    admit(std::move(f));
  }
  for (int i = 0;
       i < config.partitions && config.partition_units.size() >= 2; ++i) {
    Fault f{.kind = FaultKind::kPartition};
    draw_window(f);
    // Split the units into two camps; every unit travels as a whole so a
    // client is never cut off from its home server by the partition.
    f.groups.resize(2);
    bool both = false;
    for (std::size_t u = 0; u < config.partition_units.size(); ++u) {
      const std::size_t side = rng.chance(0.5) ? 1 : 0;
      both = both || (side == 1);
      auto& group = f.groups[side];
      const auto& unit = config.partition_units[u];
      group.insert(group.end(), unit.begin(), unit.end());
    }
    if (!both || f.groups[0].empty()) continue;  // degenerate split
    admit(std::move(f));
  }
  auto knob_windows = [&](FaultKind kind, int count, double prob,
                          SimTime latency) {
    for (int i = 0; i < count; ++i) {
      Fault f{.kind = kind};
      draw_window(f);
      f.prob = prob;
      f.latency = latency;
      admit(std::move(f));
    }
  };
  knob_windows(FaultKind::kLossBurst, config.loss_bursts, config.burst_loss,
               SimTime::zero());
  knob_windows(FaultKind::kLatencySpike, config.latency_spikes, 0.0,
               config.spike_latency);
  knob_windows(FaultKind::kDuplication, config.duplication_windows,
               config.duplication_prob, SimTime::zero());
  knob_windows(FaultKind::kReorder, config.reorder_windows,
               config.reorder_prob, config.reorder_span);

  // Targeted spikes and regional failures draw after the legacy kinds so
  // a config that requests none reproduces the exact historical stream.
  for (int i = 0;
       i < config.link_spikes && !config.spike_link_candidates.empty();
       ++i) {
    Fault f{.kind = FaultKind::kLatencySpike};
    draw_window(f);
    const auto& link = config.spike_link_candidates[rng.index(
        config.spike_link_candidates.size())];
    f.a = link.first;
    f.b = link.second;
    f.latency = config.spike_latency;
    admit(std::move(f));
  }
  const auto pick_region = [&]() -> std::size_t {
    // Draw among non-empty regions only (deterministic order).
    std::vector<std::size_t> candidates;
    for (std::size_t r = 0; r < config.regions.size(); ++r) {
      if (!config.regions[r].empty()) candidates.push_back(r);
    }
    if (candidates.empty()) return static_cast<std::size_t>(-1);
    return candidates[rng.index(candidates.size())];
  };
  for (int i = 0; i < config.region_spikes && !config.regions.empty(); ++i) {
    Fault f{.kind = FaultKind::kLatencySpike};
    draw_window(f);
    f.region = pick_region();
    if (f.region == static_cast<std::size_t>(-1)) continue;
    f.groups = {config.regions[f.region]};
    f.latency = config.spike_latency;
    admit(std::move(f));
  }
  for (int i = 0;
       i < config.regional_failures && config.regions.size() >= 2; ++i) {
    Fault f{.kind = FaultKind::kRegionalFailure};
    draw_window(f);
    f.region = pick_region();
    if (f.region == static_cast<std::size_t>(-1)) continue;
    f.groups = {config.regions[f.region]};
    f.latency = config.regional_extra_latency;
    admit(std::move(f));
  }

  sort_faults(faults);
  return ChaosSchedule{std::move(faults)};
}

void ChaosSchedule::apply(Network& net) const {
  // Fault begin/end are control actions: plain scheduler events at their
  // due times (see Network::schedule_control).
  for (const Fault& fault : faults_) {
    switch (fault.kind) {
      case FaultKind::kCrash:
        net.schedule_control(fault.start,
                             [&net, node = fault.node] { net.crash(node); });
        net.schedule_control(fault.end, [&net, node = fault.node] {
          net.restart(node);
        });
        break;
      case FaultKind::kBlockPair:
        net.schedule_control(fault.start, [&net, a = fault.a, b = fault.b] {
          net.block_pair(a, b);
        });
        net.schedule_control(fault.end, [&net, a = fault.a, b = fault.b] {
          net.unblock_pair(a, b);
        });
        break;
      case FaultKind::kPartition:
        net.schedule_control(fault.start, [&net, groups = fault.groups] {
          net.set_partition(groups);
        });
        net.schedule_control(fault.end, [&net] { net.clear_partition(); });
        break;
      case FaultKind::kLossBurst:
        net.schedule_control(fault.start, [&net, p = fault.prob] {
          net.chaos().extra_loss = p;
        });
        net.schedule_control(fault.end,
                             [&net] { net.chaos().extra_loss = 0.0; });
        break;
      case FaultKind::kLatencySpike:
        if (fault.a.valid() && fault.b.valid()) {
          // Per-link spike: only the targeted pair pays.
          net.schedule_control(
              fault.start, [&net, a = fault.a, b = fault.b,
                            d = fault.latency] {
                net.chaos().link_latency[Network::pair_key(a, b)] = d;
              });
          net.schedule_control(fault.end, [&net, a = fault.a, b = fault.b] {
            net.chaos().link_latency.erase(Network::pair_key(a, b));
          });
        } else if (!fault.groups.empty()) {
          // Per-region spike: every link touching a member pays.
          net.schedule_control(
              fault.start, [&net, groups = fault.groups,
                            d = fault.latency] {
                for (const auto& group : groups) {
                  for (NodeId n : group) {
                    net.chaos().node_latency[n.value()] = d;
                  }
                }
              });
          net.schedule_control(fault.end, [&net, groups = fault.groups] {
            for (const auto& group : groups) {
              for (NodeId n : group) net.chaos().node_latency.erase(n.value());
            }
          });
        } else {
          net.schedule_control(fault.start, [&net, d = fault.latency] {
            net.chaos().extra_latency = d;
          });
          net.schedule_control(fault.end, [&net] {
            net.chaos().extra_latency = SimTime::zero();
          });
        }
        break;
      case FaultKind::kRegionalFailure:
        // Correlated failure: the region's links degrade and the region
        // partitions off as one camp; both effects heal together at end.
        net.schedule_control(
            fault.start,
            [&net, groups = fault.groups, d = fault.latency] {
              for (const auto& group : groups) {
                for (NodeId n : group) {
                  net.chaos().node_latency[n.value()] = d;
                }
              }
              net.set_partition(groups);
            });
        net.schedule_control(fault.end, [&net, groups = fault.groups] {
          for (const auto& group : groups) {
            for (NodeId n : group) net.chaos().node_latency.erase(n.value());
          }
          net.clear_partition();
        });
        break;
      case FaultKind::kDuplication:
        net.schedule_control(fault.start, [&net, p = fault.prob] {
          net.chaos().duplication = p;
        });
        net.schedule_control(fault.end,
                             [&net] { net.chaos().duplication = 0.0; });
        break;
      case FaultKind::kReorder:
        net.schedule_control(fault.start,
                             [&net, p = fault.prob, s = fault.latency] {
                               net.chaos().reorder = p;
                               net.chaos().reorder_span = s;
                             });
        net.schedule_control(fault.end, [&net] {
          net.chaos().reorder = 0.0;
          net.chaos().reorder_span = SimTime::zero();
        });
        break;
    }
  }
}

SimTime ChaosSchedule::last_end() const {
  SimTime latest = SimTime::zero();
  for (const Fault& f : faults_) latest = std::max(latest, f.end);
  return latest;
}

bool ChaosSchedule::quiet(SimTime from, SimTime to) const {
  for (const Fault& f : faults_) {
    if (overlaps(f, from, to)) return false;
  }
  return true;
}

ChaosSchedule ChaosSchedule::without(std::size_t index) const {
  std::vector<Fault> rest;
  rest.reserve(faults_.size() - 1);
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (i != index) rest.push_back(faults_[i]);
  }
  return ChaosSchedule{std::move(rest)};
}

std::string ChaosSchedule::describe(const Network& net) const {
  auto node_name = [&net](NodeId id) -> std::string {
    const Node* node = net.node(id);
    return node != nullptr ? node->name()
                           : "node" + std::to_string(id.value());
  };
  std::ostringstream out;
  for (const Fault& f : faults_) {
    out << "  [" << f.start.as_millis() << "ms.." << f.end.as_millis()
        << "ms] " << fault_kind_name(f.kind);
    switch (f.kind) {
      case FaultKind::kCrash:
        out << " " << node_name(f.node);
        break;
      case FaultKind::kBlockPair:
        out << " " << node_name(f.a) << "<->" << node_name(f.b);
        break;
      case FaultKind::kPartition:
        for (const auto& group : f.groups) {
          out << " {";
          for (std::size_t i = 0; i < group.size(); ++i) {
            out << (i > 0 ? "," : "") << node_name(group[i]);
          }
          out << "}";
        }
        break;
      case FaultKind::kLossBurst:
      case FaultKind::kDuplication:
        out << " p=" << f.prob;
        break;
      case FaultKind::kLatencySpike:
        out << " +" << f.latency.as_millis() << "ms";
        if (f.a.valid() && f.b.valid()) {
          out << " on " << node_name(f.a) << "<->" << node_name(f.b);
        } else if (!f.groups.empty()) {
          out << " on region " << f.region << " ("
              << f.groups.front().size() << " nodes)";
        }
        break;
      case FaultKind::kReorder:
        out << " p=" << f.prob << " span=" << f.latency.as_millis() << "ms";
        break;
      case FaultKind::kRegionalFailure:
        out << " region " << f.region << " (";
        if (!f.groups.empty()) {
          const auto& group = f.groups.front();
          for (std::size_t i = 0; i < group.size(); ++i) {
            out << (i > 0 ? "," : "") << node_name(group[i]);
          }
        }
        out << ") +" << f.latency.as_millis() << "ms";
        break;
    }
    out << "\n";
  }
  if (faults_.empty()) out << "  (no faults)\n";
  return out.str();
}

}  // namespace gsalert::sim
