// Labeled metrics with deterministic export. Hot paths keep their plain
// struct counters (free to bump); components expose a pull-style
// `collect_metrics(MetricsRegistry&)` that copies them in here under
// canonical names, and the registry is the one export layer — text
// snapshot for humans, JSON for the benches' BENCH_<name>.json files.
//
// Series are keyed by `name{k=v,...}` with label keys sorted, stored in
// an ordered map so snapshots are byte-stable across identical runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "obs/latency.h"

namespace gsalert::obs {

class MetricsRegistry {
 public:
  /// Find-or-create. References stay valid until reset() (std::map
  /// nodes are stable), so hot loops may cache them.
  std::uint64_t& counter(std::string_view name, const Labels& labels = {});
  double& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  void reset() { series_.clear(); }
  std::size_t series_count() const { return series_.size(); }

  /// "name{labels} = value" per line, key-sorted.
  std::string text_snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string json() const;

  /// Canonical series key, e.g. `gds.deliveries{node=gds-1}`.
  static std::string series_key(std::string_view name, Labels labels);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram hist;
  };

  Series& find_or_create(std::string_view name, const Labels& labels,
                         Kind kind);

  std::map<std::string, Series> series_;
};

}  // namespace gsalert::obs
